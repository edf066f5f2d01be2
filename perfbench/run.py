"""laxkit benchmark: drives the public CLI (`laxkit.cli.main`) in one process.

    python3 perfbench/run.py --workload {painleve,lax-flow,jacobi} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; laxkit is imported from `src/`.
Scratch files go to `.perfbench/` in the checkout and are removed again,
except the span dump of a traced run.

--trace 0  set-up time (fresh interpreters), one untimed warm-up pass (each
           job capped at 1 s), then timed passes over the job list until S
           seconds have passed.
           Reports the end-to-end metrics.
--trace 1  warm-up pass, one timed pass without tracing, then
           the same pass with every layer wrapped (see tracer.py).  Reports the
           per-layer metrics and trace.overhead_ratio.

Every job's output is checked; a job fails when it exits non-zero, raises,
hits the per-job time limit or writes a wrong output.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# one BLAS thread: the machine has few cores and the jobs are single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from fractions import Fraction  # noqa: E402
from typing import List, Optional  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Each job runs at most this long in the warm-up pass: enough to import every
# module and touch every code path a job starts with, without paying for a
# whole extra pass (laxkit keeps no caches that a longer warm-up would fill).
WARMUP_CAP_S = 1.0

# Every reported time is scaled by PROBE_REF_S / (the run's median
# speed_probe() time), i.e. to a host on which the probe takes PROBE_REF_S.
# The CPU speed of the shared 2-vCPU host the baseline was measured on
# drifted by up to 40% within minutes (same code, same inputs), which no
# number of repeats inside a run averages out; the probe follows that drift
# (a quarter of it moved from 17.5 ms to 11.2 ms while a painleve pass went
# from 10.2 s to 6.2 s) and depends on nothing in laxkit.  The report prints the raw times too.  One
# probe takes about 50 ms, long enough that the median of a run's probes
# (one before each job) adds little noise of its own.
PROBE_REF_S = 0.05
_PROBE_MATRIX = np.arange(9.0).reshape(3, 3) / 7


def speed_probe() -> float:
    """Seconds for a fixed mix of the work laxkit does: Fraction arithmetic
    on dict-keyed terms and products of small float matrices."""
    t0 = time.perf_counter()
    for _ in range(4):
        p = {i: Fraction(i + 1, 2 * i + 3) for i in range(12)}
        for _ in range(3):
            q = {}
            for a, x in p.items():
                for b, y in p.items():
                    q[(a + b) % 24] = q.get((a + b) % 24, 0) + x * y
            p = {k: v / (1 + abs(v.numerator) % 5) for k, v in q.items()}
        M = A = _PROBE_MATRIX
        for _ in range(300):
            A = A @ M - M @ A + 0.1 * A
            A = A / (1 + np.max(np.abs(A)))
    return time.perf_counter() - t0


SETUP_CODE = """
import time
t0 = time.perf_counter()
import laxkit, laxkit.cli
from importlib import resources
from laxkit.sysdsl import parse_system
for f in sorted(resources.files("laxkit.systems").iterdir(), key=lambda f: f.name):
    if f.name.endswith(".ivf"):
        parse_system(f.read_text())
laxkit.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


class JobTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no `except Exception` in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class JobResult:
    key: str
    seconds: float
    status: str              # ok, exit, raised, timeout, wrong
    reason: str = ""
    probe_s: float = 0.0            # speed_probe() just before the job
    output: Optional[dict] = None   # file name -> bytes, when kept


def run_job(job, out: Path, limit_s: float, keep_output: bool = False) -> JobResult:
    from laxkit import cli
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    sink = io.StringIO()
    gc.collect()
    probe = speed_probe()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    failure = None
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(job.argv + ["--out", str(out)])
                agrees = job.extra() if rc == 0 and job.extra else True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        failure = ("timeout", f"time limit {limit_s:g} s")
    except Exception as exc:  # a crash fails the job, not the benchmark
        failure = ("raised", f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    if failure:
        return JobResult(job.key, elapsed, *failure, probe_s=probe)
    if rc != 0:
        last = sink.getvalue().strip().splitlines()[-1:] or [""]
        return JobResult(job.key, elapsed, "exit", f"exit code {rc}: {last[0]}", probe)
    if not agrees:
        return JobResult(job.key, elapsed, "wrong",
                         "Padé convergents disagree with the moments", probe)
    try:
        job.check(out)
    except Exception as exc:
        return JobResult(job.key, elapsed, "wrong", f"{type(exc).__name__}: {exc}", probe)
    output = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
              if keep_output else None)
    return JobResult(job.key, elapsed, "ok", probe_s=probe, output=output)


def run_pass(jobs, workdir: Path, limit_s: Optional[float] = None,
             keep_output=False) -> List[JobResult]:
    """One pass over the job list; `limit_s` caps each job's own limit."""
    return [run_job(job, workdir / f"job{i}", min(job.limit_s, limit_s or job.limit_s),
                    keep_output)
            for i, job in enumerate(jobs)]


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median time for a fresh interpreter to import laxkit, parse every
    shipped .ivf and build the CLI parser.  One untimed start first, so
    bytecode compilation is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 jobs=None, limit_s: Optional[float] = None, setup_repeats=SETUP_REPEATS,
                 span_file: Optional[Path] = None) -> dict:
    """One benchmark run.  Returns the result object and, under "details",
    what the human-readable report needs."""
    import laxkit.acceptance  # noqa: F401  (goldens; load before any patching)

    jobs = workloads.GENERATORS[workload](seed) if jobs is None else jobs
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setup = None if trace else setup_seconds(setup_repeats)
        warm = run_pass(jobs, workdir, WARMUP_CAP_S)
        passes: List[List[JobResult]] = []
        if trace:
            passes.append(run_pass(jobs, workdir, limit_s))
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = run_pass(jobs, workdir, limit_s)
            finally:
                tr.uninstall()
        else:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(jobs, workdir, limit_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [r for p in passes for r in p]
    every = warm + measured + (traced if trace else [])  # warm-up outputs too
    failed = [r for r in measured if r.status != "ok"]
    details = {"workload": workload, "seed": seed, "machine": machine(),
               "passes": len(passes), "jobs": len(jobs),
               "job_keys": [j.key for j in jobs], "failures": failed,
               "job_times": measured}
    if trace:
        summary = tr.summary()
        metrics = {}
        for name, vals in summary.items():
            metrics[f"{name}.s"] = (vals["s"], "s")
            metrics[f"{name}.self_s"] = (vals["self_s"], "s")
            metrics[f"{name}.calls"] = (vals["calls"], "count")
        metrics["laxflow.rk4_steps"] = (tr.rk4_steps, "count")
        both = [(u.seconds, t.seconds) for u, t in zip(passes[0], traced)
                if u.status == t.status == "ok"]
        metrics["trace.overhead_ratio"] = (
            sum(t for _, t in both) / sum(u for u, _ in both), "ratio")
        details["summary"] = summary
        details["traced_pass_s"] = sum(r.seconds for r in traced)
        details["spans"] = len(tr.spans)
        if span_file is not None:
            tr.write(span_file)
            details["span_file"] = str(span_file)
    else:
        probe = statistics.median(r.probe_s for r in warm + measured)
        scale = PROBE_REF_S / probe

        def stats(t):
            """pass_s, job_s.p50, job_s.p90 for job times t(result)."""
            times = [t(r) for r in measured]
            return (statistics.median(sum(t(r) for r in p) for p in passes),
                    statistics.median(times), percentile(times, 0.9))

        names = ("pass_s", "job_s.p50", "job_s.p90")
        raw = dict(zip(names, stats(lambda r: r.seconds)), setup_s=setup)
        # a timed-out job ran for its wall-clock limit, which host speed does
        # not stretch, so only finished jobs are scaled
        scaled = stats(lambda r: r.seconds if r.status == "timeout" else r.seconds * scale)
        metrics = {name: (value, "s") for name, value in zip(names, scaled)}
        metrics["setup_s"] = (setup * scale, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB")
        details.update(p90_samples=len(measured), raw=raw, probe_s=probe, scale=scale,
                       probes=len(warm + measured))
    return {"correct": not any(r.status == "wrong" for r in every),
            "attempted": len(measured), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "details": details}


def report(result: dict) -> None:
    d = result["details"]
    m = d["machine"]
    print(f"workload {d['workload']}  seed {d['seed']}  {d['jobs']} jobs x "
          f"{d['passes']} timed pass(es)  nproc {m['nproc']}  python {m['python']}"
          f"  numpy {m['numpy']}")
    by_key = {}
    for r in d["job_times"]:
        by_key.setdefault(r.key, []).append(r)
    for key in d["job_keys"]:
        rs = by_key.get(key, [])
        if rs:
            print(f"  job {statistics.median(r.seconds for r in rs):9.4f} s  "
                  f"{rs[-1].status:7s}  {key}")
    if "summary" in d:
        total = d["traced_pass_s"]
        print(f"  traced pass {total:.4f} s, {d['spans']} spans"
              + (f" -> {d['span_file']}" if "span_file" in d else ""))
        print(f"  {'span':44s} {'calls':>8s} {'s':>9s} {'self_s':>9s} {'self share':>10s}")
        layers = {}
        for name, v in d["summary"].items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v["self_s"]
            if v["calls"]:
                print(f"  {name:44s} {v['calls']:8d} {v['s']:9.4f} {v['self_s']:9.4f}"
                      f" {v['self_s'] / total:10.1%}")
        print("  layer self shares of the traced pass: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        for name in ("laxflow.rk4_steps", "trace.overhead_ratio"):
            mv = result["metrics"][name]
            print(f"  {name} = {mv['value']:.6g} {mv['unit']}")
    else:
        for name, mv in result["metrics"].items():
            raw = d["raw"].get(name)
            print(f"  {name} = {mv['value']:.6g} {mv['unit']}"
                  + (f"   (raw {raw:.6g} s)" if raw is not None else ""))
        print(f"  job_s.p90 over {d['p90_samples']} job samples")
        print(f"  times scaled by {d['scale']:.4f} = {PROBE_REF_S * 1e3:g} ms / median "
              f"speed probe {d['probe_s'] * 1e3:.3f} ms ({d['probes']} probes)")
    print(f"  failed_ratio = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.4f}")
    reasons = Counter((r.key, r.status, r.reason) for r in d["failures"])
    for (key, status, reason), count in reasons.items():
        print(f"  failed x{count}: {key}: {status}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not (SRC / "laxkit" / "cli.py").is_file():
        print(f"error: no laxkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    span_file = None
    if args.trace:
        WORK.mkdir(exist_ok=True)
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.json.gz"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          span_file=span_file)
    report(result)
    result.pop("details")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
