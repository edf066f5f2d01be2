"""Smoke test of the benchmark itself: one tiny pass of each workload.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that job outputs are byte-identical with tracing on and off, that tracing
leaves no binding patched, that a time-limited job is counted as failed,
and that a corrupted report is caught.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402


# the tiny jobs finish well inside this; the item-4 input does not
LIMIT_S = 2.0


def expect(cond, msg):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {msg}")


def tiny_jobs(workload: str):
    jobs = workloads.GENERATORS[workload](0)
    keep = {"painleve": lambda j: j.key == "henon-heiles",
            "lax-flow": lambda j: j.key.startswith(("--builtin kvm ",
                                                     "--builtin toda-periodic -N 3 ")),
            "jacobi": lambda j: j.key.startswith("N=2 ") or "item-4" in j.key}[workload]
    return [j for j in jobs if keep(j)]


def bindings():
    """Every global of every laxkit module, by identity."""
    return {(name, attr): id(value) for name, mod in sys.modules.items()
            if name == "laxkit" or name.startswith("laxkit.")
            for attr, value in vars(mod).items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    import laxkit.cli  # noqa: F401
    import laxkit.acceptance  # noqa: F401
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    try:
        for workload in workloads.GENERATORS:
            jobs = tiny_jobs(workload)
            expect(jobs, f"{workload}: no tiny jobs")
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                res = run.run_workload(workload, 0, 0.0, trace, jobs=jobs,
                                       limit_s=LIMIT_S, setup_repeats=1)
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
                expect(res["correct"], f"{workload}: wrong output {res['details']['failures']}")
                hung = sum("item-4" in j.key for j in jobs)
                expect(res["failed"] == hung * res["details"]["passes"],
                       f"{workload}: failures {res['details']['failures']}")
                expect(all(r.status == "timeout" for r in res["details"]["failures"]),
                       f"{workload}: unexpected failure kind")

            before = bindings()
            plain = run.run_pass(jobs, work, LIMIT_S, keep_output=True)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = run.run_pass(jobs, work, LIMIT_S, keep_output=True)
            finally:
                tr.uninstall()
            expect(bindings() == before, "tracer left a binding patched")
            expect(tr.spans, f"{workload}: traced pass recorded no spans")
            for p, t in zip(plain, traced):
                expect(p.status == t.status, f"{p.key}: {p.status} vs {t.status} traced")
                expect(p.output == t.output, f"{p.key}: output differs under tracing")
            print(f"smoke: {workload}: {len(jobs)} jobs, {len(tr.spans)} spans, ok")

        job = tiny_jobs("painleve")[0]
        out = work / "corrupt"
        expect(run.run_job(job, out, 60.0).status == "ok", "painleve job failed")
        report = next(out.glob("painleve_*.json"))
        report.write_text(report.read_text().replace('"alpha"', '"beta"', 1))
        try:
            job.check(out)
        except workloads.WrongOutput:
            pass
        else:
            expect(False, "a corrupted painleve report passed its check")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
