"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload jacobi --seeds 1 2 3 4 5

Each run is a separate `run.py --trace 0` process with BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the interquartile distance as a share of
the median, and that share against a third of the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        res = json.loads(done.stdout.strip().splitlines()[-1])
        for name, mv in res["metrics"].items():
            values[name].append(mv["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"  {m['name']:12s} median {med:.4f} {m['unit']}  q1 {q1:.4f}  q3 {q3:.4f}"
              f"  spread {share:.2%}  bound {m['bound']:.0%}"
              f"  {'ok' if share < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
