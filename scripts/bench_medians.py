"""Fold perfbench/run.py results into a BENCH_<n>.json of medians and quartiles.

    python3 scripts/bench_medians.py OUT.json WORKLOAD PARENT.jsonl CHANGE.jsonl \
        [WORKLOAD PARENT.jsonl CHANGE.jsonl ...]

Each .jsonl file holds the last stdout line of `perfbench/run.py` runs, one
JSON object per line, all on one workload: the runs of the parent commit in
PARENT.jsonl, those of the change in CHANGE.jsonl, in the order they ran.
The i-th parent run and the i-th change run form pair i, so both files
must hold the same number of runs.  OUT.json maps machine -> workload ->
metric -> {"parent": median, "change": median, "parent_quartiles": [q1, q3],
"change_quartiles": [q1, q3], "change_wins": pairs in which the change
read lower}, plus workload -> "pairs"; the machine is this host (CPU count
and architecture, Python and numpy versions).  Every metric of
BENCHMARK.json is better lower, and a tie counts for neither side.
An existing OUT.json is updated, not replaced, so
workloads measured at different times can share one file.  Refuses results
with failed jobs or a wrong output.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path


def machine() -> str:
    import numpy
    return (f"{os.cpu_count()} CPU {platform.machine()}, python "
            f"{platform.python_version()}, numpy {numpy.__version__}")


def load_runs(path: str) -> list:
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    if not runs:
        raise SystemExit(f"error: no runs in {path}")
    for run in runs:
        if run["correct"] is not True or run["failed"]:
            raise SystemExit(f"error: {path} holds a run with failed jobs "
                             "or a wrong output")
    return runs


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list, change: list) -> dict:
    """Per metric both sides' medians and quartiles, and the number of
    pairs (parent[i], change[i]) that the change won."""
    out = {"pairs": len(parent)}
    for name in parent[0]["metrics"]:
        if name not in change[0]["metrics"]:
            continue
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        out[name] = {
            "parent": statistics.median(before),
            "change": statistics.median(after),
            "parent_quartiles": quartiles(before),
            "change_quartiles": quartiles(after),
            "change_wins": sum(a < b for b, a in zip(before, after)),
        }
    return out


def main(argv: list) -> int:
    if len(argv) < 4 or (len(argv) - 1) % 3:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    table = json.loads(out.read_text()) if out.exists() else {}
    host = table.setdefault(machine(), {})
    for i in range(1, len(argv), 3):
        workload, parent, change = argv[i:i + 3]
        before, after = load_runs(parent), load_runs(change)
        if len(before) != len(after):
            raise SystemExit(f"error: {parent} holds {len(before)} runs and "
                             f"{change} {len(after)}; pair i is the i-th of each")
        host[workload] = compare(before, after)
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
