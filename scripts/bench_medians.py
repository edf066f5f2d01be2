"""Fold perfbench/run.py results into a BENCH_<n>.json of medians.

    python3 scripts/bench_medians.py OUT.json WORKLOAD PARENT.jsonl CHANGE.jsonl \
        [WORKLOAD PARENT.jsonl CHANGE.jsonl ...]

Each .jsonl file holds the last stdout line of `perfbench/run.py` runs, one
JSON object per line, all on one workload: the runs of the parent commit in
PARENT.jsonl, those of the change in CHANGE.jsonl.  OUT.json maps
machine -> workload -> metric -> {"parent": median, "change": median}, the
machine being this host (CPU count and architecture, Python and numpy
versions).  An existing OUT.json is updated, not replaced, so workloads
measured at different times can share one file.  Refuses results with
failed jobs or a wrong output.
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


def medians(runs: list) -> dict:
    names = runs[0]["metrics"]
    return {name: statistics.median(r["metrics"][name]["value"] for r in runs)
            for name in names}


def main(argv: list) -> int:
    if len(argv) < 4 or (len(argv) - 1) % 3:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    table = json.loads(out.read_text()) if out.exists() else {}
    host = table.setdefault(machine(), {})
    for i in range(1, len(argv), 3):
        workload, parent, change = argv[i:i + 3]
        before, after = medians(load_runs(parent)), medians(load_runs(change))
        host[workload] = {name: {"parent": before[name], "change": after[name]}
                          for name in before if name in after}
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
