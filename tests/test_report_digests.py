"""Byte pins of the painleve reports.

The benchmark's seven painleve jobs are checked against the digests in
perfbench/digests.json (read here, never written), and the shipped system
files run with `--file --order 6` against tests/painleve_file_order6.json.
The order-30 reports of the six builtins take about 20 s; CI checks them
with `sha256sum -c tests/painleve_order30.sha256`.
"""
import hashlib
import json
from pathlib import Path

import pytest

from laxkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "src" / "laxkit" / "systems"
BENCH_DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())["painleve"]
FILE_DIGESTS = json.loads((Path(__file__).with_name("painleve_file_order6.json")).read_text())


def _report_digest(out: Path, argv) -> str:
    assert main([*argv, "--out", str(out)]) == 0
    (path,) = out.glob("painleve_*.json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("job", sorted(BENCH_DIGESTS))
def test_benchmark_painleve_report_bytes(tmp_path, job):
    # a job is "name" or "name --order N", as perfbench/workloads.py runs it
    argv = ["painleve", "--builtin", *job.split()]
    assert _report_digest(tmp_path, argv) == BENCH_DIGESTS[job]


@pytest.mark.parametrize("name", sorted(FILE_DIGESTS))
def test_system_file_painleve_report_bytes(tmp_path, name):
    argv = ["painleve", "--file", str(SYSTEMS / name), "--order", "6"]
    assert _report_digest(tmp_path, argv) == FILE_DIGESTS[name]


def test_every_system_file_is_pinned():
    assert sorted(p.name for p in SYSTEMS.glob("*.ivf")) == sorted(FILE_DIGESTS)
