"""Byte pins of the painleve reports.

The benchmark's seven painleve jobs are checked against the digests in
perfbench/digests.json (read here, never written), and the shipped system
files run with `--file --order 6` against tests/painleve_file_order6.json.
The order-30 reports of the six builtins take about 20 s; CI checks them
with `sha256sum -c tests/painleve_order30.sha256`, and the report of
`--file kvm5.ivf --order 12` with tests/painleve_file_order12.sha256.
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


def test_system_file_reports_do_not_depend_on_the_symbol_table(tmp_path):
    # a monomial key's fields are assigned in the order symbols are first
    # seen, and every sort of keys sorts their tuple form.  In a fresh
    # process the constant A gets its field before any variable, and every
    # other symbol these reports use gets one in reverse alphabetical
    # order: the reports are still the pinned bytes
    import os
    import subprocess
    import sys
    names = sorted([f"{v}{i}" for v in "xyzpq" for i in range(1, 6)]
                   + [f"c{i}" for i in range(1, 13)] + [f"_w{i}" for i in range(5)],
                   reverse=True)
    files = ["henon_heiles.ivf", "hh5.ivf", "rdg.ivf"]
    probe = f"""
import hashlib, json, pathlib
from laxkit.exactalg.poly import shift
from laxkit.cli import main
for n in {['A'] + names!r}:
    shift(n)
out = {{}}
for f in {files!r}:
    d = pathlib.Path({str(tmp_path)!r}) / f
    assert main(["painleve", "--file", str(pathlib.Path({str(SYSTEMS)!r}) / f),
                 "--order", "6", "--out", str(d)]) == 0
    (report,) = d.iterdir()
    out[f] = hashlib.sha256(report.read_bytes()).hexdigest()
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {f: FILE_DIGESTS[f] for f in files}
