import json
import math
import os

import pytest

from laxkit.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_painleve_builtin_report(tmp_path):
    code = run(tmp_path, "painleve", "--builtin", "henon-heiles", "--order", "8")
    assert code == 0
    path = tmp_path / "painleve_henon-heiles.json"
    payload = json.loads(path.read_text())
    assert payload["laxkit_report"] == 1
    bal = payload["balances"][0]
    assert bal["series"]["y2"]["-2"] == "-3/8"
    assert bal["series"]["y2"]["4"] == "-gamma"
    assert bal["parameter_count"] == {"explicit": 3, "with_time_origin": 4}
    assert "constraint" in bal and bal["constraint"]["curve"]


def test_painleve_bind_constant(tmp_path):
    code = run(tmp_path, "painleve", "--builtin", "henon-heiles",
               "--order", "8", "--bind", "A=1")
    assert code == 0
    payload = json.loads((tmp_path / "painleve_henon-heiles.json").read_text())
    y2 = payload["balances"][0]["series"]["y2"]
    assert y2["0"] == "-1/2"        # -A/2 with A bound to 1
    assert y2["2"] == "-2/5"


@pytest.mark.parametrize("builtin, constants", [("rdg", []),
                                                 ("henon-heiles", ["A"])])
def test_painleve_bind_of_no_constant_exits_1(tmp_path, capsys, builtin,
                                              constants):
    code = run(tmp_path, "painleve", "--builtin", builtin, "--bind", "zzz=1")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --bind zzz: {builtin} has no symbolic constant 'zzz' "
        f"(its constants: {constants})\n")
    assert os.listdir(tmp_path) == []


def test_painleve_unknown_builtin_message(tmp_path, capsys):
    assert run(tmp_path, "painleve", "--builtin", "nope") == 1
    assert capsys.readouterr().err == (
        "error: unknown builtin system 'nope' (have ['harmonic', "
        "'henon-heiles', 'hh5', 'kvm', 'rdg', 'rdg5'])\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, option", [
    (["painleve", "--builtin", "rdg", "--bind", "A=1/0"], "--bind A"),
    (["jacobi", "-a", "1/0,1", "-b", "0,0"], "-a"),
    (["jacobi", "-a", "1,1", "-b", "0,1/0"], "-b"),
    (["jacobi", "-a", "1,1", "-b", "0,0", "--a0", "1/0"], "--a0"),
], ids=["bind", "a", "b", "a0"])
def test_zero_denominator_exits_1_naming_the_option(tmp_path, capsys, argv,
                                                    option):
    assert run(tmp_path, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: '1/0' has a zero denominator\n"
    assert os.listdir(tmp_path) == []


def test_painleve_missing_file_exits_1_no_output(tmp_path):
    code = run(tmp_path, "painleve", "--file", str(tmp_path / "absent.ivf"))
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_painleve_file_directory_exits_1_no_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["painleve", "--file", str(tmp_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: not a regular file: {tmp_path}\n"
    assert not out.exists()


def test_painleve_unreadable_file_exits_1_no_output(tmp_path, capsys,
                                                    monkeypatch):
    # an OSError on reading (here a refused open) is a usage error
    import laxkit.cli as cli
    src = tmp_path / "sys.ivf"
    src.write_text("system s\nvars z\neq z = z^2\n")

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "parse_system_file", refuse)
    out = tmp_path / "out"
    assert main(["painleve", "--file", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {src}: Permission denied\n")
    assert not out.exists()


def test_painleve_bind_twice_exits_1_naming_the_constant(tmp_path, capsys):
    code = run(tmp_path, "painleve", "--builtin", "henon-heiles",
               "--bind", "A=1", "--bind", "A=2")
    assert code == 1
    assert capsys.readouterr().err == "error: --bind A: given more than once\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("order", ["0", "-2"])
def test_painleve_nonpositive_order_exits_1_no_output(tmp_path, order):
    code = run(tmp_path, "painleve", "--builtin", "henon-heiles",
               "--order", order)
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_painleve_error_creates_no_out_dir(tmp_path):
    out = tmp_path / "new" / "dir"
    code = main(["painleve", "--builtin", "henon-heiles", "--order", "0",
                 "--out", str(out)])
    assert code == 1
    assert not (tmp_path / "new").exists()


def test_check_creates_no_out_dir(tmp_path):
    assert run(tmp_path / "new", "check", "--only", "dims") == 0
    assert not (tmp_path / "new").exists()


# options each subcommand used to accept and ignore, and the kvm5 alias
@pytest.mark.parametrize("argv", [
    ["check", "--only", "dims", "--format", "csv"],
    ["check", "--only", "dims", "--seed", "1"],
    ["check", "--only", "dims", "--bind", "A=1"],
    ["painleve", "--builtin", "harmonic", "--format", "csv"],
    ["painleve", "--builtin", "harmonic", "--seed", "1"],
    ["flow", "--builtin", "kvm", "--t-end", "0.01", "--format", "csv"],
    ["flow", "--builtin", "kvm", "--t-end", "0.01", "--bind", "A=1"],
    ["jacobi", "-a", "1,2", "-b", "0,0", "--seed", "1"],
    ["jacobi", "-a", "1,2", "-b", "0,0", "--bind", "A=1"],
    ["flow", "--builtin", "kvm5"],
    ["painleve", "--builtin", "kvm5"],
], ids=["check-format", "check-seed", "check-bind", "painleve-format",
        "painleve-seed", "flow-format", "flow-bind", "jacobi-seed",
        "jacobi-bind", "flow-kvm5", "painleve-kvm5"])
def test_removed_options_exit_1_writes_nothing(tmp_path, argv):
    assert run(tmp_path, *argv) == 1
    assert os.listdir(tmp_path) == []


def test_painleve_pattern_budget_exits_1_no_output(tmp_path, capsys):
    # 5 equations of 4 monomials: 759375 dominant-support patterns
    src = tmp_path / "wide.ivf"
    src.write_text("system wide\nvars z1 z2 z3 z4 z5\n" + "".join(
        f"eq z{i} = " + " + ".join(f"z{k}^2" for k in range(1, 6) if k != i)
        + "\n" for i in range(1, 6)))
    out = tmp_path / "out"
    code = main(["painleve", "--file", str(src), "--out", str(out)])
    assert code == 1
    assert "759375 dominant-support patterns" in capsys.readouterr().err
    assert not out.exists()


def test_painleve_exponent_over_the_key_field_exits_3_no_output(tmp_path, capsys):
    # x^40000 squares x^16384 into x^32768, one past the largest exponent a
    # monomial key's field holds (exactalg.poly.LIMIT)
    src = tmp_path / "steep.ivf"
    src.write_text("system steep\nvars x y\neq x = y\neq y = x^40000\n")
    out = tmp_path / "out"
    assert main(["painleve", "--file", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("error: numerical breakdown: exponent 32768 of 'x' is over "
                   "the limit 32767 of a monomial key field\n")
    assert not out.exists()


def test_painleve_solver_branch_budget_exits_1_no_output(tmp_path, capsys,
                                                         monkeypatch):
    from laxkit import painleve as pv
    solve = pv.solve_poly_system
    monkeypatch.setattr(pv, "solve_poly_system",
                        lambda *a, **kw: solve(*a, **{**kw, "max_branches": 5}))
    out = tmp_path / "out"
    assert main(["painleve", "--builtin", "kvm", "--out", str(out)]) == 1
    assert "error: polynomial system solver branch budget exceeded" in \
        capsys.readouterr().err
    assert not out.exists()


def test_jacobi_bisection_cap_exits_1_no_output(tmp_path, capsys, monkeypatch):
    from laxkit.exactalg import roots
    monkeypatch.setattr(roots, "_bisection_cap", lambda f: 2)
    out = tmp_path / "out"
    # a free lattice: its closed gaps are double roots, which no seed
    # certifies, so they take the Sturm route and meet its cap
    assert main(["jacobi", "-a", "1,1,1", "-b", "0,0,0",
                 "--out", str(out)]) == 1
    assert "error: root refinement: no root settled within 2 bisection steps" \
        in capsys.readouterr().err
    assert not out.exists()


def test_jacobi_seed_walk_that_does_not_close_falls_back(tmp_path, monkeypatch):
    from laxkit.exactalg import roots
    argv = ["jacobi", "-a", "1,2,3", "-b", "1/2,-1/2,0"]
    assert run(tmp_path / "seeded", *argv) == 0
    # no walk step at all: only a seed that is itself a root is certified
    monkeypatch.setattr(roots, "_WALK_STEPS", 0)
    calls, real = [], roots.real_roots
    monkeypatch.setattr(roots, "real_roots", lambda p: calls.append(p) or real(p))
    assert run(tmp_path / "sturm", *argv) == 0
    assert len(calls) == 3
    assert (tmp_path / "sturm" / "jacobi_report.json").read_bytes() == \
        (tmp_path / "seeded" / "jacobi_report.json").read_bytes()


def test_painleve_obstruction_exit_code(tmp_path):
    src = tmp_path / "damped.ivf"
    src.write_text("system damped\nvars z1 z2\neq z1 = z2\n"
                   "eq z2 = 6*z1^2 + z2\n")
    code = run(tmp_path, "painleve", "--file", str(src), "--order", "8")
    assert code == 2
    payload = json.loads((tmp_path / "painleve_damped.json").read_text())
    assert any("obstruction" in b for b in payload["balances"])


def test_painleve_deterministic_output(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d in (d1, d2):
        d.mkdir()
        assert main(["painleve", "--builtin", "rdg", "--order", "6",
                     "--out", str(d)]) == 0
    assert (d1 / "painleve_rdg.json").read_bytes() == \
        (d2 / "painleve_rdg.json").read_bytes()


def test_flow_toda(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "toda-periodic", "-N", "3",
               "--t-end", "1.0")
    assert code == 0
    payload = json.loads((tmp_path / "flow_toda-periodic.json").read_text())
    assert payload["trace_drift"] < 1e-8
    assert payload["pass"] is True
    lines = (tmp_path / "flow_toda-periodic.csv").read_text().splitlines()
    assert lines[0].startswith("t,a1")
    assert len(lines) > 2


def test_flow_kvm_invariants(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "kvm", "--tol", "1e-9")
    assert code == 0
    payload = json.loads((tmp_path / "flow_kvm.json").read_text())
    assert max(payload["invariant_drift"].values()) < 1e-9


def test_flow_rejects_bad_dt(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "toda-periodic", "--dt", "0")
    assert code == 1


def test_flow_gnuplot_script(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "toda-periodic", "-N", "3",
               "--t-end", "0.1", "--gnuplot")
    assert code == 0
    # every file is renamed into place: no temp file is left beside them
    assert sorted(os.listdir(tmp_path)) == ["flow_toda-periodic.csv",
                                            "flow_toda-periodic.gp",
                                            "flow_toda-periodic.json"]


def test_jacobi_report_and_stieltjes(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,1", "-b", "0,0", "--a0", "1",
               "--check-stieltjes")
    assert code == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["stieltjes_check"]["pass"] is True
    assert payload["stieltjes_check"]["max_error"] < 1e-6
    assert payload["stable_bands"] == [[-2.0, 0.0], [0.0, 2.0]]


def test_jacobi_interlacing_table(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,2,3", "-b", "0.5,-0.5,0")
    assert code == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["interlacing_ok"] is True
    assert len(payload["stable_bands"]) == 3
    assert len(payload["auxiliary_spectrum"]) == 2


@pytest.fixture(scope="module")
def workloads():
    import importlib.util
    import sys
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("a, b", [
    ("1,2", "0,0"),
    ("3/2,2/3,5/4", "1/3,-1/2,0"),
    ("1,1,1,1", "0,0,0,0"),
    ("7/5,1/2,2,3/4,9/8", "-1,1/7,0,2/3,-5/6"),
])
def test_jacobi_discriminant_matches_transfer_matrix_trace(tmp_path, workloads, a, b):
    # the benchmark's Floquet check: alpha tr(T_N ... T_1), computed from the
    # transfer matrices rather than from laxkit's determinant expansion
    from fractions import Fraction
    floquet = workloads.floquet_discriminant
    assert run(tmp_path, "jacobi", "-a=" + a, "-b=" + b) == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    aq = [Fraction(x) for x in a.split(",")]
    bq = [Fraction(x) for x in b.split(",")]
    assert [Fraction(c) for c in payload["P_ascending"]] == floquet(aq, bq)


def test_jacobi_rejects_zero_alpha(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,0", "-b", "0,0")
    assert code == 1


def test_jacobi_toda_csv(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,0.8,1.3", "-b", "0.2,-0.1,0.4",
               "--toda-t-end", "0.2")
    assert code == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["toda"]["interlacing_ok"] is True
    assert (tmp_path / "jacobi_toda.csv").exists()


def test_check_subset(tmp_path):
    code = run(tmp_path, "check", "--only", "dims")
    assert code == 0


def test_check_tight_tolerance_fails(tmp_path):
    code = run(tmp_path, "check", "--only", "jacobi", "--tol", "1e-15")
    assert code == 1


def test_painleve_hh5_specializes(tmp_path):
    code = run(tmp_path, "painleve", "--builtin", "hh5")
    assert code == 0
    payload = json.loads((tmp_path / "painleve_hh5.json").read_text())
    bal = payload["balances"][0]
    assert bal.get("specialized") == {"alpha": "1"}
    assert bal["parameter_count"]["explicit"] == 4   # 3 resonances + alpha


def test_painleve_harmonic_no_weights(tmp_path):
    code = run(tmp_path, "painleve", "--builtin", "harmonic")
    assert code == 0
    payload = json.loads((tmp_path / "painleve_harmonic.json").read_text())
    assert payload["weights"] == []
    assert payload["balances"] == []


def test_painleve_kvm_five_principal_families(tmp_path):
    code = run(tmp_path, "painleve", "--builtin", "kvm")
    assert code == 0
    # the report is named after the system's own declared name
    payload = json.loads((tmp_path / "painleve_kvm5.json").read_text())
    assert len(payload["balances"]) == 5
    for bal in payload["balances"]:
        assert bal["parameter_count"]["with_time_origin"] == 4
        assert [j for j, _ in bal["resonance_steps"]] == [1, 2, 5]


def test_jacobi_toda_csv_has_band_edges(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0",
               "--toda-t-end", "0.1")
    assert code == 0
    header = (tmp_path / "jacobi_toda.csv").read_text().splitlines()[0]
    assert "xi1" in header and "xi4" in header and "sigma1" in header


def test_jacobi_band_table_csv(tmp_path):
    code = run(tmp_path, "jacobi", "-a", "1,2,3", "-b", "0.5,-0.5,0",
               "--format", "csv")
    assert code == 0
    lines = (tmp_path / "jacobi_bands.csv").read_text().splitlines()
    assert lines[0] == "kind,lo,hi"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["stable", "gap", "stable", "gap", "stable"]


def test_flow_euler_arnold(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "euler-arnold", "-N", "4",
               "--t-end", "0.5")
    assert code == 0
    payload = json.loads((tmp_path / "flow_euler-arnold.json").read_text())
    assert payload["trace_drift"] < 1e-8


def test_flow_neumann(tmp_path):
    code = run(tmp_path, "flow", "--builtin", "neumann", "-N", "3",
               "--t-end", "0.5")
    assert code == 0
    payload = json.loads((tmp_path / "flow_neumann.json").read_text())
    assert payload["trace_drift"] < 1e-8
    assert payload["branch_count_with_infinity"] == 6
    assert len(payload["branch_points"]) == 5


def test_unknown_flow_builtin(tmp_path, capsys):
    assert run(tmp_path, "flow", "--builtin", "wat") == 1
    assert capsys.readouterr().err == (
        "error: unknown flow builtin 'wat' "
        "(have euler-arnold, kvm, neumann, toda-periodic)\n")
    assert os.listdir(tmp_path) == []


def test_flow_nan_drift_exit_3_writes_nothing(tmp_path, capsys, monkeypatch):
    # trace powers that overflow at every sample give inf - inf = NaN: the
    # drift is NaN, and the report that would hold it is refused
    from laxkit import laxflow as lf
    monkeypatch.setattr(lf, "trace_powers", lambda P, h, k_max: [math.inf] * k_max)
    assert run(tmp_path, "flow", "--builtin", "euler-arnold", "--t-end", "0.01") == 3
    assert "is not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_jacobi_lattice_blowup_exit_3_writes_nothing(tmp_path, capsys):
    code = run(tmp_path, "jacobi", "-a", "1,2,3", "-b", "0,1,2",
               "--format", "csv", "--toda-t-end", "20", "--dt", "2")
    assert code == 3
    assert "numerical breakdown" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_jacobi_vanishing_fraction_denominator_exit_3(tmp_path, capsys,
                                                      monkeypatch):
    from laxkit import jacobispec as js

    def collapse(*args, **kwargs):
        raise ZeroDivisionError("continued fraction denominator vanished at level 7")

    monkeypatch.setattr(js, "gamma_fraction", collapse)
    code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0", "--format", "csv",
               "--check-stieltjes")
    assert code == 3
    assert "level 7" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# sha256 of jacobi_report.json, recorded before exact root finding moved to
# the integer Sturm kernel; any change to a report byte shows here.  The
# period-3 input has a square-free factor with both rational and irrational
# branch points, the period-5 one only irrational ones.  The period-3
# digest was re-recorded when float lattice spectra moved from polynomial
# roots to symmetric eigenvalues: its one changed field is the roundoff-level
# toda.band_edge_drift (8.193445921733655e-14 -> 8.215650382226158e-14).
# The period-5 digest was re-recorded when atom masses moved to the
# Dirichlet identity: atoms[0] and atoms[1] move by -1.1e-16 and 5.6e-16,
# and stieltjes_check.max_error by 4.07e-15 -> 3.59e-15.  Both digests were
# re-recorded when the band density became a product over the branch points
# and the auxiliary eigenvalues, with the quadrature jacobian taken at the
# rounded node; only total_mass and stieltjes_check.max_error moved:
# period 3, 0.9999999999987537 -> 0.9999999999999986 and 7.03e-13 ->
# 9.35e-16; period 5, 2.7777777777777732 -> 2.7777777777777737 (25/9 =
# 2.7777777777777777) and 3.59e-15 -> 3.15e-15.  The period-5 digest was
# re-recorded when the interior determinant Lambda(sigma_j) of the atom
# masses moved from Horner's rule on its float coefficients to the
# three-term recurrence at the point: atoms[0] and atoms[1] move by
# -4.4e-16 and 3.3e-16, and stieltjes_check.max_error by 3.15e-15 ->
# 3.13e-15.
JACOBI_GOLDEN = [
    (["-a=1,1,1", "-b=0,0,1/2", "--check-stieltjes", "--toda-t-end", "0.5"],
     "fbffdbd1246cd31a2acedbe922870639ebe0b180acf6ab6d8e099268c4d86312"),
    (["-a=2/3,5/3,4/3,4/3,5/3", "-b=1/3,2/3,2/3,1/3,2/3", "--check-stieltjes"],
     "0cb5d50bb6a0bdbd44c4c67bd92555f69c7fc53eb58262631680ec3deed73f83"),
]


@pytest.mark.parametrize("argv,digest", JACOBI_GOLDEN,
                         ids=["period3", "period5"])
def test_jacobi_report_golden_digest(tmp_path, argv, digest):
    import hashlib
    assert run(tmp_path, "jacobi", *argv) == 0
    data = (tmp_path / "jacobi_report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of the Jacobi outputs JACOBI_GOLDEN does not cover: the lattice
# CSV of its period-3 argv, and the report and lattice CSV of an exact
# period-7 input with the Stieltjes check and a unit-time flow.  Recorded
# before the lattice flow, the band quadrature and gamma_fraction moved from
# numpy scalars to Python floats, so they guard those bit for bit.  The
# period-7 report was re-recorded when Lambda(sigma_j) moved to the
# recurrence at the point: the atom masses move by at most 3.9e-16
# (atoms[3]), total_mass 1.7777777777777763 -> 1.7777777777777766 and
# stieltjes_check.max_error 8.88e-16 -> 7.22e-16; its CSV did not move.
JACOBI_LATTICE_GOLDEN = [
    (JACOBI_GOLDEN[0][0],
     {"jacobi_toda.csv":
      "2a6e41c82347ddb67c20d02483b49d0fc3b088a058f5a6244190c4a5b7be91f1"}),
    (["-a=1,3/2,1,2,1/2,1,4/3", "-b=0,1/2,-1,1/3,0,1,-1/2", "--check-stieltjes",
      "--toda-t-end", "1"],
     {"jacobi_report.json":
      "75dd5089b22f83e9ad2067231a5c17cef28e537531f779db479a7c3c9df49787",
      "jacobi_toda.csv":
      "f2e5f38136c3e9dae9abbe72c4a54f7acc1f6651a59bcc7641076f542ac55f60"}),
]


@pytest.mark.parametrize("argv,digests", JACOBI_LATTICE_GOLDEN,
                         ids=["period3", "period7"])
def test_jacobi_lattice_golden_digest(tmp_path, argv, digests):
    import hashlib
    assert run(tmp_path, "jacobi", *argv) == 0
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "above-cap"])
def test_jacobi_depth_cap(tmp_path, capsys, monkeypatch, over):
    from laxkit import jacobispec as js
    monkeypatch.setattr(js, "MAX_DEPTH", 8)
    code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0", "--check-stieltjes",
               "--depth", str(8 + over))
    if over:
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --depth 9 is above the cap jacobispec.MAX_DEPTH = 8\n")
        assert os.listdir(tmp_path) == []
    else:
        assert code == 0
        report = json.loads((tmp_path / "jacobi_report.json").read_text())
        assert report["stieltjes_check"]["depth"] == 8


@pytest.mark.parametrize("depth", ["100001", "1000000000"])
def test_jacobi_depth_above_max_depth_exit_1_writes_nothing(tmp_path, capsys,
                                                            time_limit, depth):
    # refused before any work: a depth of 10**9 would run for hours
    from laxkit import jacobispec as js
    assert js.MAX_DEPTH == 10 ** 5
    with time_limit(2):
        code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0",
                   "--check-stieltjes", "--depth", depth)
    assert code == 1
    assert "MAX_DEPTH = 100000" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--depth", "-3"], ["--depth", "0", "--check-stieltjes"]],
                         ids=["unchecked", "checked"])
def test_jacobi_depth_below_1_exit_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                    argv):
    # refused up front, with or without the Stieltjes check that reads it
    from laxkit import jacobispec as js

    def no_work(*args, **kwargs):
        raise AssertionError("spectral_data called")
    monkeypatch.setattr(js, "spectral_data", no_work)
    code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0", *argv)
    assert code == 1
    assert capsys.readouterr().err == f"error: --depth {argv[1]} is below 1\n"
    assert os.listdir(tmp_path) == []


def test_jacobi_period_above_cap_exit_1_writes_nothing(tmp_path, capsys,
                                                      time_limit):
    # refused before any work: period 256 takes about a minute
    from laxkit import cli
    assert cli.JACOBI_MAX_PERIOD == 128
    n = cli.JACOBI_MAX_PERIOD + 1
    with time_limit(2):
        code = run(tmp_path, "jacobi", "-a=" + ",".join(["1"] * n),
                   "-b=" + ",".join(["0"] * n), "--check-stieltjes",
                   "--toda-t-end", "1")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: period 129 is above the cap cli.JACOBI_MAX_PERIOD = 128\n")
    assert os.listdir(tmp_path) == []


def test_jacobi_negative_atom_mass_exit_3_writes_nothing(tmp_path, capsys,
                                                        monkeypatch):
    # a negated interior determinant turns the one atom of -a 1,2 (mass 3)
    # negative: a float breakdown of the measure, not an input error
    from laxkit import jacobispec as js
    real = js._monic_at
    monkeypatch.setattr(js, "_monic_at",
                        lambda diag, off, x: [-y for y in real(diag, off, x)])
    code = run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical breakdown: negative atom mass -")
    assert err.endswith(" at sigma=0.0\n")
    assert os.listdir(tmp_path) == []


def test_flow_blowup_exit_3_writes_nothing(tmp_path, capsys):
    code = run(tmp_path, "flow", "--builtin", "toda-periodic", "--t-end", "20",
               "--dt", "4")
    assert code == 3
    assert "blew up" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["-N", "5", "--t-end", "100", "--dt", "0.5", "--seed", "3"],
    ["-N", "3", "--t-end", "100", "--dt", "1"],
    ["-N", "3", "--t-end", "1e300", "--dt", "1e298"],
])
def test_flow_spill_off_the_window_exit_3_writes_nothing(tmp_path, capsys, argv):
    # steps this large move euler-arnold's h^1 block off diag(alpha) by
    # roundoff, so [-diag(beta), A_1] spills into h^2: a numerical
    # breakdown of a well-formed builtin, not an input error; overflow on
    # the way prints no numpy warning
    assert run(tmp_path, "flow", "--builtin", "euler-arnold", *argv) == 3
    assert capsys.readouterr().err == ("error: numerical breakdown: commutator "
                                       "spills h^2 outside the declared window\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["flow", "--builtin", "toda-periodic", "--t-end", "0.01", "--dt", "0.3"],
    ["flow", "--builtin", "toda-periodic", "--t-end", "1", "--dt", "0.3"],
    ["flow", "--builtin", "kvm", "--t-end", "1", "--dt", "0.3"],
    ["flow", "--builtin", "toda-periodic", "--t-end", "inf"],
    ["jacobi", "-a", "1,2,3", "-b", "0,1,2", "--toda-t-end", "1", "--dt", "0.3"],
    ["jacobi", "-a", "1,2,3", "-b", "0,1,2", "--toda-t-end", "-1"],
], ids=["flow-zero-steps", "flow-short", "flow-kvm", "flow-infinite",
        "jacobi-short", "jacobi-negative"])
def test_step_must_divide_horizon_exit_1_writes_nothing(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert "does not divide" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# sha256 of flow_<builtin>.csv and .json (and .gp).  The first two were
# recorded before the flows moved on to the one rk4 kernel and the
# array-backed MatrixPencil, the next two before the stacked commutator and
# the pencil-free B factories: N = 6 runs a larger stacked matmul, and the
# rank-2 B of neumann has a narrower h-window than its pencil.  The --seed 7
# entries were recorded before the Lax builtins moved into one table
# (laxflow.LAX_FLOWS): they pin each builtin's seeded start, which the
# benchmark draws at random seeds, at another N, and the gnuplot script.
FLOW_GOLDEN = [
    (["toda-periodic", "-N", "3"],
     {"csv": "07219e71c5b77d9f1f2b743ce2cf0123a7de335e29cd07367e1760ac29c499f5",
      "json": "4bce2534f67d8bb9d925b608d4d9d825fda33b0ccc90ed91a7f75ae0d7ffbd7a"}),
    (["euler-arnold", "-N", "4"],
     {"csv": "e41e23344248246428fc524b78c84006707c269335fd668cc4d5fbb09bdecbc4",
      "json": "44d829694b82af28c91fb5de64ea4343d778d540897a8733c20c1d6c9148c414"}),
    (["toda-periodic", "-N", "6"],
     {"csv": "eeacb9468ded2eba46349a87c89782a36a5e190b8ea6c4e1659cad69354969b7",
      "json": "2d68bf7e6e08461f010e0a97c05a641645a75561c5f7349a0f8f04b29629e79e"}),
    (["neumann", "-N", "4"],
     {"csv": "c9cd9160ace333bc611e81c011a185e09303f4d0683dc9def43220b9fc345c7b",
      "json": "bf465d4c2d0795e35a5afccc23d557595a74a391bdaf5561cd0b9492fca1ed6f"}),
    # the vector-field path: integrate_system's generated step, sampled at
    # the flow's stride as the Lax flows are
    (["kvm"],
     {"csv": "d1ea3ebae68044914df1e03c414587e25814de5a1084ff3bd985ba1d9aa2985d",
      "json": "bac481303d602e4ba77ddcbdf69ccdd479f647b590b609937c05134f15420833"}),
    (["toda-periodic", "-N", "5", "--seed", "7"],
     {"csv": "8d27af7b1204e6705304a65ffb698bbc9cd0ba601f9e41972320ecbe423c4de6",
      "json": "30148fd06c186ec575844ea3b000c94fec2cd390bd0bcb77c63bed7c9f7cae7b"}),
    (["euler-arnold", "-N", "3", "--seed", "7"],
     {"csv": "73a7c2aa251cb716d8aac89f69330e2a801321c4ffbe825b171fb18ac7325c84",
      "json": "37e002d29b681a025f7ccb2a571cd2b8328b10a57aa808ff92c5aa4f49a6f61d"}),
    (["neumann", "-N", "3", "--seed", "7"],
     {"csv": "f4d18421d93ef0ff327fc90bb927361fcfff18cc21be6012d32e1df87a0cc128",
      "json": "6a3163f57f762e3162b3f99344e803f1c3e6fcc4447f972929c91744b6e70efb"}),
    (["kvm", "--seed", "7"],
     {"csv": "ee31d44f1a0f22406175db2e1b8eded949f615300a5b40e66733d75bf53b2c85",
      "json": "025a006c11b00c89ec89a9d945ca6941de93fdaf27b6e4324fdd1b4931ca77c3"}),
    (["toda-periodic", "-N", "4", "--seed", "7", "--gnuplot"],
     {"gp": "8ed353443a34a9b6a7ce711c726818041e4fb7bc951faddf0a29a5285b36b52d",
      "csv": "a3be78c30f52249cd1a6b2abfafcac01bf1fbd91a7beb805253c9cdaae563a3a",
      "json": "801b94b4b816dc2dd9ecc54b682b64877958070785111a5ffa98595ca397bb8c"}),
]


@pytest.mark.parametrize("argv,digests", FLOW_GOLDEN,
                         ids=["toda-periodic", "euler-arnold",
                              "toda-periodic-N6", "neumann-N4", "kvm",
                              "toda-periodic-N5-seed7", "euler-arnold-N3-seed7",
                              "neumann-N3-seed7", "kvm-seed7",
                              "toda-periodic-N4-seed7-gnuplot"])
def test_flow_golden_digest(tmp_path, argv, digests):
    import hashlib
    assert run(tmp_path, "flow", "--builtin", *argv, "--t-end", "0.5") == 0
    name = argv[0]
    assert sorted(os.listdir(tmp_path)) == sorted(f"flow_{name}.{ext}" for ext in digests)
    for ext, digest in digests.items():
        data = (tmp_path / f"flow_{name}.{ext}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, ext


@pytest.mark.parametrize("t_end,rows", [("0.01", 11), ("0.047", 25), ("2.5", 21)])
def test_flow_samples_kvm_at_the_lax_flows_stride(tmp_path, t_end, rows):
    # every flow samples t = 0, each max(1, steps // 20)-th step and the last: 10,
    # 47 and 2500 steps of 1e-3
    for name in ("kvm", "toda-periodic"):
        assert run(tmp_path / name, "flow", "--builtin", name, "--t-end", t_end) == 0
        csv = (tmp_path / name / f"flow_{name}.csv").read_text().splitlines()
        assert len(csv) - 1 == rows, name


@pytest.mark.parametrize("builtin,n,minimum", [
    ("euler-arnold", 1, 3), ("euler-arnold", 2, 3), ("euler-arnold", 0, 3),
    ("neumann", 1, 2), ("neumann", 0, 2),
    ("toda-periodic", 1, 2), ("toda-periodic", -3, 2),
])
def test_flow_rejects_small_n_exit_1_writes_nothing(tmp_path, capsys, builtin,
                                                    n, minimum):
    # too small to be a valid pencil, or a flow that never moves and would
    # pass its drift test vacuously
    out = tmp_path / "out"
    assert main(["flow", "--builtin", builtin, "-N", str(n),
                 "--out", str(out)]) == 1
    assert f"needs -N >= {minimum}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "above-cap"])
def test_flow_n_cap(tmp_path, capsys, monkeypatch, over):
    from laxkit import cli
    monkeypatch.setattr(cli, "FLOW_MAX_N", 4)
    code = run(tmp_path, "flow", "--builtin", "toda-periodic", "-N", str(4 + over),
               "--t-end", "0.01")
    if over:
        assert code == 1
        assert capsys.readouterr().err == (
            "error: -N 5 is above the cap cli.FLOW_MAX_N = 4\n")
        assert os.listdir(tmp_path) == []
    else:
        assert code == 0
        header = (tmp_path / "flow_toda-periodic.csv").read_text().splitlines()[0]
        assert header.endswith(",b4")


def test_main_reuses_one_parser_and_looks_up_commands_at_call_time(tmp_path,
                                                                  monkeypatch):
    # main runs many times in one process: the parser is built once, no
    # option of one call reaches the next, and a command function rebound
    # after the first call is the one that runs
    from laxkit import cli
    built = cli.build_parser()
    before = cli.build_parser.cache_info()

    def y2(out):
        payload = json.loads((out / "painleve_henon-heiles.json").read_text())
        return payload["balances"][0]["series"]["y2"]

    hh = ("painleve", "--builtin", "henon-heiles", "--order", "8")
    assert run(tmp_path / "bound", *hh, "--bind", "A=1") == 0
    assert run(tmp_path / "free", *hh) == 0
    assert y2(tmp_path / "bound")["0"] == "-1/2"
    assert y2(tmp_path / "free")["0"] == "-1/2*A"

    jac = ("jacobi", "-a", "1,2", "-b", "0,0")
    assert run(tmp_path / "csv", *jac, "--format", "csv") == 0
    assert run(tmp_path / "json", *jac) == 0
    assert (tmp_path / "csv" / "jacobi_bands.csv").exists()
    assert os.listdir(tmp_path / "json") == ["jacobi_report.json"]

    seen = []

    def recorded(args):
        seen.append((args.a, args.format))
        return 0, []
    monkeypatch.setattr(cli, "cmd_jacobi", recorded)
    assert run(tmp_path / "patched", "jacobi", "-a", "3,4", "-b", "0,0") == 0
    assert seen == [("3,4", "json")]
    assert not (tmp_path / "patched").exists()

    after = cli.build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 5)
    assert cli.build_parser() is built


def test_flow_n_help_agrees_with_the_flow_table():
    # the parser does not import laxflow, so its -N help spells out each
    # row's min_n: "... >= 2 for toda-periodic and neumann, >= 3 for ..."
    import argparse
    import re

    from laxkit import cli
    from laxkit.laxflow import LAX_FLOWS
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    text = next(a.help for a in commands.choices["flow"]._actions
                if "-N" in a.option_strings)
    stated = {name: int(least)
              for least, names in re.findall(r">= (\d+) for ([a-z -]+?)(?=[,;]|$)", text)
              for name in names.split(" and ")}
    assert stated == {name: row.min_n for name, row in LAX_FLOWS.items()}
    assert f"at most {cli.FLOW_MAX_N};" in text


@pytest.mark.parametrize("builtin", ["toda-periodic", "euler-arnold", "neumann"])
def test_flow_n_above_max_n_exit_1_writes_nothing(tmp_path, capsys, monkeypatch,
                                                 time_limit, builtin):
    # refused before any allocation: N = 10**8 would allocate gigabytes and
    # run without end, so drawing the initial state fails the test instead
    import numpy as np
    from laxkit import cli

    def no_state(*args, **kwargs):
        raise AssertionError("an initial state was drawn")
    monkeypatch.setattr(np.random, "default_rng", no_state)
    assert cli.FLOW_MAX_N == 64
    with time_limit(2):
        code = run(tmp_path, "flow", "--builtin", builtin, "-N", "100000000")
    assert code == 1
    assert "-N 100000000 is above the cap cli.FLOW_MAX_N = 64" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("seed", ["-1", "x", "1.5", ""])
def test_flow_seed_must_be_non_negative_integer(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["flow", "--builtin", "toda-periodic", f"--seed={seed}",
                 "--out", str(out)]) == 1
    assert (f"argument --seed: must be a non-negative integer, not {seed!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("builtin,n", [
    ("euler-arnold", 3), ("neumann", 2), ("toda-periodic", 2)])
def test_flow_accepts_smallest_n(tmp_path, builtin, n):
    assert run(tmp_path, "flow", "--builtin", builtin, "-N", str(n),
               "--t-end", "0.1") == 0
    assert json.loads((tmp_path / f"flow_{builtin}.json").read_text())["pass"]


@pytest.mark.parametrize("a,b", [("1,1,1,1", "0,0,0,0"), ("100,100,100", "0,0,0")],
                         ids=["four-site", "three-site-100"])
def test_jacobi_free_lattice_toda(tmp_path, a, b):
    # every gap closed: the float lattice spectrum must see the double edges
    assert run(tmp_path, "jacobi", "-a", a, "-b", b, "--toda-t-end", "1") == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["toda"]["interlacing_ok"] is True
    exact = [x for x, mult in payload["branch_points"] for _ in range(mult)]
    lines = (tmp_path / "jacobi_toda.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = [header.index(f"xi{j + 1}") for j in range(len(exact))]
    for line in lines[1:]:
        row = line.split(",")
        assert max(abs(float(row[c]) - x) for c, x in zip(cols, exact)) <= 1e-12


@pytest.mark.parametrize("n", ["-3", "3"])
def test_flow_kvm_rejects_n_exit_1_writes_nothing(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["flow", "--builtin", "kvm", "-N", n, "--t-end", "0.01",
                 "--dt", "0.001", "--out", str(out)]) == 1
    assert "kvm takes no -N" in capsys.readouterr().err
    assert not out.exists()


def test_flow_default_n_is_3(tmp_path):
    for d, extra in (("default", []), ("n3", ["-N", "3"])):
        assert main(["flow", "--builtin", "toda-periodic", "--t-end", "0.1",
                     *extra, "--out", str(tmp_path / d)]) == 0
    for name in ("flow_toda-periodic.csv", "flow_toda-periodic.json"):
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "n3" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["jacobi", "-a", "1,2", "-b", "0,0", "--toda-t-end", "1", "--dt", "1e-300"],
    ["flow", "--builtin", "toda-periodic", "--t-end", "1", "--dt", "1e-300"],
    ["flow", "--builtin", "kvm", "--t-end", "1", "--dt", "1e-300"],
], ids=["jacobi", "flow-toda", "flow-kvm"])
def test_step_budget_exit_1_writes_nothing(tmp_path, capsys, argv):
    # 1e300 steps would run without end: refused before the first one
    assert run(tmp_path, *argv) == 1
    assert "MAX_STEPS" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("a", ["1e400,1", "1e300,1"], ids=["1e400", "1e300"])
def test_jacobi_huge_entry_exit_3_writes_nothing(tmp_path, capsys, time_limit, a):
    # 1e400 does not fit a float at all; for 1e300 the whole mass sits on
    # two bands at +-1e300 too narrow for a double: either is a numerical
    # breakdown, not a traceback
    with time_limit(2):
        assert run(tmp_path, "jacobi", "-a", a, "-b", "0,0") == 3
    err = capsys.readouterr().err
    assert "error: numerical breakdown:" in err
    if a == "1e400,1":
        assert err == "error: numerical breakdown: a_1 overflows a double\n"
    if a == "1e300,1":
        assert MISSING_MASS in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,what", [
    (["-a", "1,1e200,1,1", "-b", "0,0,0,0"],
     "an a_j^2 (2 <= j <= N-2) in the interior determinant Lambda"),
    (["-a", "1,1", "-b", "0,0", "--a0", "1e200"], "(a0/a_N)^2"),
    (["-a", "1e160,1e160", "-b", "0,0"], "alpha = a_1 a_2 ... a_N"),
    (["-a", "1,1e200", "-b", "0,0"], "a_N^2"),
    (["-a", "1,1e-200", "-b", "0,0", "--a0", "1e200"], "(a0/a_N)^2"),
    (["-a", "1e308,1e308", "-b", "0,0"], "a branch point"),
], ids=["interior-a2", "a0-over-aN", "alpha", "aN2", "a0-over-tiny-aN",
        "branch-point"])
def test_jacobi_overflow_names_the_quantity(tmp_path, capsys, time_limit, argv,
                                            what):
    # each input is exact and finite, but one float the measure needs does
    # not fit a double: the one error line says which
    with time_limit(2):
        assert run(tmp_path, "jacobi", *argv) == 3
    err = capsys.readouterr().err
    assert err == f"error: numerical breakdown: {what} overflows a double\n"
    assert os.listdir(tmp_path) == []


# For a = 1e100 every band is narrower than a double resolves, and its one
# atom has mass 0: the report (once written with "atoms": [] and
# "total_mass": 0) is refused, because the measure does not hold a0^2.
MISSING_MASS = ("the atoms and the other bands carry 0 of the total mass "
                "a0^2 = 1: 1 is missing")


def test_jacobi_nonfinite_atom_mass_exit_3_writes_nothing(tmp_path, capsys):
    assert run(tmp_path, "jacobi", "-a", "1e100,1", "-b", "0,0") == 3
    err = capsys.readouterr().err
    assert "error: numerical breakdown:" in err and MISSING_MASS in err
    assert os.listdir(tmp_path) == []


def test_jacobi_nonfinite_atom_mass_prints_only_the_error(tmp_path, capsys):
    # the missing mass is reported once, as the error line, with no numpy
    # warning before it
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "jacobi", "-a", "1e100,1", "-b", "0,0") == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: numerical breakdown:")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("a,b,code", [("1e-200,1", "0,0", 0),
                                      ("1,1", "1e200,0", 3)],
                         ids=["tiny-a", "huge-b"])
def test_jacobi_extreme_exact_data_finishes_with_finite_report(tmp_path, a, b,
                                                               code):
    # exact data whose polynomial coefficients span hundreds of decades:
    # each root is rounded from its exact isolating interval, with no float
    # evaluation of the polynomial.  Both measures sit on bands too narrow
    # for a double.  For a1 = 1e-200 the atom at 0 carries the whole mass
    # a0^2; for b1 = 1e200 the mass lies on the band at 1e200 and no atom
    # holds it, so that report (once "total_mass": 0) is refused
    assert run(tmp_path, "jacobi", "-a", a, "-b", b) == code
    if code == 3:
        assert os.listdir(tmp_path) == []
        return
    # NaN and Infinity are the only JSON tokens for a non-finite float
    payload = json.loads((tmp_path / "jacobi_report.json").read_text(),
                         parse_constant=pytest.fail)
    edges = payload["branch_points"]
    assert sum(mult for _, mult in edges) == 4
    assert all(math.isfinite(x) for x, _ in edges)
    assert payload["total_mass"] == pytest.approx(1.0, rel=1e-8)


def test_jacobi_skipped_band_beside_integrated_bands_exit_0(tmp_path):
    # only the band at 1e7 is too narrow to integrate; the bands near +-1
    # are integrated, so the report holds a0^2 and is written
    assert run(tmp_path, "jacobi", "-a", "1,1,1", "-b", "0,0,10000000") == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["atoms"] == []
    assert payload["total_mass"] == pytest.approx(1.0, rel=1e-8)


def test_jacobi_huge_b_coincidence_test_exit_3_prints_only_the_error(tmp_path,
                                                                     capsys):
    # sigma = 1e308: the coincident-eigenvalue test compares neighbours by
    # equality, which cannot overflow into a warning; the mass sits on a
    # band too narrow for a double, so the command exits 3
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "jacobi", "-a", "1,1", "-b", "1e308,0") == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: numerical breakdown:") and MISSING_MASS in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_jacobi_huge_a_dimer_atoms_carry_the_mass(tmp_path, capsys):
    # a1 = 1e60 binds sites 1 and 2 into a dimer: atoms at +-1e60 of mass 1/2
    # each, found without a warning.  The atoms hold a0^2 and match the
    # exact moments 0-2 of the half-line operator (1, 0, 1e120)
    from fractions import Fraction
    from laxkit import jacobispec as js
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "jacobi", "-a", "1e60,1,1,1", "-b", "0,0,0,0") == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["total_mass"] == pytest.approx(1.0, rel=1e-8)
    a = [Fraction(10) ** 60, 1, 1, 1]
    want = [float(c) for c in js.moments(a, [0] * 4, 1, 3)]
    got = [sum(mass * x ** k for x, mass in payload["atoms"]) for k in range(3)]
    assert got[0] == pytest.approx(want[0], rel=1e-8)
    assert got[1] == pytest.approx(want[1], abs=1e-8 * 1e60)
    assert got[2] == pytest.approx(want[2], rel=1e-8)


@pytest.mark.parametrize("argv", [
    ["flow", "--builtin", "toda-periodic", "--t-end", "0.01"],
    ["jacobi", "-a", "1,2", "-b", "0,0", "--check-stieltjes"],
    ["check", "--only", "dims"],
], ids=["flow", "jacobi", "check"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "-inf", "x"])
def test_tol_must_be_positive_finite_exit_1_writes_nothing(tmp_path, capsys,
                                                          argv, tol):
    # inf would pass any drift vacuously; nan and tol <= 0 could never pass
    out = tmp_path / "out"
    assert main([*argv, f"--tol={tol}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "--tol: must be a positive finite number" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_report_or_csv_value_exit_3_writes_nothing(tmp_path, capsys,
                                                              monkeypatch, value):
    from laxkit import jacobispec as js
    real = js.toda_flow_jacobi

    def poisoned(*args, **kwargs):
        diag = real(*args, **kwargs)
        diag.a_states[-1][0] = value
        return diag

    monkeypatch.setattr(js, "toda_flow_jacobi", poisoned)
    assert run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0",
               "--toda-t-end", "0.1") == 3
    assert "CSV row 10, column a1, is not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []

    monkeypatch.setattr(js, "toda_flow_jacobi", real)
    real_measure = js.measure_decompose

    def poisoned_measure(*args, **kwargs):
        measure = real_measure(*args, **kwargs)
        measure.atoms.append((0.5, value))
        return measure

    monkeypatch.setattr(js, "measure_decompose", poisoned_measure)
    assert run(tmp_path, "jacobi", "-a", "1,2", "-b", "0,0") == 3
    assert "the report holds a value that is not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "above-cap"])
def test_painleve_order_cap(tmp_path, capsys, monkeypatch, over):
    from laxkit import painleve as pv
    monkeypatch.setattr(pv, "MAX_ORDER", 8)
    order = str(8 + over)
    code = run(tmp_path, "painleve", "--builtin", "henon-heiles", "--order", order)
    if over:
        assert code == 1
        assert "MAX_ORDER = 8" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
    else:
        assert code == 0
        assert os.listdir(tmp_path) == ["painleve_henon-heiles.json"]


def test_jacobi_zero_a0_exit_1_writes_nothing(tmp_path, capsys):
    # a0 = 0 is the zero measure, against which every Stieltjes check
    # would pass with max_error 0
    code = run(tmp_path, "jacobi", "-a", "1,1", "-b", "0,0", "--a0", "0",
               "--check-stieltjes")
    assert code == 1
    assert "a0 must be nonzero" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("a0", ["1e-170", "1e-400"])
def test_jacobi_underflowing_a0_names_the_quantity(tmp_path, capsys, a0):
    # (a0/a_N)^2 is 0.0 in doubles: the measure would be zero, as for a0 = 0
    code = run(tmp_path, "jacobi", "-a", "1,1", "-b", "0,0", "--a0", a0,
               "--check-stieltjes")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: numerical breakdown: (a0/a_N)^2 underflows a double\n"
    assert os.listdir(tmp_path) == []


FLOAT_MODULES = {"numpy", "laxkit.laxflow", "laxkit.jacobispec"}
# what `import laxkit.cli`, parsing the shipped .ivf files and building the
# parser load: perfbench/run.py's set-up path
SETUP_MODULES = {"laxkit", "laxkit.cli", "laxkit.builtins", "laxkit.sysdsl",
                 "laxkit.exactalg", "laxkit.exactalg.poly"}
PAINLEVE_MODULES = {"laxkit.painleve", "laxkit.exactalg.series",
                    "laxkit.exactalg.linalg", "laxkit.exactalg.roots"}


def test_exact_commands_load_no_float_modules(tmp_path):
    """Each command loads only the modules it runs, each checked in a fresh
    interpreter: the parser and painleve runs import neither numpy nor the
    float modules, flow and jacobi skip painleve and the exactalg
    submodules they do not call, and laxkit.<name> and every name of
    exactalg.__all__ still resolve on first use."""
    import subprocess
    import sys
    from pathlib import Path

    import laxkit
    src = Path(laxkit.__file__).resolve().parents[1]
    ivf = Path(laxkit.__file__).resolve().parent / "systems" / "kvm5.ivf"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = str(tmp_path)

    def loaded_after(code):
        # the code modules loaded: laxkit.systems holds only .ivf files
        probe = (f"import sys\n{code}\n"
                 "print(*sorted(m for m in sys.modules if m == 'numpy' or "
                 "m.startswith('laxkit') and m != 'laxkit.systems'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.strip().splitlines()[-1].split())

    def command(*argv):
        return ("from laxkit.cli import main\n"
                f"assert main({[*argv, '--out', out]!r}) == 0")

    assert loaded_after(
        "import laxkit, laxkit.cli\n"
        "from importlib import resources\n"
        "from laxkit.sysdsl import parse_system\n"
        "for f in resources.files('laxkit.systems').iterdir():\n"
        "    if f.name.endswith('.ivf'):\n"
        "        parse_system(f.read_text())\n"
        "laxkit.cli.build_parser()") == SETUP_MODULES
    for argv in (("painleve", "--builtin", "kvm"),
                 ("painleve", "--file", str(ivf), "--order", "6")):
        loaded = loaded_after(command(*argv))
        assert PAINLEVE_MODULES <= loaded and not loaded & FLOAT_MODULES, argv
    for argv in (("flow", "--builtin", "kvm", "--t-end", "0.01"),
                 ("flow", "--builtin", "toda-periodic", "--t-end", "0.01")):
        loaded = loaded_after(command(*argv))
        assert "laxkit.laxflow" in loaded and not loaded & PAINLEVE_MODULES, argv
    loaded = loaded_after(command("jacobi", "-a", "1,2", "-b", "0,0"))
    assert "laxkit.jacobispec" in loaded
    assert loaded & PAINLEVE_MODULES == {"laxkit.exactalg.roots"}
    assert loaded_after(
        "import laxkit\n"
        "assert callable(laxkit.jacobispec.spectral_data)\n"
        "try:\n"
        "    laxkit.no_such_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('laxkit.no_such_module resolved')"
    ) >= FLOAT_MODULES
    loaded_after(
        "from laxkit import exactalg\n"
        "from laxkit.exactalg import *\n"
        "from laxkit.exactalg import linalg, roots, series\n"
        "for name in exactalg.__all__:\n"
        "    value = getattr(exactalg, name)\n"
        "    assert value is globals()[name], name\n"
        "    assert any(getattr(m, name, None) is value\n"
        "               for m in (exactalg.poly, linalg, roots, series)), name\n"
        "try:\n"
        "    exactalg.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('exactalg.no_such_name resolved')")
