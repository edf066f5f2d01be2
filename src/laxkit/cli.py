"""laxkit command line: painleve / flow / jacobi / check.

Reports are JSON with insertion-ordered keys and canonical polynomial
strings, so identical configurations produce byte-identical files.
Each command imports the modules it runs when it runs, so a fresh start
compiles only those.  `import laxkit.cli` and the parser load sysdsl,
builtins and exactalg.poly.  painleve adds painleve and exactalg's
series, linalg and roots; flow adds numpy and laxflow; jacobi adds numpy,
laxflow, jacobispec and exactalg.roots; check loads every module.  So
the parser and every painleve run start without numpy.
Exit codes: 0 success, 1 usage or input error, 2 Painlevé obstruction,
3 numerical breakdown (a flow or the Jacobi lattice blew up, a Lax
flow's commutator spilled outside its h-window, as euler-arnold's does
at --dt 1, a continued-fraction denominator of the Stieltjes check
vanished, a number overflowed a float, as Jacobi entries such as
-a 1e300,1 do, an exponent passed exactalg.poly.LIMIT, the largest a
monomial key holds, as x^40000 in an .ivf does, the measure's scale
(a0/a_N)^2 underflowed to 0, an atom mass of the Jacobi measure came out below
-1e-8, or two auxiliary eigenvalues sigma_j, simple for a Jacobi block,
rounded to one double).  jacobi --a0 0 exits
1: its measure is zero, which no Stieltjes check may pass.
A report or CSV that would hold a NaN or an infinity is never written:
the command exits 3.  So does a Jacobi measure with a band too narrow
to integrate whose atoms and other bands do not carry a0^2, as for
jacobi -a 1e100,1.
A computation that runs past one of its budgets (the polynomial
solver's branch budget, the Sturm loops' nudge and bisection caps, the
flows' 10**6 steps, laxflow.MAX_STEPS) exits 1 with its message.
On exit codes 1 and 3 nothing is written, not even the --out
directory: each command builds the contents of all its files first, and
one writer then creates --out and moves each file into place from a
temp file in that directory, so no file is ever seen half-written.
Flows take fixed steps: the step (--dt) must divide the horizon
(`flow --t-end`, `jacobi --toda-t-end`) into a positive whole number of
steps, to 1e-9 relative, or the command exits 1.  Every `flow` CSV, kvm's
too, samples t = 0, each max(1, steps // 20)-th step and the last.
`flow --builtin` names a row of laxflow.LAX_FLOWS (toda-periodic,
euler-arnold, neumann) or kvm, or the command exits 1 naming them.
`flow -N` must be at least the row's min_n (2 for toda-periodic and
neumann, 3 for euler-arnold: the smallest sizes whose flow moves), and at
most FLOW_MAX_N (64: toda-periodic ran 6.6 s there and 62 s at 128 at the
default --t-end and --dt on a 2-CPU host), or the command exits 1 before
any work; without it they run at N = 3.  kvm takes no -N: given one, the
command exits 1.  `flow --seed` must be a non-negative integer, or the
command exits 1.
`painleve --order` must be a positive integer no larger than
builtins.MAX_ORDER (30), or the command exits 1 before any work; without
it a builtin runs at its own default order, 6 otherwise.  `painleve
--file` must name a readable regular file, and `--bind` binds each
constant at most once, or the command exits 1.
`jacobi --depth` must be no larger than jacobispec.MAX_DEPTH (10**5),
and the period no larger than JACOBI_MAX_PERIOD (128), or the command
exits 1 before any work.
`--tol` of flow, jacobi and check must be a positive finite float, or the
command exits 1 before any work: inf would pass any drift, and nan or a
value <= 0 none.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Tuple

from .exactalg import Q
from . import builtins as bi
from .sysdsl import ParseError, parse_system_file

REPORT_VERSION = 1


class UsageError(ValueError):
    pass


class BreakdownError(ArithmeticError):
    """A float computation broke down (exit code 3)."""


# what a command hands back: its exit code and (file name, contents) pairs
# in the order their paths are printed
Result = Tuple[int, List[Tuple[str, str]]]


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:   # a NaN or an infinity in the payload
        raise BreakdownError(f"the report holds a value that is not finite ({exc})")


def _csv_text(header, rows) -> str:
    for i, row in enumerate(rows):
        for name, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise BreakdownError(f"CSV row {i}, column {name}, is not finite")
    lines = [",".join(header)]
    lines += [",".join(f"{x:.16g}" if isinstance(x, float) else str(x)
                       for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_files(out_dir: str, files) -> None:
    """Create out_dir if there is anything to write, write each file to a
    temp file beside it and rename it into place, then print its path."""
    if not files:
        return
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        path = os.path.join(out_dir, name)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        print(path)


def _tol(text: str) -> float:
    """argparse type of --tol: a positive finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, not {text!r}")
    return x


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's
    random generators take."""
    try:
        x = int(text)
    except ValueError:
        x = -1
    if x < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {text!r}")
    return x


def _rational(label: str, text: str):
    """A rational given on the command line (3/4, -2, 1e-3); any other
    text, n/0 included, is a UsageError that names the option."""
    try:
        return Q(text)
    except ZeroDivisionError:
        raise UsageError(f"{label}: {text!r} has a zero denominator") from None
    except ValueError:
        raise UsageError(f"{label}: {text!r} is not a rational number") from None


def _parse_bindings(items, system):
    """--bind NAME=VALUE pairs; each NAME must be a symbolic constant of
    the system, bound once."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"binding '{item}' must look like NAME=VALUE")
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise UsageError(f"--bind {k}: given more than once")
        out[k] = _rational(f"--bind {k}", v)
        if k not in system.constants:
            raise UsageError(f"--bind {k}: {system.name} has no symbolic constant "
                             f"'{k}' (its constants: {list(system.constants)})")
    return out


def _load_system(args):
    if getattr(args, "builtin", None):
        try:
            obj = bi.builtin_system(args.builtin)
        except KeyError as exc:
            raise UsageError(exc.args[0])
        return obj, args.builtin
    path = getattr(args, "file", None)
    if not path:
        raise UsageError("supply --builtin NAME or --file PATH")
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    if not os.path.isfile(path):
        raise UsageError(f"not a regular file: {path}")
    try:
        return parse_system_file(path), None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# painleve
# ---------------------------------------------------------------------------

def cmd_painleve(args) -> Result:
    from . import painleve as pv
    if args.order is not None and args.order < 1:
        raise UsageError("--order must be a positive integer")
    if args.order is not None and args.order > pv.MAX_ORDER:
        raise UsageError(f"--order {args.order} is above the cap "
                         f"painleve.MAX_ORDER = {pv.MAX_ORDER}")
    system, name = _load_system(args)
    sub = _parse_bindings(args.bind, system)
    if sub:
        from dataclasses import replace
        system = replace(
            system,
            equations=tuple(e.subs(sub) for e in system.equations),
            invariants={k: H.subs(sub) for k, H in system.invariants.items()},
            constants=tuple(c for c in system.constants if c not in sub),
            poisson=None if system.poisson is None else
            [[p.subs(sub) for p in row] for row in system.poisson])
    conv = bi.PAINLEVE[name] if name else bi.PainleveConventions()
    order = conv.order if args.order is None else args.order
    report = pv.analyze(system, order, conv)
    payload = {"laxkit_report": REPORT_VERSION, "command": "painleve",
               "order": order}
    payload.update(report)
    obstructed = any("obstruction" in b for b in report["balances"])
    return (2 if obstructed else 0,
            [(f"painleve_{system.name}.json", _json_text(payload))])


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

# largest -N of a sized flow builtin: at the default --t-end and --dt,
# toda-periodic took 6.6 s at N = 64 and 62 s at N = 128 on a 2-CPU x86_64
# host, and neumann's trace powers tr A^k, k <= N, overflowed at N = 128
FLOW_MAX_N = 64


def cmd_flow(args) -> Result:
    from . import laxflow as lf
    name = args.builtin
    flow = lf.LAX_FLOWS.get(name)   # None for kvm, the vector-field builtin
    if flow is None and name != "kvm":
        have = ", ".join(sorted([*lf.LAX_FLOWS, "kvm"]))
        raise UsageError(f"unknown flow builtin '{name}' (have {have})")
    if flow is None and args.N is not None:
        raise UsageError("flow --builtin kvm takes no -N")
    N = 3 if args.N is None else args.N
    if flow is not None and N < flow.min_n:
        raise UsageError(f"flow --builtin {name} needs -N >= {flow.min_n}")
    if N > FLOW_MAX_N:
        raise UsageError(f"-N {N} is above the cap cli.FLOW_MAX_N = {FLOW_MAX_N}")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    if args.t_end <= 0:
        raise UsageError("--t-end must be positive")
    stride = max(1, lf.steps_for(args.t_end, args.dt) // 20)
    summary = {"laxkit_report": REPORT_VERSION, "command": "flow",
               "builtin": name, "t_end": args.t_end, "dt": args.dt}
    import numpy as np
    try:
        if flow is None:
            system = bi.builtin_system("kvm")
            z0 = np.random.default_rng(args.seed).uniform(0.3, 1.2, system.dim)
            times, states = lf.integrate_system(system, z0, args.t_end, args.dt, stride)
            drifts = lf.invariant_drift(system, times, states)
            summary["invariant_drift"] = drifts
            summary["pass"] = bool(max(drifts.values()) < args.tol)
            header = ["t"] + list(system.variables) + list(system.invariants)
            rows = []
            for t, z in zip(times, states):
                env = dict(zip(system.variables, z))
                rows.append([t] + list(map(float, z)) +
                            [H.eval_num(env) for H in system.invariants.values()])
        else:
            pencil, B, start_fields = flow.start(N, args.seed)
            # a flow driven past float range stops with BlowUpError or
            # SpillError: numpy's overflow warnings on the way add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                traj = lf.integrate_lax(pencil, B, args.t_end, args.dt,
                                        sample_every=stride)
            drift = lf.isospectral_drift(traj, flow.h_samples, N)
            summary["trace_drift"] = drift
            if flow.reports_curve:
                summary["curve_drift"] = lf.curve_drift(traj)
            summary.update(start_fields)
            summary["pass"] = bool(drift < args.tol)
            header = ["t"] + flow.columns(N)
            rows = [[t] + flow.row(P) for t, P in zip(traj.times, traj.pencils)]
    except (lf.BlowUpError, lf.SpillError) as exc:
        raise BreakdownError(str(exc)) from exc

    csv_name = f"flow_{name}.csv"
    files = [(csv_name, _csv_text(header, rows)),
             (f"flow_{name}.json", _json_text(summary))]
    if args.gnuplot:
        files.insert(0, (f"flow_{name}.gp",
                         f'set datafile separator ","\nset key autotitle columnhead\n'
                         f'plot for [i=2:{len(header)}] "{csv_name}" '
                         f'using 1:i with lines\n'))
    return 0, files


# ---------------------------------------------------------------------------
# jacobi
# ---------------------------------------------------------------------------

def _parse_seq(option: str, text: str):
    return [_rational(option, x)
            for x in text.replace("−", "-").split(",") if x != ""]


# largest jacobi period: with --check-stieltjes --toda-t-end 1 the data
# a_j = (1 + 7j mod 5)/(2 + j mod 3), b_j = ((5j mod 7) - 3)/(1 + j mod 4)
# took 3.2 s at 128, 5.8 s at 160, 10.7 s at 192 and 33 s at 256 on a 2-CPU
# x86_64 host, most of it the exact root isolation of spectral_data
JACOBI_MAX_PERIOD = 128


def cmd_jacobi(args) -> Result:
    from . import jacobispec as js
    from .laxflow import BlowUpError
    if args.depth > js.MAX_DEPTH:
        raise UsageError(f"--depth {args.depth} is above the cap "
                         f"jacobispec.MAX_DEPTH = {js.MAX_DEPTH}")
    a = _parse_seq("-a", args.a)
    b = _parse_seq("-b", args.b)
    if len(a) > JACOBI_MAX_PERIOD:
        raise UsageError(f"period {len(a)} is above the cap "
                         f"cli.JACOBI_MAX_PERIOD = {JACOBI_MAX_PERIOD}")
    try:
        m = js.PeriodicJacobi(a, b)
    except ValueError as exc:
        raise UsageError(str(exc))
    a0 = _rational("--a0", args.a0) if args.a0 is not None else a[-1]
    data = js.spectral_data(m)
    measure = js.measure_decompose(m, a0, data=data)
    payload = {
        "laxkit_report": REPORT_VERSION,
        "command": "jacobi",
        "period": m.period,
        "a": [str(x) for x in a],
        "b": [str(x) for x in b],
        "a0": str(a0),
        "alpha": data.alpha,
        "P_ascending": [str(c) for c in data.P],
        "branch_points": [[x, mult] for x, mult in data.branch_points],
        "stable_bands": [list(t) for t in data.stable_bands],
        "gaps": [list(t) for t in data.gaps],
        "auxiliary_spectrum": data.aux_spectrum,
        "interlacing_ok": data.interlacing_ok(),
        "genus": data.genus,
        "atoms": [[x, mass] for x, mass in measure.atoms],
        "total_mass": measure.total_mass(),
    }
    if args.check_stieltjes:
        worst = js.stieltjes_error(data, measure, a0, args.depth)
        payload["stieltjes_check"] = {"points": js.STIELTJES_POINTS, "depth": args.depth,
                                      "max_error": worst,
                                      "pass": bool(worst < args.tol)}
    files = []
    if args.format == "csv":
        rows = [["stable", lo, hi] for lo, hi in data.stable_bands]
        rows += [["gap", lo, hi] for lo, hi in data.gaps]
        rows.sort(key=lambda r: r[1])
        files.append(("jacobi_bands.csv", _csv_text(["kind", "lo", "hi"], rows)))
    if args.toda_t_end:
        try:
            diag = js.toda_flow_jacobi(m, args.toda_t_end, args.dt)
        except BlowUpError as exc:
            raise BreakdownError(str(exc)) from exc
        payload["toda"] = {
            "band_edge_drift": diag.band_edge_drift,
            "trace_sum_drift": diag.trace_sum_drift,
            "power_trace_drift": diag.power_trace_drift,
            "interlacing_ok": diag.interlacing_ok,
            "min_abs_a": diag.min_abs_a,
        }
        n = m.period
        header = (["t"] + [f"a{j+1}" for j in range(n)] +
                  [f"b{j+1}" for j in range(n)] +
                  [f"xi{j+1}" for j in range(2 * n)] +
                  [f"sigma{j+1}" for j in range(n - 1)])
        rows = [[t] + list(map(float, aa)) + list(map(float, bb)) +
                list(map(float, ee)) + list(map(float, ss))
                for t, aa, bb, ee, ss in zip(diag.times, diag.a_states,
                                             diag.b_states, diag.band_edges,
                                             diag.aux_states)]
        files.append(("jacobi_toda.csv", _csv_text(header, rows)))
    files.append(("jacobi_report.json", _json_text(payload)))
    return 0, files


# ---------------------------------------------------------------------------
# check: aggregate acceptance battery
# ---------------------------------------------------------------------------

def cmd_check(args) -> Result:
    from . import acceptance
    only = args.only
    results = acceptance.run_all(only=only, float_tol=args.tol)
    width = max(len(nm) for nm, _, _ in results)
    failures = 0
    for nm, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {nm.ljust(width)}  {detail}")
        failures += (not ok)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return (1 if failures else 0), []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laxkit",
        description="integrable-systems toolkit: Painlevé analysis, Lax "
                    "flows, periodic Jacobi spectra")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("painleve", help="Laurent/Puiseux analysis of a system")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE",
                   help="bind a symbolic constant to a rational")
    p.add_argument("--builtin", help=f"one of {sorted(bi._SYSTEM_FILES)}")
    p.add_argument("--file", help="path to an .ivf file")
    p.add_argument("--order", type=int, default=None,
                   help="whole powers of t beyond the leading exponent "
                        f"(1 to {bi.MAX_ORDER})")
    p.set_defaults(fn=cmd_painleve)

    p = sub.add_parser("flow", help="integrate a Lax or vector-field builtin")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of the random initial state")
    p.add_argument("--builtin", required=True)
    p.add_argument("-N", type=int, default=None,
                   help="size (default 3): >= 2 for toda-periodic and "
                        "neumann, >= 3 for euler-arnold, at most "
                        f"{FLOW_MAX_N}; kvm takes none")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=_tol, default=1e-8)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("jacobi", help="spectral report of a periodic Jacobi matrix")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="json", choices=["json", "csv"],
                   help="csv adds the band table jacobi_bands.csv")
    p.add_argument("-a", required=True, help="comma list of off-diagonals")
    p.add_argument("-b", required=True, help="comma list of diagonals")
    p.add_argument("--a0", default=None)
    p.add_argument("--check-stieltjes", action="store_true")
    p.add_argument("--depth", type=int, default=200,
                   help="levels of the Stieltjes check's continued fraction "
                        "(1 to jacobispec.MAX_DEPTH)")
    p.add_argument("--tol", type=_tol, default=1e-6)
    p.add_argument("--toda-t-end", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(fn=cmd_jacobi)

    p = sub.add_parser("check", help="run the golden acceptance battery")
    p.add_argument("--out", default=".",
                   help="accepted like the other commands; check writes no file")
    p.add_argument("--only", default=None,
                   choices=[None, "painleve", "flow", "jacobi", "dims"])
    p.add_argument("--tol", type=_tol, default=None,
                   help="override the float tolerance of the battery")
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code, files = args.fn(args)
        _write_files(args.out, files)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BreakdownError, OverflowError, FloatingPointError) as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
