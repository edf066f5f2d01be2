"""laxkit command line: painleve / flow / jacobi / check.

Reports are JSON with insertion-ordered keys and canonical polynomial
strings, so identical configurations produce byte-identical files.
Only flow, jacobi and check load numpy (and laxflow, jacobispec): each
imports them when it runs, so `import laxkit.cli`, the parser and every
painleve run stay on the exact modules and start without numpy.
Exit codes: 0 success, 1 usage or input error, 2 Painlevé obstruction,
3 numerical breakdown (a flow or the Jacobi lattice blew up, a
continued-fraction denominator of the Stieltjes check vanished, or a
number overflowed a float, as Jacobi entries such as -a 1e300,1 do, or
the measure's scale (a0/a_N)^2 underflowed to 0).  jacobi --a0 0 exits
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
steps, to 1e-9 relative, or the command exits 1.
`flow -N` must be at least 2 for toda-periodic and neumann and at least
3 for euler-arnold (the smallest sizes whose flow moves), or the command
exits 1; without it they run at N = 3.  kvm takes no -N: given one, the
command exits 1.
`painleve --order` must be a positive integer no larger than
painleve.MAX_ORDER (30), or the command exits 1 before any work; without
it a builtin runs at its own default order, 6 otherwise.
`jacobi --depth` must be no larger than jacobispec.MAX_DEPTH (10**5), or
the command exits 1 before any work.
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
from . import painleve as pv
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


def _parse_bindings(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"binding '{item}' must look like NAME=VALUE")
        k, v = item.split("=", 1)
        out[k.strip()] = Q(v.strip())
    return out


def _load_system(args):
    if getattr(args, "builtin", None):
        try:
            obj = bi.builtin_system(args.builtin)
        except KeyError as exc:
            raise UsageError(str(exc))
        return obj, args.builtin
    path = getattr(args, "file", None)
    if not path:
        raise UsageError("supply --builtin NAME or --file PATH")
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    return parse_system_file(path), None


# ---------------------------------------------------------------------------
# painleve
# ---------------------------------------------------------------------------

def cmd_painleve(args) -> Result:
    if args.order is not None and args.order < 1:
        raise UsageError("--order must be a positive integer")
    if args.order is not None and args.order > pv.MAX_ORDER:
        raise UsageError(f"--order {args.order} is above the cap "
                         f"painleve.MAX_ORDER = {pv.MAX_ORDER}")
    system, name = _load_system(args)
    bindings = _parse_bindings(args.bind)
    if bindings:
        sub = {k: v for k, v in bindings.items() if k in system.constants}
        if sub:
            from dataclasses import replace
            system = replace(
                system,
                equations=tuple(e.subs(sub) for e in system.equations),
                invariants={k: H.subs(sub) for k, H in system.invariants.items()},
                constants=tuple(c for c in system.constants if c not in sub),
                poisson=None if system.poisson is None else
                [[p.subs(sub) for p in row] for row in system.poisson])
    meta = {}
    if name:
        try:
            meta = dict(bi.painleve_meta(name))
        except KeyError:
            meta = {}
    order = meta.get("order", 6) if args.order is None else args.order
    report = pv.analyze(system, order, builtin_meta=meta)
    payload = {"laxkit_report": REPORT_VERSION, "command": "painleve",
               "order": order}
    payload.update(report)
    obstructed = any("obstruction" in b for b in report["balances"])
    return (2 if obstructed else 0,
            [(f"painleve_{system.name}.json", _json_text(payload))])


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

# smallest -N at which each sized flow builtin moves: for N = 2 the
# euler-arnold flow is static ([X, lam*X] = 0 for a 2 x 2 skew X), and so is
# neumann for N = 1 (a point of S^0)
FLOW_MIN_N = {"toda-periodic": 2, "euler-arnold": 3, "neumann": 2}


def cmd_flow(args) -> Result:
    import numpy as np
    from . import laxflow as lf
    if args.builtin == "kvm" and args.N is not None:
        raise UsageError("flow --builtin kvm takes no -N")
    N = 3 if args.N is None else args.N
    min_n = FLOW_MIN_N.get(args.builtin)
    if min_n is not None and N < min_n:
        raise UsageError(f"flow --builtin {args.builtin} needs -N >= {min_n}")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    if args.t_end <= 0:
        raise UsageError("--t-end must be positive")
    stride = max(1, lf.steps_for(args.t_end, args.dt) // 20)
    name = args.builtin
    summary = {"laxkit_report": REPORT_VERSION, "command": "flow",
               "builtin": name, "t_end": args.t_end, "dt": args.dt}
    rows = []
    header = []
    try:
        if name == "toda-periodic":
            n = N
            rng = np.random.default_rng(args.seed)
            a = list(rng.uniform(0.6, 1.4, n))
            b = list(rng.uniform(-0.5, 0.5, n))
            pencil, B = lf.toda_periodic_pencil(a, b)
            traj = lf.integrate_lax(pencil, B, args.t_end, args.dt,
                                    sample_every=stride)
            drift = lf.isospectral_drift(traj, [1.0, -1.0, 0.5, 2.0], n)
            summary["trace_drift"] = drift
            summary["curve_drift"] = lf.curve_drift(traj)
            summary["pass"] = bool(drift < args.tol)
            header = ["t"] + [f"a{j+1}" for j in range(n)] + [f"b{j+1}" for j in range(n)]
            for t, P in zip(traj.times, traj.pencils):
                A0 = P.coeffs[0]
                arow = [float(A0[j, (j + 1) % n]) if j < n - 1 else float(P.coeffs[1][n - 1, 0])
                        for j in range(n)]
                brow = [float(A0[j, j]) for j in range(n)]
                rows.append([t] + arow + brow)
        elif name == "kvm":
            system = bi.builtin_system("kvm")
            rng = np.random.default_rng(args.seed)
            z0 = rng.uniform(0.3, 1.2, system.dim)
            times, states = lf.integrate_system(system, z0, args.t_end, args.dt)
            drifts = lf.invariant_drift(system, times, states)
            summary["invariant_drift"] = drifts
            summary["pass"] = bool(max(drifts.values()) < args.tol)
            header = ["t"] + list(system.variables) + list(system.invariants)
            for t, z in zip(times, states):
                env = dict(zip(system.variables, z))
                rows.append([t] + list(map(float, z)) +
                            [H.eval_num(env) for H in system.invariants.values()])
        elif name == "euler-arnold":
            pencil, B = bi.builtin("euler-arnold", n=N, seed=args.seed)
            traj = lf.integrate_lax(pencil, B, args.t_end, args.dt,
                                    sample_every=stride)
            drift = lf.isospectral_drift(traj, [1.0, -1.0, 0.5], N)
            summary["trace_drift"] = drift
            summary["pass"] = bool(drift < args.tol)
            header = ["t", "tr_X2"]
            for t, P in zip(traj.times, traj.pencils):
                X = P.coeffs[0]
                rows.append([t, float(np.trace(X @ X))])
        elif name == "neumann":
            rng = np.random.default_rng(args.seed)
            n = N
            x = rng.normal(size=n)
            x = x / np.linalg.norm(x)
            y = rng.normal(size=n)
            y -= (y @ x) * x
            alphas = list(range(1, n + 1))
            pencil, B = lf.neumann_pencil(alphas, x, y)
            traj = lf.integrate_lax(pencil, B, args.t_end, args.dt,
                                    sample_every=stride)
            drift = lf.isospectral_drift(traj, [1.0, -1.0, 2.0], n)
            summary["trace_drift"] = drift
            summary["branch_points"] = list(map(float, lf.neumann_branch_points(alphas, x, y)))
            summary["branch_count_with_infinity"] = 2 * n
            summary["pass"] = bool(drift < args.tol)
            header = ["t", "norm"]
            for t, P in zip(traj.times, traj.pencils):
                rows.append([t, P.norm()])
        else:
            raise UsageError(f"unknown flow builtin '{name}'")
    except lf.BlowUpError as exc:
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

def _parse_seq(text: str):
    try:
        return [Q(x) for x in text.replace("−", "-").split(",") if x != ""]
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad numeric list '{text}': {exc}")


def cmd_jacobi(args) -> Result:
    from . import jacobispec as js
    from .laxflow import BlowUpError
    if args.depth > js.MAX_DEPTH:
        raise UsageError(f"--depth {args.depth} is above the cap "
                         f"jacobispec.MAX_DEPTH = {js.MAX_DEPTH}")
    a = _parse_seq(args.a)
    b = _parse_seq(args.b)
    try:
        m = js.PeriodicJacobi(a, b)
    except ValueError as exc:
        raise UsageError(str(exc))
    a0 = Q(args.a0) if args.a0 is not None else a[-1]
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
        grid = _stieltjes_grid(data)
        worst = 0.0
        for z in grid:
            try:
                frac = js.gamma_fraction(m.a, m.b, a0, z, args.depth)
            except ZeroDivisionError as exc:
                raise BreakdownError(f"Stieltjes check at z = {z}: {exc}")
            ct = measure.cauchy_transform(z)
            worst = max(worst, abs(ct - frac))
        payload["stieltjes_check"] = {"points": len(grid), "depth": args.depth,
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


def _stieltjes_grid(data, count: int = 20, dist: float = 1.0):
    lo = data.branch_points[0][0]
    hi = data.branch_points[-1][0]
    pts = []
    k = 0
    while len(pts) < count:
        k += 1
        for z in (complex(lo - dist - 0.37 * k, 0),
                  complex(hi + dist + 0.41 * k, 0),
                  complex((lo + hi) / 2 + 0.23 * k, dist + 0.3 * k),
                  complex((lo + hi) / 2 - 0.31 * k, -(dist + 0.2 * k))):
            if len(pts) < count:
                pts.append(z)
    return pts


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
                        f"(1 to {pv.MAX_ORDER})")
    p.set_defaults(fn=cmd_painleve)

    p = sub.add_parser("flow", help="integrate a Lax or vector-field builtin")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random initial state")
    p.add_argument("--builtin", required=True)
    p.add_argument("-N", type=int, default=None,
                   help="size (default 3): >= 2 for toda-periodic and "
                        "neumann, >= 3 for euler-arnold; kvm takes none")
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
    except (BreakdownError, OverflowError) as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
