"""Golden acceptance battery.

Each check returns (name, ok, detail) and is used both by `laxkit check`
and by the test suite.  The golden series tables below are the displayed
Laurent families of the built-in systems, written as parseable coefficient
strings; eps stands for the sheet sign and is substituted exactly.  Exact
checks compare MultiPoly values, never floats.
"""
from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .exactalg import MultiPoly, Q
from .sysdsl import hamiltonian_vector_field, parse_expression
from . import builtins as bi
from . import jacobispec as js
from . import laxflow as lf
from . import painleve as pv

F = Fraction


# ---------------------------------------------------------------------------
# golden data
# ---------------------------------------------------------------------------

# Hénon-Heiles family, branching index 2, parameters alpha/beta/gamma and
# the coupling A.  The two starred coefficients are the exact values forced
# by the step equations (the source display shows alpha where alpha^3 is
# required; the surrounding coefficients pin the correction).
GOLDEN_HH = {
    "y1": {"-1/2": "alpha", "3/2": "beta", "5/2": "-1/18*alpha^3",       # *
           "7/2": "1/10*A^2*alpha", "9/2": "-1/18*alpha^2*beta"},
    "y2": {"-2": "-3/8", "-1": "0", "0": "-1/2*A", "1": "1/12*alpha^2",
           "2": "-2/5*A^2", "3": "1/3*alpha*beta", "4": "-gamma"},
    "x1": {"-3/2": "-1/2*alpha", "1/2": "3/2*beta", "3/2": "-5/36*alpha^3",  # *
           "5/2": "7/20*A^2*alpha", "7/2": "-1/4*alpha^2*beta"},
    "x2": {"-3": "3/4", "0": "1/12*alpha^2", "1": "-4/5*A^2",
           "2": "alpha*beta", "3": "-4*gamma"},
}

# quartic two-degree-of-freedom family (branching index 2, sheets eps=+-1)
GOLDEN_RDG = {
    "q1": {"-1/2": "u", "1/2": "-1/4*u^3", "3/2": "v", "5/2": "-5/128*u^7",
           "7/2": "3/32*u^4*v - 7/2048*u^9 + 3/8*eps*u*w"},
    "q2": {"-1": "1/2*eps", "0": "-1/4*eps*u^2", "1": "1/8*eps*u^4",
           "2": "1/128*eps*u^6 - 3/4*eps*u*v", "3": "w"},
    "p1": {"-3/2": "-1/2*u", "-1/2": "-1/8*u^3", "1/2": "3/2*v",
           "3/2": "-25/256*u^7",
           "5/2": "21/64*u^4*v - 49/4096*u^9 + 21/16*eps*u*w"},
    "p2": {"-2": "-1/2*eps", "-1": "0", "0": "1/8*eps*u^4",
           "1": "1/64*eps*u^6 - 3/2*eps*u*v", "2": "3*w"},
}

# its five-variable extension (integral exponents, sheets eps=+-1)
GOLDEN_RDG5 = {
    "z1": {"-1": "alpha", "0": "-1/2*alpha^2", "1": "beta",
           "2": "-1/16*alpha^4 - 1/4*alpha*beta", "3": "gamma"},
    "z2": {"-1": "1/2*eps", "0": "-1/4*eps*alpha", "1": "1/8*eps*alpha^2",
           "2": "1/32*eps*alpha^3 - 3/8*eps*beta", "3": "theta"},
    "z3": {"-2": "-1/2*eps", "-1": "0", "0": "1/8*eps*alpha^2",
           "1": "1/16*eps*alpha^3 - 3/4*eps*beta", "2": "3*theta"},
    "z4": {"-2": "-1/2*alpha", "-1": "0", "0": "1/2*beta",
           "1": "-1/16*alpha^4 - 1/4*alpha*beta", "2": "3/2*gamma"},
    "z5": {"-2": "1/2*alpha^2", "-1": "-1/4*alpha^3 - beta",
           "0": "1/4*alpha^4 + 1/2*alpha*beta",
           "1": "-alpha^2*beta + 2*gamma - 4*eps*alpha*theta"},
}

# constraint curves, primitive-normalized (integer content cleared, common
# monomial stripped, positive graded-lex lead)
GOLDEN_CURVE_RDG5 = ("alpha^9 - 4*alpha^6*beta - 32*alpha^5*c1 "
                     "- 16*alpha^3*beta^2 - 16*alpha^3*c3 + 128*alpha^2*beta*c1 "
                     "+ 64*beta^3 + 32*alpha*c2 + 64*beta*c3")
GOLDEN_CURVE_HH = ("4*alpha^8 + 96*alpha^4*A^3 - 432*alpha^3*beta*A^2 "
                   "- 72*alpha^4*b1 + 1296*alpha*beta^3 + 27*b2")
GOLDEN_CURVE_RDG = ("45*u^16 - 672*u^11*v - 1536*u^8*b1 - 1024*u^6*v^2 "
                    "+ 16384*u^3*v*b1 + 32768*u*v^3 + 2048*b2")


def _expr(text: str, extra=()) -> MultiPoly:
    names = ["alpha", "beta", "gamma", "theta", "u", "v", "w", "A",
             "b1", "b2", "c1", "c2", "c3", "eps"] + list(extra)
    syms = {n: MultiPoly.var(n) for n in names}
    return parse_expression(text, syms)


def _principal_balances(name: str):
    """A builtin's principal weight vector and renamed principal balances."""
    system = bi.builtin_system(name)
    meta = bi.painleve_meta(name)
    wvs = [w for w in pv.detect_weights(system)
           if tuple(w.weights) == tuple(meta["weights"])]
    if not wvs:
        raise AssertionError(f"{name}: principal weight vector not found")
    bals = [b.rename_free(meta.get("rename", {}))
            for b in pv.indicial_solve(system, wvs[0]) if meta["principal"](b)]
    return system, wvs[0], bals


def _principal_families(name: str, order: Optional[int] = None):
    """(balance, family) pairs for a builtin's principal balances, with the
    customary parameter names and normalizations applied."""
    system, _, bals = _principal_balances(name)
    meta = bi.painleve_meta(name)
    out = []
    for bal in bals:
        if meta.get("specialize"):
            bal = bal.specialize(meta["specialize"])
        fam = pv.propagate(system, bal, order or meta["order"],
                           resonance_names=meta.get("resonance_names"),
                           resonance_slots=meta.get("resonance_slots"))
        out.append((bal, fam))
    if not out:
        raise AssertionError(f"{name}: no principal balance found")
    return system, meta, out


def _check_series(fam, golden: Dict[str, Dict[str, str]], eps=None) -> List[str]:
    errs = []
    sub = {} if eps is None else {"eps": MultiPoly.const(Q(eps))}
    for var, table in golden.items():
        for etxt, ctxt in table.items():
            want = _expr(ctxt).subs(sub)
            got = fam.series[var].coeff(Q(etxt))
            if got != want:
                errs.append(f"{var}@t^{etxt}: got {got}, want {want}")
    return errs


def _sheet_sign(bal) -> int:
    for var, val in bal.choices:
        if val == F(1, 2):
            return 1
        if val == F(-1, 2):
            return -1
    raise AssertionError("balance has no half-integer sheet choice")


# ---------------------------------------------------------------------------
# the ten checks
# ---------------------------------------------------------------------------

def check_1_hh_series(float_tol=None):
    t0 = time.perf_counter()
    _, _, fams = _principal_families("henon-heiles")
    errs = []
    for _, fam in fams:
        errs += _check_series(fam, GOLDEN_HH)
    dt = time.perf_counter() - t0
    ok = not errs and dt < 10.0
    n = sum(len(t) for t in GOLDEN_HH.values())
    return ok, (f"{n} coefficients exact in {dt:.1f}s" if not errs
                else "; ".join(errs[:2]))


def check_2_rdg_series(float_tol=None):
    t0 = time.perf_counter()
    errs = []
    _, _, fams = _principal_families("rdg")
    if len(fams) != 2:
        errs.append(f"expected 2 sheets, got {len(fams)}")
    for bal, fam in fams:
        errs += _check_series(fam, GOLDEN_RDG, eps=_sheet_sign(bal))
    _, _, fams5 = _principal_families("rdg5")
    if len(fams5) != 2:
        errs.append(f"expected 2 sheets for the 5-variable system, got {len(fams5)}")
    for bal, fam in fams5:
        errs += _check_series(fam, GOLDEN_RDG5, eps=_sheet_sign(bal))
    dt = time.perf_counter() - t0
    ok = not errs and dt < 30.0
    n = (sum(len(t) for t in GOLDEN_RDG.values()) +
         sum(len(t) for t in GOLDEN_RDG5.values()))
    return ok, (f"2x{n} coefficients exact on both sheets in {dt:.1f}s"
                if not errs else "; ".join(errs[:2]))


def check_3_constraint_curves(float_tol=None):
    t0 = time.perf_counter()
    errs = []
    for name, golden in (("henon-heiles", GOLDEN_CURVE_HH),
                         ("rdg", GOLDEN_CURVE_RDG),
                         ("rdg5", GOLDEN_CURVE_RDG5)):
        system, meta, fams = _principal_families(name)
        for _, fam in fams:
            cv = pv.constraint_curve(system, fam, meta["curve_invariants"],
                                     value_names=meta["value_names"])
            want = _expr(golden).primitive()
            if cv.curve != want:
                errs.append(f"{name}: curve mismatch")
    dt = time.perf_counter() - t0
    ok = not errs and dt < 30.0
    return ok, (f"3 curves exact up to normalization in {dt:.1f}s"
                if not errs else "; ".join(errs[:2]))


def check_4_parameter_counts(float_tol=None):
    t0 = time.perf_counter()
    errs = []
    _, _, fams = _principal_families("kvm")
    if len(fams) != 5:
        errs.append(f"kvm: expected 5 principal families, got {len(fams)}")
    for _, fam in fams:
        exp, tot = fam.count_free_parameters()
        if (exp, tot) != (3, 4):
            errs.append(f"kvm: counts {(exp, tot)} != (3, 4)")
    for name in ("henon-heiles", "rdg"):
        _, _, fams = _principal_families(name)
        for _, fam in fams:
            exp, tot = fam.count_free_parameters()
            if (exp, tot) != (3, 4):
                errs.append(f"{name}: counts {(exp, tot)} != (3, 4)")
    dt = time.perf_counter() - t0
    ok = not errs and dt < 10.0
    return ok, ("kvm 4 = m-1 with t0; henon-heiles/rdg 3 explicit + t0 "
                f"({dt:.1f}s)" if not errs else "; ".join(errs[:2]))


def check_5_weight_eigenvalues(float_tol=None):
    errs = []
    system, wv, bals = _principal_balances("kvm")
    for bal in bals:
        spec = set(pv.kowalewski(system, bal).rational_spectrum())
        weights = {pv.invariant_weight(system, nm, wv)
                   for nm in system.invariants}
        if weights != {F(1), F(2), F(5)}:
            errs.append(f"kvm invariant weights {weights}")
        if not weights <= spec:
            errs.append(f"kvm: weights {weights} not in spectrum {spec}")
    system, wv, bals = _principal_balances("rdg")
    for bal in bals:
        ell = wv.ell
        scaled = {r * ell for r in pv.kowalewski(system, bal).rational_spectrum()}
        if not {F(4), F(8)} <= scaled:
            errs.append(f"rdg: {{4,8}} not in tau-scaled spectrum {scaled}")
    return not errs, ("kvm {1,2,5}, rdg tau-scaled {4,8} in spectra (exact)"
                      if not errs else "; ".join(errs[:2]))


def check_6_involution(float_tol=None):
    errs = []
    cases = [("henon-heiles", "H1", "H2", None),
             ("rdg", "H1", "H2", None),
             ("hh5", "F1", "F2", "F3"),
             ("rdg5", "F1", "F2", "F3"),
             ("kvm", "H1", "H2", "H3")]
    for name, f, g, cas in cases:
        system = bi.builtin_system(name)
        br = lf.poisson_bracket(system, f, g)
        if not br.is_zero:
            errs.append(f"{name}: {{{f},{g}}} != 0")
        if cas is not None:
            vf = hamiltonian_vector_field(system, cas)
            if not all(x.is_zero for x in vf):
                errs.append(f"{name}: J grad {cas} != 0")
    return not errs, ("all brackets vanish as polynomials"
                      if not errs else "; ".join(errs[:2]))


def check_7_isospectral(float_tol=None):
    tol = float_tol if float_tol is not None else 1e-8
    t0 = time.perf_counter()
    errs = []
    rng = np.random.default_rng(7)
    a = list(rng.uniform(0.6, 1.4, 3))
    b = list(rng.uniform(-0.5, 0.5, 3))
    pencil, B = lf.toda_periodic_pencil(a, b)
    traj = lf.integrate_lax(pencil, B, 1.0, 1e-3, sample_every=200)
    d_toda = lf.isospectral_drift(traj, [1.0, -1.0, 0.5], 3)
    if d_toda >= tol:
        errs.append(f"toda drift {d_toda:.2e} >= {tol}")
    pe, Be = bi.builtin("euler-arnold", n=4, seed=7)
    traj_e = lf.integrate_lax(pe, Be, 1.0, 1e-3, sample_every=200)
    d_ea = lf.isospectral_drift(traj_e, [1.0, -1.0, 0.5], 4)
    if d_ea >= tol:
        errs.append(f"euler-arnold drift {d_ea:.2e} >= {tol}")
    # measured convergence order under dt halving, on a coarse grid where
    # truncation error dominates roundoff: the state error must show the
    # scheme's fourth order (ratio 16 +- 25%); the invariant drift decays
    # at least that fast (it superconverges on these flows, so only the
    # lower edge of the window is a meaningful constraint for it)
    ref = lf.integrate_lax(pencil, B, 1.0, 1e-4,
                           sample_every=10 ** 6).pencils[-1]
    state_errs = []
    drifts = []
    for dt in (0.04, 0.02):
        steps = int(round(1.0 / dt))
        tr = lf.integrate_lax(pencil, B, 1.0, dt,
                              sample_every=max(1, steps // 10))
        fin = tr.pencils[-1]
        state_errs.append(max(
            float(np.max(np.abs(fin.coeffs[k] - ref.coeffs[k])))
            for k in fin.coeffs))
        drifts.append(lf.isospectral_drift(tr, [1.0, -1.0, 0.5], 3))
    ratio = state_errs[0] / state_errs[1]
    drift_ratio = drifts[0] / drifts[1]
    if not (12.0 <= ratio <= 20.0):
        errs.append(f"dt-halving state-error ratio {ratio:.1f} outside 16 +- 25%")
    if drift_ratio < 12.0:
        errs.append(f"drift ratio {drift_ratio:.1f} below fourth order")
    dt_w = time.perf_counter() - t0
    ok = not errs and dt_w < 20.0
    return ok, (f"toda {d_toda:.1e}, euler-arnold {d_ea:.1e}, order ratio "
                f"{ratio:.1f}, drift ratio {drift_ratio:.1f} ({dt_w:.1f}s)"
                if not errs else "; ".join(errs[:2]))


def check_8_jacobi_suite(float_tol=None):
    tol_st = float_tol if float_tol is not None else 1e-6
    tol_mass = float_tol if float_tol is not None else 1e-8
    t0 = time.perf_counter()
    errs = []
    rng = np.random.default_rng(8)
    for N in (2, 3, 4):
        a = [F(int(rng.integers(4, 17)), 8) for _ in range(N)]
        b = [F(int(rng.integers(-6, 7)), 8) for _ in range(N)]
        m = js.PeriodicJacobi(a, b)
        data = js.spectral_data(m)
        if not data.interlacing_ok():
            errs.append(f"N={N}: interlacing failed")
            continue
        a0 = a[-1]
        measure = js.measure_decompose(m, a0, data=data)
        mass = measure.total_mass()
        if abs(mass - float(a0) ** 2) >= tol_mass:
            errs.append(f"N={N}: mass error {abs(mass - float(a0)**2):.2e}")
        from .cli import _stieltjes_grid
        worst = 0.0
        for z in _stieltjes_grid(data, count=20, dist=1.0):
            frac = js.gamma_fraction(a, b, a0, z, 200)
            worst = max(worst, abs(measure.cauchy_transform(z) - frac))
        if worst >= tol_st:
            errs.append(f"N={N}: stieltjes error {worst:.2e}")
        mom = js.moments(a, b, a0, 10)
        for k in range(1, 6):
            if js.pade_series(a, b, a0, k, 2 * k) != mom[: 2 * k]:
                errs.append(f"N={N}: pade k={k} does not match 2k moments")
    dt = time.perf_counter() - t0
    ok = not errs and dt < 60.0
    return ok, (f"N=2,3,4: interlacing, stieltjes<=1e-6, mass=a0^2, "
                f"pade==moments exact ({dt:.1f}s)"
                if not errs else "; ".join(errs[:2]))


def check_9_dimension_arithmetic(float_tol=None):
    expect = {3: {"dim_orbit": 2, "genus_C": 1, "genus_C0": 0, "dim_prym": 1},
              4: {"dim_orbit": 4, "genus_C": 3, "genus_C0": 1, "dim_prym": 2},
              5: {"dim_orbit": 8, "genus_C": 6, "genus_C0": 2, "dim_prym": 4}}
    errs = []
    for n, want in expect.items():
        got = lf.rigid_body_dims(n)
        if got != want:
            errs.append(f"n={n}: {got} != {want}")
    for n in range(3, 51):
        d = lf.rigid_body_dims(n)
        if 2 * d["dim_prym"] != d["dim_orbit"]:
            errs.append(f"n={n}: prym != orbit/2")
    return not errs, ("spot values n=3,4,5 and prym = orbit/2 for n<=50"
                      if not errs else "; ".join(errs[:2]))


def check_10_negative_controls(float_tol=None):
    errs = []
    rng = np.random.default_rng(10)
    a = list(rng.uniform(0.6, 1.4, 3))
    b = list(rng.uniform(-0.5, 0.5, 3))
    pencil, B = lf.toda_periodic_pencil(a, b)
    # deliberately non-Lax flow dA/dt = B(A): spectra must drift
    lo = pencil.lo
    _, states = lf.rk4(lambda y: B(lf.MatrixPencil.from_blocks(lo, y)).blocks,
                       pencil.blocks, 1.0, 1e-3, 1000, np.inf)
    A = lf.MatrixPencil.from_blocks(lo, states[-1])
    drift = max(abs(x - y) for x, y in
                zip(lf.trace_powers(A, 1.0, 3), lf.trace_powers(pencil, 1.0, 3)))
    if drift <= 1e-3:
        errs.append(f"non-commutator flow drift {drift:.2e} not > 1e-3")
    # corrupted Poisson matrix must fail the Jacobi identity with a witness
    system = bi.builtin_system("kvm")
    bad = [row[:] for row in system.poisson]
    bad[0][1] = -bad[0][1]          # break skew-consistency of the bracket
    from dataclasses import replace
    broken = replace(system, poisson=bad)
    ok, witnesses = lf.jacobi_identity_check(broken)
    if ok or not witnesses:
        errs.append("corrupted bracket passed the Jacobi identity")
    ok2, w2 = lf.jacobi_identity_check(system)
    if not ok2:
        errs.append("genuine bracket failed the Jacobi identity")
    return not errs, (f"drift {drift:.1e} > 1e-3; witness {witnesses[0][0]}"
                      if not errs else "; ".join(errs[:2]))


CHECKS = [
    ("1 painleve golden series (henon-heiles)", check_1_hh_series, "painleve"),
    ("2 painleve golden series (rdg, 5-variable)", check_2_rdg_series, "painleve"),
    ("3 constraint curves", check_3_constraint_curves, "painleve"),
    ("4 parameter counts", check_4_parameter_counts, "painleve"),
    ("5 invariant weights in spectrum", check_5_weight_eigenvalues, "painleve"),
    ("6 involution suite", check_6_involution, "painleve"),
    ("7 isospectral drift + order", check_7_isospectral, "flow"),
    ("8 jacobi spectral suite", check_8_jacobi_suite, "jacobi"),
    ("9 rigid-body dimensions", check_9_dimension_arithmetic, "dims"),
    ("10 negative controls", check_10_negative_controls, "flow"),
]


def run_all(only: Optional[str] = None, float_tol: Optional[float] = None):
    results = []
    for name, fn, group in CHECKS:
        if only and group != only:
            continue
        try:
            ok, detail = fn(float_tol=float_tol)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
