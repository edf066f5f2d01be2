from dataclasses import replace
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from laxkit import painleve as pv
from laxkit.acceptance import _principal_families
from laxkit.builtins import _SYSTEM_FILES, builtin_system, painleve_meta
from laxkit.exactalg import MultiPoly, PuiseuxSeries, nullspace, poly_on_series
from laxkit.painleve import (Balance, FamilyNotPolynomial,
                             PainleveObstruction, PolarPartError, analyze,
                             constraint_curve, detect_weights,
                             dominant_part, family_residual, indicial_solve,
                             invariant_series, invariant_weight, kowalewski,
                             propagate, solve_poly_system)
from laxkit.sysdsl import VectorFieldSystem, parse_system


def weights_of(sys_):
    return {tuple(w.weights) for w in detect_weights(sys_)}


def test_weights_kvm_all_one():
    sys_ = builtin_system("kvm")
    wvs = detect_weights(sys_)
    assert len(wvs) == 1
    wv = wvs[0]
    assert tuple(wv.weights) == (F(1),) * 5
    # every monomial dominant, nothing lower order
    assert all(len(l) == 0 for l in wv.lower_terms)
    assert all(len(s) == 2 for s in wv.dominant_support)


def test_weights_rdg_two_vectors():
    sys_ = builtin_system("rdg")
    ws = weights_of(sys_)
    assert (F(1), F(1), F(2), F(2)) in ws         # everything dominant
    assert (F(1, 2), F(1), F(3, 2), F(2)) in ws   # resolved fractional vector


def test_weights_henon_heiles_fractional_with_lower_terms():
    sys_ = builtin_system("henon-heiles")
    wvs = {tuple(w.weights): w for w in detect_weights(sys_)}
    assert (F(1, 2), F(2), F(3, 2), F(3)) in wvs
    wv = wvs[(F(1, 2), F(2), F(3, 2), F(3))]
    # the coupling-constant terms are recorded as lower order, and the
    # quadratic y1^2 term of the x2 equation is lower order as well
    assert len(wv.lower_terms[2]) == 1   # A*y1
    assert len(wv.lower_terms[3]) == 2   # A*y2, y1^2
    assert len(wv.dominant_support[3]) == 1


def test_weights_harmonic_none():
    # linear system: weight constraints are inconsistent, no movable pole
    assert detect_weights(builtin_system("harmonic")) == []


def test_indicial_henon_heiles_leading_values():
    sys_ = builtin_system("henon-heiles")
    meta = painleve_meta("henon-heiles")
    wv = [w for w in detect_weights(sys_)
          if tuple(w.weights) == meta["weights"]][0]
    bals = indicial_solve(sys_, wv)
    principal = [b for b in bals if "y1" in b.free_symbols]
    assert len(principal) == 1
    b = principal[0]
    lead = dict(zip(sys_.variables, b.leading))
    assert lead["y2"] == MultiPoly.const(F(-3, 8))
    assert lead["x2"] == MultiPoly.const(F(3, 4))
    assert lead["x1"] == MultiPoly.var("y1") * F(-1, 2)


def test_indicial_rdg_sheets():
    sys_ = builtin_system("rdg")
    meta = painleve_meta("rdg")
    wv = [w for w in detect_weights(sys_)
          if tuple(w.weights) == meta["weights"]][0]
    bals = [b for b in indicial_solve(sys_, wv) if "q1" in b.free_symbols]
    labels = {b.label for b in bals}
    assert labels == {"q2=1/2", "q2=-1/2"}
    for b in bals:
        lead = dict(zip(sys_.variables, b.leading))
        assert lead["q2"].const_value() in (F(1, 2), F(-1, 2))


def test_balance_satisfies_indicial_system_exactly():
    sys_ = builtin_system("kvm")
    wv = detect_weights(sys_)[0]
    for b in indicial_solve(sys_, wv):
        fdom = dominant_part(sys_, wv)
        env = dict(zip(sys_.variables, b.leading))
        for i in range(sys_.dim):
            expr = MultiPoly.const(wv.weights[i]) * b.leading[i] + fdom[i].subs(env)
            assert expr.is_zero


def test_kowalewski_kvm_spectrum_and_kernels():
    sys_ = builtin_system("kvm")
    wv = detect_weights(sys_)[0]
    bal = [b for b in indicial_solve(sys_, wv)
           if sum(1 for z in b.leading if z.is_zero) == 1][0]
    kd = kowalewski(sys_, bal)
    assert kd.rational_spectrum() == [F(-2), F(-1), F(1), F(2), F(5)]
    # the classical resonances: the positive integer eigenvalues
    assert [r for r in kd.rational_spectrum()
            if r >= 1 and r.denominator == 1] == [1, 2, 5]
    assert len(kd.nonrational_factor) == 1  # spectrum fully rational
    for r in (F(1), F(2), F(5)):
        # each resonance has a one-dimensional kernel of rI - L
        M = [[MultiPoly.const(r if i == j else 0) - kd.matrix[i][j]
              for j in range(5)] for i in range(5)]
        free, basis = nullspace(M)
        assert len(free) == len(basis) == 1
        v = basis[0]
        for i in range(5):
            s = MultiPoly.zero()
            for j in range(5):
                s = s + M[i][j] * v[j]
            assert s.is_zero


def test_invariant_weight_matches_spectrum():
    sys_ = builtin_system("kvm")
    wv = detect_weights(sys_)[0]
    ws = {nm: invariant_weight(sys_, nm, wv) for nm in sys_.invariants}
    assert ws == {"H1": F(2), "H2": F(1), "H3": F(5)}
    bal = [b for b in indicial_solve(sys_, wv)
           if sum(1 for z in b.leading if z.is_zero) == 1][0]
    spec = set(kowalewski(sys_, bal).rational_spectrum())
    assert set(ws.values()) <= spec


def test_rdg_resonances_match_parameter_count():
    sys_ = builtin_system("rdg")
    meta = painleve_meta("rdg")
    wv = [w for w in detect_weights(sys_)
          if tuple(w.weights) == meta["weights"]][0]
    bal = [b for b in indicial_solve(sys_, wv) if meta["principal"](b)][0]
    kd = kowalewski(sys_, bal)
    nonneg = [r for r, _ in kd.rational_eigs if r >= 0 and r.denominator <= 2]
    assert sorted(nonneg) == [F(0), F(2), F(4)]


def test_propagate_residual_is_zero():
    sys_ = builtin_system("kvm")
    wv = detect_weights(sys_)[0]
    bal = [b for b in indicial_solve(sys_, wv)
           if sum(1 for z in b.leading if z.is_zero) == 1][0]
    fam = propagate(sys_, bal, 7)
    assert family_residual(fam) == []
    assert fam.count_free_parameters() == (3, 4)


def test_invariants_exactly_constant_along_families():
    # stronger than polar-part vanishing: a conserved quantity evaluated on
    # a genuine Laurent solution is constant, so EVERY nonzero-exponent
    # coefficient must vanish identically through the validity window
    for name in ("kvm", "henon-heiles", "rdg", "rdg5"):
        sys_ = builtin_system(name)
        meta = painleve_meta(name)
        wv = [w for w in detect_weights(sys_)
              if tuple(w.weights) == meta["weights"]][0]
        bal = [b for b in indicial_solve(sys_, wv) if meta["principal"](b)][0]
        bal = bal.rename_free(meta.get("rename", {}))
        fam = propagate(sys_, bal, meta["order"],
                        resonance_names=meta.get("resonance_names"),
                        resonance_slots=meta.get("resonance_slots"))
        for nm in sys_.invariants:
            S = invariant_series(fam, nm)
            assert S.valid > 0
            for e, c in S.terms():
                assert e == 0 or c.is_zero, (name, nm, e)


def test_non_invariant_detected_by_polar_part():
    sys_ = builtin_system("kvm")
    from dataclasses import replace
    broken = replace(sys_, invariants=dict(sys_.invariants,
                                           FAKE=MultiPoly.var("x1") ** 2))
    wv = detect_weights(broken)[0]
    bal = [b for b in indicial_solve(broken, wv)
           if sum(1 for z in b.leading if z.is_zero) == 1 and
           not b.leading[0].is_zero][0]
    fam = propagate(broken, bal, 6)
    with pytest.raises(PolarPartError):
        constraint_curve(broken, fam, ["FAKE"])


def test_obstruction_with_certificate():
    sys_ = parse_system("""
system damped
vars z1 z2
eq z1 = z2
eq z2 = 6*z1^2 + z2
""")
    bal = indicial_solve(sys_, detect_weights(sys_)[0])[0]
    with pytest.raises(PainleveObstruction) as exc:
        propagate(sys_, bal, 8)
    assert exc.value.step == 6
    assert exc.value.pairing == MultiPoly.const(F(3, 3125))
    assert exc.value.certificate is not None


def test_elliptic_counterpart_passes():
    sys_ = parse_system("""
system elliptic
vars z1 z2
eq z1 = z2
eq z2 = 6*z1^2 + z1
""")
    bal = indicial_solve(sys_, detect_weights(sys_)[0])[0]
    fam = propagate(sys_, bal, 8)
    assert fam.series["z1"].coeff(0) == MultiPoly.const(F(-1, 12))
    assert fam.series["z1"].coeff(2) == MultiPoly.const(F(1, 240))


def test_family_not_polynomial_raised_then_specialization_works():
    sys_ = builtin_system("hh5")
    meta = painleve_meta("hh5")
    wv = [w for w in detect_weights(sys_)
          if tuple(w.weights) == meta["weights"]][0]
    bal = [b for b in indicial_solve(sys_, wv) if meta["principal"](b)][0]
    bal = bal.rename_free(meta["rename"])
    with pytest.raises(FamilyNotPolynomial):
        propagate(sys_, bal, 8)
    fam = propagate(sys_, bal.specialize(meta["specialize"]), 8)
    explicit, with_t0 = fam.count_free_parameters()
    # 3 resonance parameters + the specialized balance symbol = m - 1
    assert explicit + len(meta["specialize"]) == 4
    assert [j for j, _ in fam.resonances] == [2, 4, 6]


def test_solver_branch_labels():
    x = MultiPoly.var("x")
    sols = solve_poly_system([x ** 2 - MultiPoly.const(F(1, 4))], ["x"])
    roots = {s["x"].const_value() for s, _ in sols}
    assert roots == {F(1, 2), F(-1, 2)}
    assert all(choices for _, choices in sols)


def test_analyze_report_shape():
    sys_ = builtin_system("rdg")
    rep = analyze(sys_, 6, builtin_meta=painleve_meta("rdg"))
    assert rep["system"] == "rdg"
    assert len(rep["balances"]) == 2
    for entry in rep["balances"]:
        assert entry["parameter_count"]["explicit"] == 3
        assert entry["parameter_count"]["with_time_origin"] == 4
        assert "series" in entry and "q1" in entry["series"]
        assert "constraint" in entry and entry["constraint"]["curve"]


def test_propagate_default_order_and_low_order_rejected():
    sys_ = builtin_system("kvm")
    wv = detect_weights(sys_)[0]
    bal = [b for b in indicial_solve(sys_, wv)
           if sum(1 for z in b.leading if z.is_zero) == 1][0]
    fam = propagate(sys_, bal)           # default: max resonance + 4
    assert fam.series["x1"].valid == -1 + 9 + 1
    with pytest.raises(ValueError, match="resonance"):
        propagate(sys_, bal, 3)


def test_weight_homogeneous_invariants_with_nonzero_gradient_hit_spectrum():
    # the eigenvalue property, stated with its genuine hypothesis: the
    # invariant's gradient must not vanish at the balance
    for name in ("kvm", "rdg", "rdg5"):
        sys_ = builtin_system(name)
        meta = painleve_meta(name)
        wv = [w for w in detect_weights(sys_)
              if tuple(w.weights) == meta["weights"]][0]
        for bal in indicial_solve(sys_, wv):
            if not meta["principal"](bal):
                continue
            spec = set(kowalewski(sys_, bal).rational_spectrum())
            env = dict(zip(sys_.variables, bal.leading))
            for nm, H in sys_.invariants.items():
                k = invariant_weight(sys_, nm, wv)
                if k is None:
                    continue
                grad = [H.diff(v).subs(env) for v in sys_.variables]
                if all(g.is_zero for g in grad):
                    continue
                assert k in spec, (name, nm, k, spec)


def test_solver_polynomial_coefficient_elimination():
    # (x+1)(y-1) = 0 and (x+1)(y^2-4) = 0: the only branch that survives
    # is x = -1 with y free (y=1 forces y^2=4, impossible); reaching it
    # needs elimination with a polynomial pivot coefficient
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    e1 = x * y + y - x - 1
    e2 = x * y ** 2 + y ** 2 - 4 * x - 4
    sols = solve_poly_system([e1, e2], ["x", "y"])
    assert len(sols) == 1
    sol, _ = sols[0]
    assert sol["x"] == MultiPoly.const(-1)
    assert "y" not in sol


@pytest.mark.parametrize("swap", [False, True])
def test_solver_back_substitutes_into_values_bound_earlier(swap):
    # y = x binds first; (x - 1)(z + 1) then leaves x linear with the
    # polynomial coefficient z + 1, and on z + 1 != 0 its value x = 1 must
    # reach y too, in either equation order
    x, y, z = (MultiPoly.var(n) for n in "xyz")
    eqs = [y - x, (x - 1) * (z + 1)]
    sols = solve_poly_system(eqs[::-1] if swap else eqs, ["x", "y", "z"])
    got = [{k: str(v) for k, v in sol.items()} for sol, _ in sols]
    assert len(got) == 2
    assert {"x": "1", "y": "1"} in got and {"y": "x", "z": "-1"} in got


def test_kvm5_file_balances_closed_under_cyclic_shift():
    # kvm5.ivf is invariant under the cyclic shift of x1..x5, and so is its
    # set of balances at weight (1,...,1): the 5 rotations each of
    # (-1, 1, 0, 0, 0) and (-2, 1, -1, 2, 0)
    sys_ = parse_system(resources.files("laxkit.systems")
                        .joinpath(_SYSTEM_FILES["kvm"]).read_text())
    wv, = [w for w in detect_weights(sys_) if w.weights == (F(1),) * 5]
    bals = indicial_solve(sys_, wv)
    leads = {tuple(z.const_value() for z in b.leading) for b in bals}
    assert len(bals) == 10
    want = {tuple(v[i:] + v[:i]) for v in ((-1, 1, 0, 0, 0), (-2, 1, -1, 2, 0))
            for i in range(5)}
    assert leads == want


def test_solver_records_algebraic_branches():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    dropped = []
    sols = solve_poly_system([x ** 2 * y + x + 1, x * y ** 2 - 2], ["x", "y"],
                             algebraic_out=dropped)
    assert sols == []
    assert dropped, "the irrational branch must be reported"


def test_pattern_budget_error_names_the_count():
    # 5 equations of 4 monomials: (2^4 - 1)^5 = 759375 dominant-support patterns
    sys_ = parse_system(WIDE_SYSTEM)
    with pytest.raises(ValueError, match="759375 dominant-support patterns"
                       ".*max_patterns=200000"):
        detect_weights(sys_)


WIDE_SYSTEM = """
system wide
vars z1 z2 z3 z4 z5
eq z1 = z2^2 + z3^2 + z4^2 + z5^2
eq z2 = z1^2 + z3^2 + z4^2 + z5^2
eq z3 = z1^2 + z2^2 + z4^2 + z5^2
eq z4 = z1^2 + z2^2 + z3^2 + z5^2
eq z5 = z1^2 + z2^2 + z3^2 + z4^2
"""


# ---------------------------------------------------------------------------
# relaxed propagation against the full-series computation of psi
# ---------------------------------------------------------------------------

class FullSeriesRhs:
    """Reference for painleve._RelaxedSystem: at every step, rebuild each
    variable's truncated series (index j padded with zero) and substitute
    it into every equation."""

    def __init__(self, sys_, m, ell, leading):
        self.sys, self.m, self.ell = sys_, m, ell
        self.coef = [[z] for z in leading]

    def provisional(self, j):
        m, ell = self.m, self.ell
        env = {v: PuiseuxSeries(ell, -m[i], self.coef[i] + [MultiPoly.zero()],
                                -m[i] + j + 1)
               for i, v in enumerate(self.sys.variables)}
        return [poly_on_series(f, env, ell, const_valid=j + 2)
                .coeff(F(j - m[i] - ell, ell))
                for i, f in enumerate(self.sys.equations)]

    def extend(self, zj):
        for c, z in zip(self.coef, zj):
            c.append(z)


def _outcome(sys_, bal, order, meta):
    try:
        fam = propagate(sys_, bal, order,
                        resonance_names=meta.get("resonance_names"),
                        resonance_slots=meta.get("resonance_slots"))
    except (PainleveObstruction, FamilyNotPolynomial) as exc:
        return type(exc), exc.step, getattr(exc, "pairing", None)
    return fam.series, fam.free_parameters, fam.resonances


def _assert_same_as_reference(monkeypatch, sys_, bal, order, meta):
    got = _outcome(sys_, bal, order, meta)
    with monkeypatch.context() as mp:
        mp.setattr(pv, "_RelaxedSystem", FullSeriesRhs)
        want = _outcome(sys_, bal, order, meta)
    assert got == want


def _balances(name):
    sys_ = builtin_system(name)
    meta = painleve_meta(name)
    wv = [w for w in detect_weights(sys_)
          if tuple(w.weights) == meta["weights"]][0]
    for bal in indicial_solve(sys_, wv):
        bal = bal.rename_free(meta.get("rename", {}))
        yield sys_, meta, bal
        if meta.get("specialize"):
            yield sys_, meta, bal.specialize(meta["specialize"])


@pytest.mark.parametrize("name", sorted(n for n in _SYSTEM_FILES
                                        if n != "harmonic"))
def test_relaxed_propagation_matches_full_series(monkeypatch, name):
    # every balance of the principal weight vector (both rdg5 sheets, hh5
    # before and after its specialization) at the builtin's default order
    for sys_, meta, bal in _balances(name):
        _assert_same_as_reference(monkeypatch, sys_, bal, meta["order"], meta)


def test_relaxed_propagation_matches_full_series_deep(monkeypatch):
    # henon-heiles steps in t^(1/2): order 16 is 32 steps
    for sys_, meta, bal in _balances("henon-heiles"):
        _assert_same_as_reference(monkeypatch, sys_, bal, 16, meta)


def test_relaxed_propagation_matches_full_series_obstruction(monkeypatch):
    sys_ = parse_system("""
system damped
vars z1 z2
eq z1 = z2
eq z2 = 6*z1^2 + z2
""")
    bal = indicial_solve(sys_, detect_weights(sys_)[0])[0]
    _assert_same_as_reference(monkeypatch, sys_, bal, 8, {})


# ---------------------------------------------------------------------------
# the t^0 window of constraint_curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(
    n for n in _SYSTEM_FILES
    if n != "harmonic" and painleve_meta(n).get("curve_invariants")))
def test_constraint_relations_are_t0_of_invariant_series(name):
    system, meta, fams = _principal_families(name)
    for _, fam in fams:
        cv = constraint_curve(system, fam, meta["curve_invariants"],
                              value_names=meta["value_names"])
        want = [invariant_series(fam, nm).coeff(0) - MultiPoly.var(b)
                for nm, b in zip(meta["curve_invariants"], meta["value_names"])]
        assert cv.relations == want


def test_constraint_order_too_low_matches_full_window():
    # cut every series c steps past its first term: where the full
    # invariant series no longer reaches t^0 the "order too low" error
    # fires, and everywhere else the relation is its t^0 coefficient
    system, meta, fams = _principal_families("henon-heiles")
    _, fam = fams[0]
    seen = set()
    for c in range(1, 20):
        cut = replace(fam, series={v: s.truncate(s.k0 + c)
                                   for v, s in fam.series.items()})
        full = invariant_series(cut, "H1")
        if full.valid <= 0:
            seen.add("low")
            with pytest.raises(ValueError, match="series order too low"):
                constraint_curve(system, cut, ["H1"], value_names=["b1"])
        else:
            seen.add("ok")
            cv = constraint_curve(system, cut, ["H1"], value_names=["b1"],
                                  eliminate=[])
            assert cv.relations == [full.coeff(0) - MultiPoly.var("b1")]
    assert seen == {"low", "ok"}
    # a series that H does not contain still bounds the constant window
    spare = replace(fam, series=dict(fam.series,
                                     spare=PuiseuxSeries.zero(fam.ell, 0)))
    assert invariant_series(spare, "H1").valid == 0
    with pytest.raises(ValueError, match="series order too low"):
        constraint_curve(system, spare, ["H1"], value_names=["b1"])


# -- the weight search against the brute-force pattern loop --------------------
#
# detect_weights walks the dominant-support patterns depth-first and drops a
# prefix whose weight equations are inconsistent with all its extensions.
# This is the search as it was first written: every pattern of
# itertools.product, each solved from scratch.

def reference_detect_weights(sys_, max_patterns=200000):
    import itertools
    from laxkit.exactalg.linalg import rref_extend, rref_solution
    nvar = len(sys_.variables)
    vidx = {v: i for i, v in enumerate(sys_.variables)}
    eq_keys = [sorted(f.terms.keys()) for f in sys_.equations]
    if any(not ks for ks in eq_keys):
        return []
    total = 1
    for ks in eq_keys:
        total *= (2 ** len(ks)) - 1
    if total > max_patterns:
        raise ValueError(f"{total} dominant-support patterns to enumerate, "
                         f"more than max_patterns={max_patterns}")

    def subsets(ks):
        for r in range(1, len(ks) + 1):
            yield from itertools.combinations(ks, r)

    found = {}
    for pattern in itertools.product(*[list(subsets(ks)) for ks in eq_keys]):
        aug = []
        for i, subset in enumerate(pattern):
            for key in subset:
                row = [F(0)] * nvar + [F(1)]
                for n, e in key:
                    if n in vidx:
                        row[vidx[n]] += e
                row[i] -= 1
                aug.append(row)
        rref = rref_extend({}, aug)
        if rref is None:
            continue
        part, basis = rref_solution(rref, nvar)
        if not basis:
            candidates = [tuple(part)]
        else:
            candidates = pv._resolve_weight_family(sys_, pattern, part, basis)
        for w in candidates:
            if any(x <= 0 for x in w):
                continue
            cs = pv._canonical_support(sys_, w)
            if cs is None:
                continue
            if w not in found:
                found[w] = pv.WeightVector(weights=tuple(w),
                                           dominant_support=cs[0],
                                           lower_terms=cs[1])
    return sorted(found.values(), key=lambda wv: (sorted(wv.weights), wv.weights))


def _search_outcome(search, sys_, **kw):
    """What a weight search returns or raises, and the arguments it passes
    to _resolve_weight_family and _canonical_support, in call order."""
    calls = []
    resolve, support = pv._resolve_weight_family, pv._canonical_support

    def recorded(name, fn):
        def call(sys_arg, *args):
            calls.append((name, args))
            return fn(sys_arg, *args)
        return call

    pv._resolve_weight_family = recorded("resolve", resolve)
    pv._canonical_support = recorded("support", support)
    try:
        got = [(w.weights, w.dominant_support, w.lower_terms)
               for w in search(sys_, **kw)]
    except (ValueError, RuntimeError) as exc:
        got = type(exc), str(exc)
    finally:
        pv._resolve_weight_family, pv._canonical_support = resolve, support
    return got, calls


def _weight_system(eqs):
    names = tuple(f"x{i + 1}" for i in range(len(eqs)))
    return VectorFieldSystem(name="s", variables=names, constants=("c",),
                             equations=tuple(eqs), invariants={})


@st.composite
def small_vector_fields(draw):
    """2-5 variables, at most 400 dominant-support patterns; exponents up
    to 2, about half the monomials of equation i divisible by x_i
    (Lotka-Volterra form), and now and then a constant symbol c, which
    carries no weight."""
    n = draw(st.integers(2, 5))
    names = [f"x{i + 1}" for i in range(n)]
    eqs, patterns = [], 1
    for i in range(n):
        budget = 400 // patterns // 3 ** (n - 1 - i)
        most = max(k for k in (1, 2, 3) if 2 ** k - 1 <= budget)
        p = MultiPoly.zero()
        for _ in range(draw(st.integers(1, most))):
            exps = {v: draw(st.integers(0, 2)) for v in names}
            exps[names[i]] = max(exps[names[i]], draw(st.integers(0, 1)))
            if draw(st.integers(0, 5)) == 0:
                exps["c"] = 1
            p = p + MultiPoly.monomial(draw(st.sampled_from([-3, -1, 1, 2])),
                                       **exps)
        assume(not p.is_zero)
        patterns *= 2 ** len(p.terms) - 1
        eqs.append(p)
    return _weight_system(eqs)


@settings(max_examples=100, deadline=None)
@given(small_vector_fields(), st.integers(20, 400))
def test_weight_search_matches_brute_force(sys_, max_patterns):
    kw = {"max_patterns": max_patterns}
    assert _search_outcome(detect_weights, sys_, **kw) == \
        _search_outcome(reference_detect_weights, sys_, **kw)


def test_weight_search_keeps_weights_of_non_closed_patterns():
    # (1, 1/3, 1) comes only from the pattern ({x1x3}, {x1x2}, {x1x3}), on
    # whose weight family x1^2 is dominant too: resolving only the closed
    # patterns of each family would lose it
    x1, x2, x3 = (MultiPoly.var(f"x{i}") for i in (1, 2, 3))
    sys_ = _weight_system([x1 * x3, -x1 * x2,
                    -x2 ** 3 + x1 ** 2 - 3 * x1 * x3 - 3 * x2 * x3])
    want = [(F(1), F(1, 3), F(1)), (F(1), F(2, 3), F(1))]
    assert [w.weights for w in detect_weights(sys_)] == want
    assert _search_outcome(detect_weights, sys_) == \
        _search_outcome(reference_detect_weights, sys_)


def test_propagate_refuses_order_above_cap(monkeypatch):
    system = builtin_system("henon-heiles")
    bal = pv.indicial_solve(system, pv.detect_weights(system)[0])[0]
    monkeypatch.setattr(pv, "MAX_ORDER", 5)
    with pytest.raises(ValueError, match="MAX_ORDER = 5"):
        pv.propagate(system, bal, order=6)
