from dataclasses import replace
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from laxkit import painleve as pv
from laxkit.builtins import (PAINLEVE, _SYSTEM_FILES, PainleveConventions,
                             builtin_system)
from laxkit.exactalg import MultiPoly, PuiseuxSeries, nullspace, poly_on_series
from laxkit.painleve import (Balance, FamilyNotPolynomial,
                             PainleveObstruction, PolarPartError, analyze,
                             constraint_curve, detect_weights,
                             dominant_part, family_residual, indicial_solve,
                             invariant_series, invariant_weight, kowalewski,
                             principal_balances, principal_family, propagate,
                             solve_poly_system)
from laxkit.sysdsl import VectorFieldSystem, parse_system


def weights_of(sys_):
    return {tuple(w.weights) for w in detect_weights(sys_)}


def principal_families(name):
    """The system of a builtin and the families of its principal balances."""
    system, conv = builtin_system(name), PAINLEVE[name]
    return system, [principal_family(system, bal, conv)[0]
                    for bal in principal_balances(system, conv)]


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
    principal = principal_balances(sys_, PAINLEVE["henon-heiles"])
    assert len(principal) == 1
    b = principal[0]
    assert b.free_symbols == ("alpha",)          # y1 renamed
    lead = dict(zip(sys_.variables, b.leading))
    assert lead["y2"] == MultiPoly.const(F(-3, 8))
    assert lead["x2"] == MultiPoly.const(F(3, 4))
    assert lead["x1"] == MultiPoly.var("alpha") * F(-1, 2)


def test_indicial_rdg_sheets():
    sys_ = builtin_system("rdg")
    bals = principal_balances(sys_, PAINLEVE["rdg"])
    labels = {b.label for b in bals}
    assert labels == {"q2=1/2", "q2=-1/2"} == set(PAINLEVE["rdg"].sheets)
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
    bal = principal_balances(sys_, PAINLEVE["rdg"])[0]
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
        sys_, conv = builtin_system(name), PAINLEVE[name]
        fam, _ = principal_family(sys_, principal_balances(sys_, conv)[0], conv)
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
    conv = PAINLEVE["hh5"]
    bal = principal_balances(sys_, conv)[0]
    with pytest.raises(FamilyNotPolynomial):
        propagate(sys_, bal, 8)
    fam, values = principal_family(sys_, bal, conv, 8)
    assert values == {"alpha": 1}
    explicit, with_t0 = fam.count_free_parameters()
    # 3 resonance parameters + the specialized balance symbol = m - 1
    assert explicit + len(values) == 4
    assert [j for j, _ in fam.resonances] == [2, 4, 6]
    # the default specialization puts every free symbol at 1
    assert principal_family(sys_, bal, PainleveConventions(), 8)[1] == values


def test_principal_family_specializes_only_on_failure():
    # alpha stays symbolic in a family that is polynomial in it
    sys_ = builtin_system("henon-heiles")
    bal = principal_balances(sys_, PAINLEVE["henon-heiles"])[0]
    fam, values = principal_family(sys_, bal, PainleveConventions(), 8)
    assert values == {}
    assert "alpha" in fam.free_parameters


def test_default_conventions_keep_every_balance():
    sys_ = builtin_system("rdg")
    want = [b for wv in detect_weights(sys_) for b in indicial_solve(sys_, wv)]
    assert len(want) > 2
    assert principal_balances(sys_, PainleveConventions()) == want


def test_solver_branch_labels():
    x = MultiPoly.var("x")
    sols = solve_poly_system([x ** 2 - MultiPoly.const(F(1, 4))], ["x"])
    roots = {s["x"].const_value() for s, _ in sols}
    assert roots == {F(1, 2), F(-1, 2)}
    assert all(choices for _, choices in sols)


def test_analyze_report_shape():
    sys_ = builtin_system("rdg")
    rep = analyze(sys_, 6, PAINLEVE["rdg"])
    assert rep["system"] == "rdg"
    assert len(rep["balances"]) == 2
    assert {entry["label"] for entry in rep["balances"]} == {"eps=+1", "eps=-1"}
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
        for bal in principal_balances(sys_, PAINLEVE[name]):
            spec = set(kowalewski(sys_, bal).rational_spectrum())
            env = dict(zip(sys_.variables, bal.leading))
            for nm, H in sys_.invariants.items():
                k = invariant_weight(sys_, nm, bal.weight_vector)
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


def _outcome(sys_, bal, order, conv):
    try:
        fam = propagate(sys_, bal, order,
                        resonance_names=conv.resonance_names,
                        resonance_slots=conv.resonance_slots)
    except (PainleveObstruction, FamilyNotPolynomial) as exc:
        return type(exc), exc.step, getattr(exc, "pairing", None)
    return fam.series, fam.free_parameters, fam.resonances


def _assert_same_as_reference(monkeypatch, sys_, bal, order, conv):
    got = _outcome(sys_, bal, order, conv)
    with monkeypatch.context() as mp:
        mp.setattr(pv, "_RelaxedSystem", FullSeriesRhs)
        want = _outcome(sys_, bal, order, conv)
    assert got == want


def _balances(name):
    """Every balance of a builtin's principal weight vector, renamed, and
    each of hh5's specialized too at alpha = 1, as principal_family
    propagates its family, which is rational in alpha."""
    sys_, conv = builtin_system(name), PAINLEVE[name]
    for bal in principal_balances(sys_, replace(conv, principal=None)):
        yield sys_, conv, bal
        if name == "hh5":
            yield sys_, conv, bal.specialize({"alpha": 1})


@pytest.mark.parametrize("name", sorted(n for n in _SYSTEM_FILES
                                        if n != "harmonic"))
def test_relaxed_propagation_matches_full_series(monkeypatch, name):
    # every balance of the principal weight vector (both rdg5 sheets, hh5
    # before and after its specialization) at the builtin's default order
    for sys_, conv, bal in _balances(name):
        _assert_same_as_reference(monkeypatch, sys_, bal, conv.order, conv)


def test_relaxed_propagation_matches_full_series_deep(monkeypatch):
    # henon-heiles steps in t^(1/2): order 16 is 32 steps
    for sys_, conv, bal in _balances("henon-heiles"):
        _assert_same_as_reference(monkeypatch, sys_, bal, 16, conv)


def test_relaxed_propagation_matches_full_series_obstruction(monkeypatch):
    sys_ = parse_system("""
system damped
vars z1 z2
eq z1 = z2
eq z2 = 6*z1^2 + z2
""")
    bal = indicial_solve(sys_, detect_weights(sys_)[0])[0]
    _assert_same_as_reference(monkeypatch, sys_, bal, 8, PainleveConventions())


# ---------------------------------------------------------------------------
# the t^0 window of constraint_curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(
    n for n, conv in PAINLEVE.items() if conv.curve_invariants))
def test_constraint_relations_are_t0_of_invariant_series(name):
    system, fams = principal_families(name)
    conv = PAINLEVE[name]
    for fam in fams:
        cv = constraint_curve(system, fam, conv.curve_invariants,
                              value_names=conv.value_names)
        want = [invariant_series(fam, nm).coeff(0) - MultiPoly.var(b)
                for nm, b in zip(conv.curve_invariants, cv.value_names)]
        assert cv.relations == want


def test_constraint_order_too_low_matches_full_window():
    # cut every series c steps past its first term: where the full
    # invariant series no longer reaches t^0 the "order too low" error
    # fires, and everywhere else the relation is its t^0 coefficient
    system, fams = principal_families("henon-heiles")
    fam = fams[0]
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
# prefix whose weight equations are inconsistent with all its extensions,
# and splits the support of each positive candidate once.  This is the
# search as it was first written: every pattern of itertools.product, each
# solved from scratch, every candidate's support split.

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
        # the solver memo detect_weights passes is not part of the record
        def call(sys_arg, *args, **kw):
            calls.append((name, args))
            return fn(sys_arg, *args, **kw)
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


def assert_search_matches_reference(sys_, **kw):
    """detect_weights returns what the reference does, resolves the same
    families in the same order, and splits the support of each candidate
    the reference splits once, at its first split."""
    got, calls = _search_outcome(detect_weights, sys_, **kw)
    want, ref_calls = _search_outcome(reference_detect_weights, sys_, **kw)
    seen = set()
    first = [c for c in ref_calls
             if c[0] == "resolve" or not (c in seen or seen.add(c))]
    assert (got, calls) == (want, first)


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
    assert_search_matches_reference(sys_, max_patterns=max_patterns)


def test_weight_search_keeps_weights_of_non_closed_patterns():
    # (1, 1/3, 1) comes only from the pattern ({x1x3}, {x1x2}, {x1x3}), on
    # whose weight family x1^2 is dominant too: resolving only the closed
    # patterns of each family would lose it
    x1, x2, x3 = (MultiPoly.var(f"x{i}") for i in (1, 2, 3))
    sys_ = _weight_system([x1 * x3, -x1 * x2,
                    -x2 ** 3 + x1 ** 2 - 3 * x1 * x3 - 3 * x2 * x3])
    want = [(F(1), F(1, 3), F(1)), (F(1), F(2, 3), F(1))]
    assert [w.weights for w in detect_weights(sys_)] == want
    assert_search_matches_reference(sys_)


def _model_support(sys_, weights):
    """The dominant / lower split of each equation on tuple keys, each part
    sorted; None if a monomial overshoots or no monomial is dominant."""
    w = dict(zip(sys_.variables, weights))
    support, lower = [], []
    for v, f in zip(sys_.variables, sys_.equations):
        parts = {True: [], False: []}
        for key in f.terms:
            kw = sum(e * w.get(n, 0) for n, e in key)
            if kw > w[v] + 1:
                return None
            parts[kw == w[v] + 1].append(key)
        if not parts[True]:
            return None
        support.append(tuple(sorted(parts[True])))
        lower.append(tuple(sorted(parts[False])))
    return tuple(support), tuple(lower)


def test_weight_search_with_a_reverse_symbol_table():
    # the constant's field comes first and the variables' in reverse
    # alphabetical order, so int keys sort the other way round: the search,
    # its patterns and its support splits are still those of tuple keys
    from laxkit.exactalg.poly import shift
    for name in ("rw_c", "rw_z", "rw_y", "rw_x"):
        shift(name)
    x, y, z, c = (MultiPoly.var(n) for n in ("rw_x", "rw_y", "rw_z", "rw_c"))
    sys_ = VectorFieldSystem(
        name="s", variables=("rw_x", "rw_y", "rw_z"), constants=("rw_c",),
        equations=(x * z + c * y, -x * y, -y ** 3 + x ** 2 - 3 * x * z - 3 * y * z),
        invariants={})
    assert_search_matches_reference(sys_)
    wvs = detect_weights(sys_)
    assert [w.weights for w in wvs] == [(F(1), F(1, 3), F(1)), (F(1), F(2, 3), F(1))]
    for w in [wv.weights for wv in wvs] + [(F(1), F(1), F(1)), (F(2), F(1), F(1))]:
        assert pv._canonical_support(sys_, w) == _model_support(sys_, w)


DENSE_SYSTEM = """system mid
vars x y z w
eq x = x*y + y*z + z*w + w^2
eq y = x*y + y*z + z^2 + w*x
eq z = x*y + y^2 + z*w + w*x
eq w = x^2 + y*z + z*w + w*x
"""


def test_weight_search_on_a_dense_file(tmp_path, monkeypatch):
    # 15^4 = 50,625 dominant-support patterns, which share few candidates:
    # the support of each positive one is split once.  Every monomial has
    # weight 2 at (1, 1, 1, 1), and no balance of it is rational
    import json
    from laxkit.cli import main
    candidates, splits = [], []
    solution, resolve = pv.rref_solution, pv._resolve_weight_family
    support = pv._canonical_support

    def rref_solution(rref, n):
        part, basis = solution(rref, n)
        if not basis:
            candidates.append(tuple(part))
        return part, basis

    def resolve_family(*args, **kw):
        out = resolve(*args, **kw)
        candidates.extend(out)
        return out

    def canonical_support(sys_, w):
        splits.append(w)
        return support(sys_, w)

    monkeypatch.setattr(pv, "rref_solution", rref_solution)
    monkeypatch.setattr(pv, "_resolve_weight_family", resolve_family)
    monkeypatch.setattr(pv, "_canonical_support", canonical_support)
    src, out = tmp_path / "mid.ivf", tmp_path / "out"
    src.write_text(DENSE_SYSTEM)
    assert main(["painleve", "--file", str(src), "--order", "4",
                 "--out", str(out)]) == 0
    report = json.loads((out / "painleve_mid.json").read_text())
    assert report["weights"] == [{"weights": ["1", "1", "1", "1"],
                                  "branching_index": 1,
                                  "dominant_counts": [4, 4, 4, 4],
                                  "lower_counts": [0, 0, 0, 0]}]
    assert report["balances"] == []
    positive = [w for w in candidates if all(x > 0 for x in w)]
    assert splits == list(dict.fromkeys(positive))
    assert len(splits) < len(positive)


# -- the solver against its recursion ------------------------------------------
#
# solve_poly_system expands each distinct node once and walks the shared
# tree.  This is the solver as it was first written: one recursion that
# substitutes every binding into every equation and value on its way down.

def reference_solve_poly_system(eqs, unknowns, max_branches=4000,
                                algebraic_out=None):
    from laxkit.exactalg import eliminate_linear, rational_roots
    from laxkit.exactalg.poly import LIMIT, shift
    unknowns = list(unknowns)
    shifts = {u: shift(u) for u in unknowns}
    results = []
    counter = [0]

    def bind(sol, x, val):
        out = {k: v.subs({x: val}) for k, v in sol.items()}
        out[x] = val
        return out

    def assign(cur_eqs, idx, sol, x, val, choices, pending):
        rest = [q.subs({x: val}) for k, q in enumerate(cur_eqs) if k != idx]
        recurse(rest, bind(sol, x, val), choices, pending)

    def recurse(cur_eqs, sol, choices, pending):
        counter[0] += 1
        if counter[0] > max_branches:
            raise RuntimeError("polynomial system solver branch budget exceeded")
        cur_eqs = [e for e in cur_eqs if not e.is_zero]
        if any(e.is_constant for e in cur_eqs):
            return
        if not cur_eqs:
            for x, C, D in reversed(pending):
                try:
                    val = (-D.subs(sol)).exact_div(C.subs(sol))
                except (ValueError, ZeroDivisionError):
                    return
                sol = bind(sol, x, val)
            results.append((dict(sol), list(choices)))
            return
        present = [u for u in unknowns if u not in sol]
        occurs = []
        for e in cur_eqs:
            m = e.support_mask()
            occurs.append([u for u in present if (m >> shifts[u]) & LIMIT])
        for idx, e in enumerate(cur_eqs):                       # 1
            for x in reversed(occurs[idx]):
                xk = 1 << shifts[x]
                if all(k == xk for k in e.nums if (k >> shifts[x]) & LIMIT):
                    rest = MultiPoly.from_ints(e.den, {k: n for k, n in e.nums.items()
                                                       if k != xk})
                    val = -rest / F(e.nums[xk], e.den)
                    assign(cur_eqs, idx, sol, x, val, choices, pending)
                    return
        for idx, e in enumerate(cur_eqs):                       # 2
            if len(occurs[idx]) != 1:
                continue
            x = occurs[idx][0]
            cfs = e.coeffs_in(x)
            if not all(c.is_constant for c in cfs.values()):
                continue
            coeffs = [cfs.get(k, MultiPoly.zero()).const_value()
                      for k in range(max(cfs) + 1)]
            roots, cof = rational_roots(coeffs)
            if len(cof) > 1 and algebraic_out is not None:
                algebraic_out.append((x, cof))
            many = len(roots) > 1
            for r, _m in roots:
                assign(cur_eqs, idx, sol, x, MultiPoly.const(r),
                       choices + ([(x, r)] if many else []), pending)
            return
        for idx, e in enumerate(cur_eqs):                       # 3
            mg = dict(e.monomial_gcd())
            fx = next((u for u in present if mg.get(u, 0) > 0), None)
            if fx is None:
                continue
            assign(cur_eqs, idx, sol, fx, MultiPoly.zero(), choices, pending)
            cofactor = e.exact_div(MultiPoly.var(fx, mg[fx]))
            recurse([cofactor] + [q for k, q in enumerate(cur_eqs) if k != idx],
                    sol, choices, pending)
            return
        for idx, e in enumerate(cur_eqs):                       # 4
            for x in occurs[idx]:
                if all((k >> shifts[x]) & LIMIT < 2 for k in e.nums):
                    cfs = e.coeffs_in(x)
                    C, D = cfs[1], cfs.get(0, MultiPoly.zero())
                    others = [q for k, q in enumerate(cur_eqs) if k != idx]
                    recurse([C, D] + others, sol, choices, pending)
                    recurse([eliminate_linear(q, x, C, D) for q in others],
                            sol, choices, pending + [(x, C, D)])
                    return

    recurse(list(eqs), {}, [], [])
    verified, seen = [], set()
    for sol, choices in results:
        if not all(e.subs(sol).is_zero for e in eqs):
            continue
        sig = tuple(sorted((k, v) for k, v in sol.items()))
        if sig not in seen:
            seen.add(sig)
            verified.append((sol, choices))

    def subsumes(big, small):
        if not set(big) <= set(small) or set(big) == set(small):
            return False
        sigma = {v: small[v] for v in small if v not in big}
        return all(big[v].subs(sigma) == small[v] for v in big)

    return [(sol, choices) for i, (sol, choices) in enumerate(verified)
            if not any(subsumes(other, sol)
                       for j, (other, _c) in enumerate(verified) if j != i)]


def _solve_outcome(solve, eqs, unknowns, **kw):
    """What a solve returns, value by value with every term in dict order,
    or the error it raises; and what it appended to algebraic_out."""
    dropped = []
    try:
        got = [([(k, list(v.terms.items())) for k, v in sol.items()], choices)
               for sol, choices in solve(eqs, unknowns, algebraic_out=dropped, **kw)]
    except RuntimeError as exc:
        got = str(exc)
    return got, dropped


def _family_systems(sys_):
    """The (equations, unknowns) of every family solve of detect_weights."""
    systems, solve = [], pv.solve_poly_system

    def record(eqs, unknowns, **kw):
        systems.append((list(eqs), list(unknowns)))
        return solve(eqs, unknowns, **kw)
    pv.solve_poly_system = record
    try:
        detect_weights(sys_, max_patterns=400)
    except (ValueError, RuntimeError):
        pass
    finally:
        pv.solve_poly_system = solve
    return systems


@st.composite
def solver_systems(draw):
    """The indicial system k_i x_i + f_i = 0 of a small vector field of the
    weight-search recipe (k_i a small rational), then the family systems
    of its weight search (about a third of the fields have some)."""
    sys_ = draw(small_vector_fields())
    ks = [draw(st.sampled_from([F(1), F(-1), F(1, 2), F(2), F(-3, 2)]))
          for _ in sys_.variables]
    indicial = [k * MultiPoly.var(v) + f
                for k, v, f in zip(ks, sys_.variables, sys_.equations)]
    return [(indicial, list(sys_.variables))] + _family_systems(sys_)


@settings(max_examples=40, deadline=None)
@given(solver_systems(), st.integers(1, 60))
def test_solver_matches_reference_recursion(systems, budget):
    # the same branches, values term for term, choices and algebraic_out,
    # at the default budget and at a small one
    for eqs, unknowns in systems:
        for kw in ({}, {"max_branches": budget}):
            assert (_solve_outcome(solve_poly_system, eqs, unknowns, **kw)
                    == _solve_outcome(reference_solve_poly_system, eqs,
                                      unknowns, **kw))


@settings(max_examples=40, deadline=None)
@given(solver_systems(), st.integers(1, 60))
def test_shared_memo_matches_solving_alone(systems, budget):
    # a sequence of solves through one memo, then the same systems again at
    # a small budget, which trips inside subtrees the memo already holds;
    # each system also with its unknowns reversed and with its last unknown
    # a parameter, so equal equations meet other unknowns
    systems = [(eqs, u) for eqs, unknowns in systems
               for u in (unknowns, unknowns[::-1], unknowns[:-1])]
    memo = pv.SolverMemo()
    for kw in ({}, {"max_branches": budget}):
        for eqs, unknowns in systems:
            assert (_solve_outcome(solve_poly_system, eqs, unknowns, memo=memo, **kw)
                    == _solve_outcome(solve_poly_system, eqs, unknowns, **kw))


def reference_resolve_weight_family(sys_, pattern, part, basis):
    # each weight as a substitution into part_i + sum_k b_ki _wk, and the
    # system solved by the reference recursion
    svars = [f"_w{k}" for k in range(len(basis))]
    kexprs = []
    for i in range(len(sys_.variables)):
        e = MultiPoly.const(part[i])
        for k, b in enumerate(basis):
            e = e + MultiPoly.var(svars[k]) * b[i]
        kexprs.append(e)
    eqs = [kexprs[i] * MultiPoly.var(v) + MultiPoly({key: terms[key] for key in subset})
           for i, (v, terms, subset) in enumerate(zip(
               sys_.variables, (f.terms for f in sys_.equations), pattern))]
    out = []
    for sol, _ in reference_solve_poly_system(eqs, list(sys_.variables) + svars):
        vals = [kexprs[i].subs({s: sol[s] for s in svars if s in sol})
                for i in range(len(sys_.variables))]
        if not all(v.is_constant for v in vals):
            continue
        if all(MultiPoly.coerce(sol.get(v, MultiPoly.var(v))).is_zero
               for v in sys_.variables):
            continue
        out.append(tuple(v.const_value() for v in vals))
    return out


@settings(max_examples=40, deadline=None)
@given(small_vector_fields())
def test_family_candidates_match_reference(sys_):
    # every family of a weight search gives the reference's candidates, in
    # order, whether its weights are read as sums or substituted
    calls, resolve = [], pv._resolve_weight_family

    def record(sys_arg, *args, **kw):
        calls.append(args)
        return resolve(sys_arg, *args, **kw)
    pv._resolve_weight_family = record
    try:
        detect_weights(sys_, max_patterns=400)
    finally:
        pv._resolve_weight_family = resolve
    for args in calls:
        assert resolve(sys_, *args) == reference_resolve_weight_family(sys_, *args)


def test_memo_cleared_at_every_node_gives_the_same_weights(monkeypatch):
    want = {name: detect_weights(builtin_system(name)) for name in _SYSTEM_FILES}
    held = []

    class Memo(pv.SolverMemo):
        def node(self, eqs, unk):
            out = super().node(eqs, unk)
            held.append(len(self.nodes))
            return out
    monkeypatch.setattr(pv, "SolverMemo", Memo)
    monkeypatch.setattr(pv, "MEMO_NODES", 1)
    for name in _SYSTEM_FILES:
        assert detect_weights(builtin_system(name)) == want[name]
    assert max(held) == 2   # cleared as soon as it holds more than one node


def test_propagate_refuses_order_above_cap(monkeypatch):
    system = builtin_system("henon-heiles")
    bal = pv.indicial_solve(system, pv.detect_weights(system)[0])[0]
    monkeypatch.setattr(pv, "MAX_ORDER", 5)
    with pytest.raises(ValueError, match="MAX_ORDER = 5"):
        pv.propagate(system, bal, order=6)
