from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from laxkit.exactalg import (MultiPoly, charpoly_exact, fraction_free_echelon,
                             mat_mul, nearest_roots, nullspace, rational_roots,
                             real_roots, solve_square_exact, solve_with_pins)
from laxkit.exactalg.linalg import (InconsistentSystemError,
                                    _back_substitute, _pivot_choice)


def test_charpoly_matches_numpy():
    rng = np.random.default_rng(0)
    A = rng.integers(-4, 5, size=(5, 5))
    cp = charpoly_exact([[F(int(x)) for x in row] for row in A])
    mine = [float(c.const_value()) for c in cp]
    ref = np.poly(A.astype(float))[::-1]
    assert np.allclose(mine, ref, atol=1e-8)


def test_solve_square_exact_fraction():
    M = [[F(2), F(1)], [F(1), F(3)]]
    x = solve_square_exact(M, [F(5), F(10)])
    assert [v.const_value() for v in x] == [F(1), F(3)]


def test_solve_with_symbolic_entries():
    a = MultiPoly.var("a")
    M = [[MultiPoly.const(2), MultiPoly.zero()], [a, MultiPoly.const(3)]]
    x = solve_square_exact(M, [MultiPoly.const(4), a])
    assert x[0] == MultiPoly.const(2)
    # verify M x = rhs exactly
    assert (M[1][0] * x[0] + M[1][1] * x[1]) == a


def test_pinned_inconsistency_certificate():
    # rank-1 matrix with incompatible rhs: pinning its one free column leaves
    # an inconsistent system, and the left null vector pairs nonzero with rhs
    M = [[F(4), F(-1)], [F(-12), F(3)]]
    rhs = [F(1), F(0)]
    free, basis = nullspace(M)
    assert free == [1] and len(basis) == 1
    with pytest.raises(InconsistentSystemError):
        solve_with_pins(M, rhs, {free[0]: F(0)})
    lfree, lbasis = nullspace(list(zip(*M)))
    assert lfree == [1] and len(lbasis) == 1
    w = lbasis[0]
    assert all((w[0] * M[0][j] + w[1] * M[1][j]).is_zero for j in range(2))
    assert not (w[0] * rhs[0] + w[1] * rhs[1]).is_zero


def test_adjugate_kernel():
    # rank n-1: the one kernel vector is parallel to every adjugate column
    sympy = pytest.importorskip("sympy")
    M = [[F(4), F(-1)], [F(-12), F(3)]]
    free, basis = nullspace(M)
    assert len(basis) == 1
    v = basis[0]
    assert all((M[i][0] * v[0] + M[i][1] * v[1]).is_zero for i in range(2))
    adj = _sympy_matrix(sympy, M).adjugate()
    for j in range(2):
        assert any(x != 0 for x in adj[:, j])
        assert (v[0] * F(int(adj[1, j])) - v[1] * F(int(adj[0, j]))).is_zero


def test_rational_roots_with_multiplicity():
    # (x-1)^2 (x+2) (3x-1), built from factors to avoid typos
    import numpy.polynomial.polynomial as P
    c = P.polymul(P.polymul([1, -2, 1], [2, 1]), [-1, 3])
    roots, cof = rational_roots([F(int(x)) for x in c])
    assert (F(1), 2) in roots and (F(-2), 1) in roots and (F(1, 3), 1) in roots
    assert len(cof) == 1


def test_real_roots_symmetric_quadratic():
    assert [(r, m) for r, m in real_roots([F(-1), F(0), F(1)])] == \
        [(F(-1), 1), (F(1), 1)]


def test_real_roots_cubic():
    rts = real_roots([F(0), F(-1), F(0), F(1)])
    assert [r for r, _ in rts] == [F(-1), F(0), F(1)]


def test_real_roots_double_root_case():
    # (z^2-2)^2 - 4 = z^2 (z^2 - 4): roots -2, 0 (double), 2
    coeffs = [F(0), F(0), F(-4), F(0), F(1)]
    rts = real_roots(coeffs)
    assert rts == [(F(-2), 1), (F(0), 2), (F(2), 1)]


def test_real_roots_irrational_bracketed():
    # z^2 - 2: sqrt(2) to tight tolerance
    rts = real_roots([F(-2), F(0), F(1)])
    assert len(rts) == 2
    assert abs(float(rts[1][0]) - 2 ** 0.5) < 1e-10


def test_real_roots_float_path():
    rts = real_roots([-2.0, 0.0, 1.0])
    assert len(rts) == 2 and abs(rts[1][0] - 2 ** 0.5) < 1e-9


def test_real_roots_reads_floats_exactly():
    # a float coefficient is the rational it stores: the root of x - 0.1 is
    # that binary fraction, and (x - 1/2)^2 keeps its double root
    assert real_roots([-0.1, 1.0]) == [(F(0.1), 1)]
    assert real_roots([0.25, -1.0, 1.0]) == [(F(1, 2), 2)]
    with pytest.raises(ValueError, match="zero polynomial"):
        real_roots([0.0, 0.0])


def test_real_roots_takes_no_interval():
    import inspect
    assert list(inspect.signature(real_roots).parameters) == ["coeffs"]


def test_sturm_loops_stop_at_their_caps(monkeypatch):
    from laxkit.exactalg import roots
    # (x + 1)(x + 2)(x + 3): isolation halves (-12, 12) down to the midpoint
    # -3, a root, which needs one nudge
    cubic = [6, 11, 6, 1]
    assert real_roots(cubic) == [(F(-3), 1), (F(-2), 1), (F(-1), 1)]
    assert roots._nudge_cap(cubic) == 3
    # the rational test only: (B + 2) + 2 halvings, B = 10 bits for 1000;
    # the irrational refinement halves on orders, which end within 64
    assert roots._bisection_cap([-2, 0, 1000]) == (10 + 2) + 2
    monkeypatch.setattr(roots, "_nudge_cap", lambda f: 0)
    with pytest.raises(RuntimeError, match="after 0 nudges"):
        real_roots(cubic)
    # 1000 x^2 - 2: isolation splits (-1.002, 1.002) at 0, and each half
    # needs ten halvings to narrow below 1/1000
    monkeypatch.setattr(roots, "_bisection_cap", lambda f: 2)
    with pytest.raises(RuntimeError, match="within 2 bisection steps"):
        real_roots([-2, 0, 1000])


def test_sturm_count_cross_check():
    from laxkit.exactalg import roots
    # roots of (x-1)(x-2)(x-3): the drop in sign variations of the chain
    # from lo to hi counts the distinct roots in (lo, hi]
    chain = roots._chain([-6, 11, -6, 1])

    def count(lo, hi):
        return roots._variations(chain, lo) - roots._variations(chain, hi)

    assert count(F(0), F(4)) == 3
    assert count(F(0), F(5, 2)) == 2
    assert count(F(1), F(3)) == 2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_planted_rational_roots_recovered(roots):
    poly = [F(1)]
    for r in roots:
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] = poly[i] - F(r) * poly[i + 1]
    found = real_roots(poly)
    total = sum(m for _, m in found)
    assert total == len(roots)
    for r in set(roots):
        assert any(rr == r for rr, _ in found)


# -- seeded roots: nearest_roots against real_roots ----------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_order_counts_the_doubles(x):
    from math import inf, nextafter
    from laxkit.exactalg import roots
    k = roots._order(x)
    assert roots._double(k) == x and abs(k) <= roots._MAX_ORDER
    if k < roots._MAX_ORDER:
        assert roots._order(nextafter(x, inf)) == k + 1
    assert roots._order(-x) == -k


def _sturm_floats(p):
    return [(float(r), m) for r, m in real_roots(p)]


def _fallbacks(monkeypatch):
    """The list of polynomials that nearest_roots hands to real_roots."""
    from laxkit.exactalg import roots
    calls, real = [], roots.real_roots
    monkeypatch.setattr(roots, "real_roots", lambda p: calls.append(p) or real(p))
    return calls


R2 = 2 ** 0.5
# 2^53 x - (2^53 + 1): the root 1 + 2^-53 is the midpoint of 1 and the next
# double, so rounding is a tie that real_roots settles (to even, 1.0)
TIE = [-(2 ** 53 + 1), 2 ** 53]


@pytest.mark.parametrize("p,near,fallback", [
    ([-2, 0, 1], [-R2, R2], False),
    ([-2, 0, 1], [1.4, -1.5], False),                 # shuffled, perturbed
    ([F(-3, 8), 1], [0.375], False),                  # the root is a double
    ([F(-3, 8), 1], [0.5], False),                    # ... met by the walk
    ([0, -2, 0, 1], [-R2, 1e-300, R2], False),        # a root at 0, seed off it
    ([1, -2, 1], [1.0, 1.0], True),                   # double root: one bracket
    ([-1, 0, 0, 1], [-0.5, 0.5, 1.0], True),          # complex roots
    ([1, 0, 1], [-1.0, 1.0], True),                   # no real root: no sign change
    ([-2, 0, 1], [R2, float("inf")], True),
    ([-2, 0, 1], [R2, float("nan")], True),
    ([-2, 0, 1], [R2], True),                         # one seed short
    (TIE, [1.0], True),                               # the midpoint is the root
], ids=["certified", "shuffled", "double-root-seed", "double-root-walk",
        "zero-root", "repeated-root", "complex-roots", "no-real-root",
        "inf-seed", "nan-seed", "missing-seed", "midpoint-root"])
def test_nearest_roots_falls_back_only_when_uncertified(monkeypatch, p, near,
                                                        fallback):
    calls = _fallbacks(monkeypatch)
    assert nearest_roots(p, near) == _sturm_floats(p)
    assert len(calls) == fallback


def test_a_root_that_rounds_to_zero_keeps_its_sign(monkeypatch):
    # x^2 - x - 2 10^-400: one root just below 0, which rounds to -0.0 as
    # float() rounds it, on the Sturm route and on the certified seeded one
    from math import copysign
    p = [F(-2, 10 ** 400), F(-1), F(1)]
    calls = _fallbacks(monkeypatch)
    for rts in (_sturm_floats(p), nearest_roots(p, [-5e-324, 1.0])):
        assert rts == [(0.0, 1), (1.0, 1)]
        assert copysign(1.0, rts[0][0]) == -1.0
    assert not calls


def test_brackets_sharing_an_end_where_f_is_nonzero_certify(monkeypatch):
    # x^2 - 2 10^-800: the roots +-1.4e-400 round to -0.0 and 0.0; the walks
    # end on the brackets (-1, 0) and (0, 1) of orders, which share the order
    # of 0.0, where f is not 0, and so are disjoint
    from math import copysign
    p = [F(-2, 10 ** 800), F(0), F(1)]
    calls = _fallbacks(monkeypatch)
    for rts in (_sturm_floats(p), nearest_roots(p, [-5e-324, 5e-324])):
        assert rts == [(-0.0, 1), (0.0, 1)]
        assert [copysign(1.0, x) for x, _ in rts] == [-1.0, 1.0]
    assert not calls


# -- bounded time on coefficients of large height ----------------------------

def _expand(factors):
    """Ascending Fraction coefficients of a product of ascending factors."""
    out = [F(1)]
    for fac in factors:
        prod = [F(0)] * (len(out) + len(fac) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(fac):
                prod[i + j] += a * b
        out = prod
    return out


def test_rational_roots_constant_near_1e14(time_limit):
    # x^2 (7x - 99999989)(s x + 1000003)(x^2 - 3): the constant term of the
    # x^2-free part is 3 * 99999989 * 1000003 ~ 3e14, the leading coefficient
    # 7 s has 23 digits.  Trial division of either would take hours.
    p, q, r, s = 99999989, 7, 1000003, 1234567890123456789013
    poly = _expand([[F(0), F(1)], [F(0), F(1)], [F(-p), F(q)], [F(r), F(s)],
                    [F(-3), F(0), F(1)]])
    assert 1e14 < poly[2] < 1e15 and len(str(poly[-1])) >= 20
    with time_limit(20):
        roots, cof = rational_roots(poly)
        rts = real_roots(poly)
    assert roots == [(F(-r, s), 1), (F(0), 2), (F(p, q), 1)]
    assert len(cof) == 3 and cof[1] == 0 and cof[0] / cof[2] == -3
    assert [x for x, _ in rts if isinstance(x, F)] == [F(-r, s), F(0), F(p, q)]
    assert dict(rts)[F(0)] == 2
    irr = sorted(x for x, _ in rts if not isinstance(x, F))
    assert irr == pytest.approx([-3 ** 0.5, 3 ** 0.5], rel=1e-12)


def test_rational_roots_repeated_root_of_large_height(time_limit):
    lin1 = [F(-9999991), F(1234567891)]          # root 9999991/1234567891
    lin2 = [F(10000019), F(9876543211)]          # root -10000019/9876543211
    quad = [F(-2), F(0), F(1000003)]             # roots +-sqrt(2/1000003)
    poly = _expand([lin1, lin2, lin2, quad])
    with time_limit(20):
        roots, cof = rational_roots(poly)
    assert roots == [(F(-10000019, 9876543211), 2), (F(9999991, 1234567891), 1)]
    assert len(cof) == 3 and cof[1] == 0 and cof[0] / cof[2] == F(-2, 1000003)


_big_rationals = st.builds(
    F, st.integers(-10 ** 12, 10 ** 12),
    st.integers(1, 10 ** 9))


@settings(max_examples=30, deadline=None)
@given(st.lists(_big_rationals, min_size=1, max_size=4),
       st.integers(1, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_planted_large_height_roots_recovered(roots, lead, c0):
    # planted roots of height up to 1e12 times an x^2 + c0/lead factor
    poly = _expand([[-r, F(1)] for r in roots] + [[F(c0, lead), F(0), F(1)]])
    found = real_roots(poly)
    rats = {r: m for r, m in found if isinstance(r, F)}
    for r in set(roots):
        assert rats[r] >= roots.count(r)
    got, cof = rational_roots(poly)
    assert sum(m for _, m in got) + len(cof) - 1 == len(poly) - 1
    for r in set(roots):
        assert dict(got)[r] >= roots.count(r)
    irr = [x for x, _ in found if not isinstance(x, F)]
    if c0 < 0 and not any(q * q == F(-c0, lead) for q in rats):
        assert len(irr) == 2 and irr[0] == pytest.approx(-irr[1], rel=1e-9)
    else:
        assert irr == []


# -- sympy as a differential oracle --------------------------------------------

def _random_rational_poly(rng):
    """Planted rational roots (some repeated) times a random integer factor."""
    factors = []
    for _ in range(rng.integers(0, 4)):
        r = F(int(rng.integers(-40, 41)), int(rng.integers(1, 12)))
        factors += [[-r, F(1)]] * int(rng.integers(1, 3))
    extra = [F(int(rng.integers(-30, 31)), int(rng.integers(1, 5)))
             for _ in range(int(rng.integers(1, 5)))] + [F(int(rng.integers(1, 6)))]
    return _expand(factors + [extra])


def test_roots_match_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = np.random.default_rng(2024)
    for _ in range(60):
        poly = _random_rational_poly(rng)
        P = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(poly)], x, domain="QQ")
        truth = {F(int(r.p), int(r.q)): m for r, m in P.ground_roots().items()}
        roots, cof = rational_roots(poly)
        assert dict(roots) == truth
        assert sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(cof)], x).ground_roots() == {}
        found = real_roots(poly)
        assert {r: m for r, m in found if isinstance(r, F)} == truth
        irr_truth = {}
        for r in sympy.real_roots(P):
            if not r.is_Rational:
                key = float(r.evalf(50))
                irr_truth[key] = irr_truth.get(key, 0) + 1
        irr = [(r, m) for r, m in found if not isinstance(r, F)]
        assert len(irr) == len(irr_truth)
        for (r, m), (t, tm) in zip(irr, sorted(irr_truth.items())):
            assert m == tm
            assert r == t
            assert abs(r - t) <= 1e-12 * max(1.0, abs(t))


# The seeded and Sturm routes round through one routine, so neither checks
# the other's rounding: sympy checks the integer kernel directly.

@st.composite
def factored_polys(draw):
    """x^z times random rational factors of degree 1-3, each to a power
    1-3, and half the time (x^2 - c)(x^2 - c - 10^-k): roots 10^-k / (4
    sqrt c) apart, within one double of each other for large k."""
    small = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        fac = draw(st.lists(small, min_size=deg, max_size=deg))
        factors += [fac + [draw(small.filter(bool))]] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        c = draw(st.fractions(min_value=1, max_value=9, max_denominator=4))
        eps = F(1, 10 ** draw(st.integers(1, 39)))
        factors += [[-c, F(0), F(1)], [-c - eps, F(0), F(1)]]
    return [F(0)] * draw(st.integers(0, 3)) + _expand(factors)


@settings(max_examples=25, deadline=None)
@given(factored_polys())
def test_integer_kernel_matches_sympy(poly):
    sympy = pytest.importorskip("sympy")
    from laxkit.exactalg import roots
    x = sympy.Symbol("x")
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(poly)], x, domain="QQ")
    # Yun from the Sturm chain: sympy's factors up to content and sign
    f = roots._primitive(roots._cleared(poly))
    mine = [(sympy.Poly(z[::-1], x, domain="QQ").monic(), m)
            for z, m, _ in roots._square_free(f)]
    assert mine == [(g.monic(), m) for g, m in P.sqf_list()[1]]
    found = real_roots(poly)
    rational = {F(int(r.p), int(r.q)): m
                for r, m in sympy.roots(P, filter="Q").items()}
    assert {r: m for r, m in found if isinstance(r, F)} == rational
    # every other real root is the double nearest sympy's, to 60 digits
    irrational = sorted((float(F(str(r.evalf(60)))), m)
                        for r, m in P.real_roots(multiple=False)
                        if not r.is_Rational)
    assert sorted((r, m) for r, m in found if not isinstance(r, F)) == irrational


rational_entries =st.fractions(min_value=-6, max_value=6, max_denominator=5)


def rational_matrices(min_size=1, max_size=4):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(st.lists(rational_entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _sympy_matrix(sympy, M):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in M])


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_charpoly_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    want = _sympy_matrix(sympy, M).charpoly(lam).all_coeffs()[::-1]
    got = charpoly_exact(M)
    assert [c.const_value() for c in got] == [F(int(c.p), int(c.q)) for c in want]


@settings(max_examples=40, deadline=None)
@given(rational_matrices(), st.lists(rational_entries, min_size=4, max_size=4))
def test_solve_square_exact_matches_sympy(M, rhs):
    sympy = pytest.importorskip("sympy")
    A = _sympy_matrix(sympy, M)
    assume(A.det() != 0)
    rhs = rhs[:len(M)]
    want = A.LUsolve(_sympy_matrix(sympy, [[c] for c in rhs]))
    got = solve_square_exact(M, rhs)
    assert [c.const_value() for c in got] == [F(int(c.p), int(c.q)) for c in want]


# -- nullspace against the pinned solve it replaced, and sympy ------------------

def _check_nullspace(M):
    """Each basis vector v of free column f lies in ker M, is nonzero at f
    and 0 at the other free columns, and normalized to 1 at f it is the
    solution of M x = 0 with the free columns pinned (1 at f, 0 elsewhere);
    where that solution is not polynomial both routes raise ValueError."""
    free, basis = nullspace(M)
    assert len(basis) == len(free)
    zero = [MultiPoly.zero()] * len(M)
    for f, v in zip(free, basis):
        for row in M:
            assert sum((MultiPoly.coerce(a) * x for a, x in zip(row, v)),
                       MultiPoly.zero()).is_zero
        assert not v[f].is_zero
        assert all(v[g].is_zero for g in free if g != f)
        pins = {g: MultiPoly.const(int(g == f)) for g in free}
        try:
            want = solve_with_pins(M, zero, pins)
        except ValueError:
            with pytest.raises(ValueError):
                [x.exact_div(v[f]) for x in v]
            continue
        assert [x.exact_div(v[f]) for x in v] == want
    return free


@st.composite
def deficient_matrices(draw):
    """n x n products A B through k = n-1 or n-2 inner columns (rank <= k)."""
    n = draw(st.integers(2, 5))
    k = n - draw(st.integers(1, min(2, n - 1)))
    A = [[draw(rational_entries) for _ in range(k)] for _ in range(n)]
    B = [[draw(rational_entries) for _ in range(n)] for _ in range(k)]
    return [[sum((A[i][t] * B[t][j] for t in range(k)), F(0))
             for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(deficient_matrices())
@example([[F(0), F(0)], [F(0), F(0)]])
def test_nullspace_matches_pinned_solve_and_sympy(M):
    sympy = pytest.importorskip("sympy")
    free = _check_nullspace(M)
    assert len(free) == len(_sympy_matrix(sympy, M).nullspace())


def _sympy_poly(sympy, p):
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.Mul(*[sympy.Symbol(nm) ** e for nm, e in key])
                for key, c in p.terms.items()), sympy.Integer(0))


_a, _b, _one, _zero = (MultiPoly.var("a"), MultiPoly.var("b"),
                       MultiPoly.const(1), MultiPoly.zero())


@pytest.mark.parametrize("A, B", [
    # rank 1 and 2 of 3 over Q(a, b); every normalized vector is polynomial
    ([[_a], [_one], [_a + _b]], [[_one, _a, _zero]]),
    ([[_a, _one], [_one, _b], [_a + _b, MultiPoly.const(2)]],
     [[_one, _a, _zero], [_zero, _one, _b]]),
    # rank 1 of 2: the kernel is (-b, a), so normalized to 1 at column 1 it
    # is (-b/a, 1), not polynomial
    ([[_one], [MultiPoly.const(2)]], [[_a, _b]]),
], ids=["rank1of3", "rank2of3", "not-polynomial"])
def test_nullspace_symbolic_product(A, B):
    sympy = pytest.importorskip("sympy")
    M = [[sum((A[i][t] * B[t][j] for t in range(len(B))), MultiPoly.zero())
          for j in range(len(B[0]))] for i in range(len(A))]
    free = _check_nullspace(M)
    want = sympy.Matrix([[_sympy_poly(sympy, x) for x in row] for row in M])
    assert len(free) == len(want.nullspace()) == len(M) - len(B)


# -- the incremental reduced row-echelon form ----------------------------------
#
# Gaussian elimination over Q as it was first written: one Gauss-Jordan pass
# over all rows, pivoting on the first nonzero entry of each column.

def reference_solve_linear_fractions(rows, rhs):
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if A[i][n] != 0:
            return None
    part = [F(0)] * n
    for i, c in enumerate(piv_cols):
        part[c] = A[i][n]
    basis = []
    for fcol in [c for c in range(n) if c not in piv_cols]:
        v = [F(0)] * n
        v[fcol] = F(1)
        for i, c in enumerate(piv_cols):
            v[c] = -A[i][fcol]
        basis.append(v)
    return part, basis


@st.composite
def augmented_systems(draw):
    """Augmented rows [a | b] over Q: random rows, then rows that repeat a
    combination of earlier ones (dependent), zero rows, and combinations
    with a shifted right-hand side (usually inconsistent)."""
    n = draw(st.integers(1, 5))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(st.lists(st.lists(small, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=4))
    for kind in draw(st.lists(st.sampled_from(["dep", "zero", "shift"]),
                              max_size=4)):
        if kind == "zero":
            rows.append([F(0)] * (n + 1))
            continue
        cs = draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
        row = [sum((c * r[j] for c, r in zip(cs, rows)), F(0))
               for j in range(n + 1)]
        if kind == "shift":
            row[n] += 1
        rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order]


@settings(max_examples=200, deadline=None)
@given(augmented_systems(), st.data())
def test_rref_extend_matches_one_shot_gauss_jordan(system, data):
    from laxkit.exactalg.linalg import rref_extend, rref_solution
    n, aug = system
    rows, rhs = [r[:n] for r in aug], [r[n] for r in aug]
    want = reference_solve_linear_fractions(rows, rhs)
    one_shot = rref_extend({}, aug)
    assert (one_shot is None) == (want is None)
    if one_shot is not None:
        assert rref_solution(one_shot, n) == want
    # row by row, and split at a random point: the same form, and every
    # intermediate form is left as it was
    by_row = {}
    for row in aug:
        before = {c: list(r) for c, r in by_row.items()}
        ext = rref_extend(by_row, [row])
        assert by_row == before
        by_row = ext
        if by_row is None:
            break
    assert by_row == one_shot
    k = data.draw(st.integers(0, len(aug)))
    head = rref_extend({}, aug[:k])
    assert (None if head is None else rref_extend(head, aug[k:])) == one_shot


@settings(max_examples=100, deadline=None)
@given(augmented_systems(), st.data())
def test_rref_extend_keeps_primitive_integer_rows(system, data):
    from math import gcd, lcm
    from laxkit.exactalg.linalg import rref_extend
    n, aug = system
    form = rref_extend({}, aug)
    # row r at pivot c: integers of gcd 1, r[c] > 0 its first nonzero
    # entry, 0 at every other pivot
    for c, row in (form or {}).items():
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        assert row[c] > 0 and not any(row[:c])
        assert not any(row[k] for k in form if k != c)
    # rows scaled by nonzero rationals, or to integers, give the same form,
    # split anywhere
    scales = data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=5)
        .filter(bool), min_size=len(aug), max_size=len(aug)))
    scaled = [[s * x for x in row] for s, row in zip(scales, aug)]
    ints = [[int(x * lcm(*[y.denominator for y in row])) for x in row]
            for row in aug]
    assert rref_extend({}, scaled) == form
    assert rref_extend({}, ints) == form
    k = data.draw(st.integers(0, len(aug)))
    head = rref_extend({}, scaled[:k])
    assert (None if head is None else rref_extend(head, ints[k:])) == form


# -- the integer kernel against the MultiPoly sums it replaced -----------------
#
# Bareiss updates, matrix products and back substitution hand whole sums of
# products to `sum_products`.  These are the loops as first written, one
# MultiPoly operation at a time; rows, pivots and solutions must agree term
# by term, dict order included.

def reference_fraction_free_echelon(rows_in):
    rows = [[MultiPoly.coerce(x) for x in r] for r in rows_in]
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    pivots = []
    prev = MultiPoly.const(1)
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        p = _pivot_choice(rows, c, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrow):
            if all(rows[i][j].is_zero for j in range(c, ncol)):
                continue
            fi = rows[i][c]
            for j in range(c, ncol):
                num = piv * rows[i][j] - fi * rows[r][j]
                rows[i][j] = num.exact_div(prev)
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_mat_mul(A, B):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            s = MultiPoly.zero()
            for t in range(len(B)):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return out


def reference_back_substitute(ech, pivots, m):
    x = [MultiPoly.zero()] * m
    for i in range(m - 1, -1, -1):
        s = ech[i][m]
        for j in range(i + 1, m):
            s = s - ech[i][pivots[j]] * x[pivots[j]]
        x[pivots[i]] = s.exact_div(ech[i][pivots[i]])
    return x


def _items(M):
    return [[list(x.terms.items()) for x in row] for row in M]


_SYM_KEYS = [(), (("a", 1),), (("b", 1),), (("a", 1), ("b", 1)), (("a", 2),)]
_entry_coeffs = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4]))
# constants (often, so constant pivots occur) and small polynomials in a, b
_entries = (_entry_coeffs.map(MultiPoly.const) |
            st.dictionaries(st.sampled_from(_SYM_KEYS), _entry_coeffs,
                            max_size=3).map(MultiPoly))


@st.composite
def poly_matrices(draw, entries=_entries):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(m)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(poly_matrices())
@example([[MultiPoly.var("a"), MultiPoly.const(1), MultiPoly.const(F(1, 2))],
          [MultiPoly.var("b"), MultiPoly.var("a"), MultiPoly.const(F(-1, 3))],
          [MultiPoly.const(2), MultiPoly.var("b"), MultiPoly.var("a")]])
def test_fraction_free_echelon_matches_reference(M):
    got, got_piv = fraction_free_echelon(M)
    want, want_piv = reference_fraction_free_echelon(M)
    assert got_piv == want_piv
    assert _items(got) == _items(want)


@settings(max_examples=100, deadline=None)
@given(poly_matrices(), st.data())
def test_mat_mul_and_charpoly_match_reference(A, data):
    B = data.draw(st.lists(st.lists(_entries, min_size=2, max_size=2),
                           min_size=len(A[0]), max_size=len(A[0])))
    assert _items(mat_mul(A, B)) == _items(reference_mat_mul(A, B))
    S = [row[:len(A)] for row in A]
    if len(S[0]) == len(S):
        assert [list(c.terms.items()) for c in charpoly_exact(S)] == \
            [list(c.terms.items()) for c in charpoly_exact_reference(S)]


def charpoly_exact_reference(M):
    n = len(M)
    coeffs = [MultiPoly.zero()] * (n + 1)
    coeffs[n] = MultiPoly.const(1)
    Mk = [[MultiPoly.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Mk = reference_mat_mul(M, Mk)
        c = sum((Mk[i][i] for i in range(n)), MultiPoly.zero()) * F(-1, k)
        coeffs[n - k] = c
        for i in range(n):
            Mk[i][i] = Mk[i][i] + c
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_back_substitution_matches_reference(n, data):
    sq = [[data.draw(_entries) for _ in range(n)] + [data.draw(_entries)]
          for _ in range(n)]
    ech, pivots = fraction_free_echelon(sq)
    assume(pivots == list(range(n)))
    try:
        want = reference_back_substitute(ech, pivots, n)
    except ValueError:
        # a symbolic pivot that does not divide: the kernel raises as well
        with pytest.raises(ValueError):
            _back_substitute(ech, pivots, n)
        return
    got = _back_substitute(ech, pivots, n)
    assert [list(x.terms.items()) for x in got] == \
        [list(x.terms.items()) for x in want]
