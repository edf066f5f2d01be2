from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from laxkit.exactalg import MultiPoly

x = MultiPoly.var("x")
y = MultiPoly.var("y")


def test_eval_linear():
    p = x + y
    assert p.eval_exact({"x": 1, "y": 2}) == 3


def test_eval_zero_polynomial():
    assert MultiPoly.zero().eval_exact({"x": 5}) == 0


def test_eval_degree_three_mix():
    # 64 b^3 - 16 a^3 b^2 at a = b = 1
    a = MultiPoly.var("alpha")
    b = MultiPoly.var("beta")
    p = 64 * b ** 3 - 16 * a ** 3 * b ** 2
    assert p.eval_exact({"alpha": 1, "beta": 1}) == 48


def test_eval_missing_symbol_names_it():
    with pytest.raises(KeyError, match="y"):
        (x + y).eval_exact({"x": 1})


def test_arithmetic_and_equality():
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert (p - p).is_zero
    assert p != x ** 2
    assert (x * F(1, 2) + x * F(1, 2)) == x


def test_pow_and_subs():
    p = (x + 1) ** 3
    assert p == x ** 3 + 3 * x ** 2 + 3 * x + 1
    q = p.subs({"x": y - 1})
    assert q == y ** 3


def test_diff():
    p = x ** 3 * y + 2 * x
    assert p.diff("x") == 3 * x ** 2 * y + 2
    assert p.diff("y") == x ** 3
    assert p.diff("z").is_zero


def test_coeffs_in():
    p = x ** 2 * y + x * y + 3
    cs = p.coeffs_in("x")
    assert cs[2] == y and cs[1] == y and cs[0] == MultiPoly.const(3)


def test_exact_div():
    p = (x ** 2 - y ** 2) * (x + 2 * y)
    assert p.exact_div(x + y) == (x - y) * (x + 2 * y)
    with pytest.raises(ValueError):
        (x + 1).exact_div(y)


def test_primitive_normalization():
    # denominators cleared, rational content divided out, and the common
    # monomial factor x stripped
    p = (x * F(2, 3) + y * F(4, 3)) * x
    assert p.primitive() == x + 2 * y


def test_primitive_strips_monomial_and_sign():
    p = -(x ** 2 * y) * (x + y) * F(3, 7)
    prim = p.primitive()
    assert prim == x + y


def test_canonical_string_graded_lex():
    p = y + x ** 2 + x * y + 1
    assert p.to_str() == "x^2 + x*y + y + 1"
    assert (x - y).to_str(order=["y", "x"]) == "-y + x"


rats = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def small_polys():
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3), rats)

    def build(monos):
        p = MultiPoly.zero()
        for i, j, c in monos:
            p = p + MultiPoly.monomial(c, x=i, y=j)
        return p

    return st.lists(mono, max_size=4).map(build)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == MultiPoly.zero()
    assert p * q == q * p
    assert p + q == q + p


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_exact_div_roundtrip(p, q):
    if q.is_zero:
        return
    assert (p * q).exact_div(q) == p



# -- sympy as a differential oracle --------------------------------------------

z = MultiPoly.var("z")


def xyz_polys():
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), rats)

    def build(monos):
        p = MultiPoly.zero()
        for i, j, k, c in monos:
            p = p + MultiPoly.monomial(c, x=i, y=j, z=k)
        return p

    return st.lists(mono, max_size=4).map(build)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, p):
    return sp.Add(*[sp.Rational(c.numerator, c.denominator) *
                    sp.Mul(*[sp.Symbol(n) ** e for n, e in k])
                    for k, c in p.terms.items()])


def same(sp, p, expr):
    return sp.expand(to_sympy(sp, p) - expr) == 0


@settings(max_examples=60, deadline=None)
@given(xyz_polys(), xyz_polys(), st.integers(0, 4))
def test_ring_ops_match_sympy(sp, p, q, n):
    P, Qe = to_sympy(sp, p), to_sympy(sp, q)
    assert same(sp, p + q, P + Qe)
    assert same(sp, p - q, P - Qe)
    assert same(sp, p * q, P * Qe)
    assert same(sp, p ** n, P ** n)


@settings(max_examples=60, deadline=None)
@given(xyz_polys(), xyz_polys(), xyz_polys())
def test_subs_matches_sympy(sp, p, q, r):
    X, Y = sp.symbols("x y")
    got = p.subs({"x": q, "y": r})
    # MultiPoly.subs is simultaneous: q and r are not substituted into again
    want = to_sympy(sp, p).xreplace({X: to_sympy(sp, q), Y: to_sympy(sp, r)})
    assert same(sp, got, want)


@settings(max_examples=60, deadline=None)
@given(xyz_polys(), xyz_polys())
def test_exact_div_matches_sympy(sp, p, q):
    if q.is_zero:
        return
    gens = sp.symbols("x y z")
    for num in (p * q, p):
        quo, rem = sp.div(sp.Poly(to_sympy(sp, num), *gens),
                          sp.Poly(to_sympy(sp, q), *gens))
        if rem.is_zero:
            assert same(sp, num.exact_div(q), quo.as_expr())
        else:
            with pytest.raises(ValueError, match="not exactly divisible"):
                num.exact_div(q)
