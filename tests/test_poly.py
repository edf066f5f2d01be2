from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from laxkit.exactalg import MultiPoly
from laxkit.exactalg.poly import scaled, sum_products

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


# -- the Fraction-by-Fraction kernel as an order oracle ------------------------
#
# MultiPoly sums integer products over a common denominator and skips the
# validating constructor.  These are the products, sums and substitutions as
# they were first written, one normalising Fraction operation per term pair.
# The kernel must give the same values and the same dict order.

def reference_add(p, q):
    out = dict(p.terms)
    for k, c in q.terms.items():
        s = out.get(k, F(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return MultiPoly(out)


def reference_mul(p, q):
    out = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            e = dict(k1)
            for n, d in k2:
                e[n] = e.get(n, 0) + d
            k = tuple(sorted(e.items()))
            s = out.get(k, F(0)) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return MultiPoly(out)


def reference_pow(p, n):
    out, base = MultiPoly.const(1), p
    while n:
        if n & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def reference_subs(p, mapping):
    out = MultiPoly.zero()
    for k, c in p.terms.items():
        term = MultiPoly.const(c)
        for name, e in k:
            if name in mapping:
                term = reference_mul(term, reference_pow(MultiPoly.coerce(mapping[name]), e))
            else:
                term = reference_mul(term, MultiPoly.var(name, e))
        out = reference_add(out, term)
    return out


def items(p):
    return list(p.terms.items())


# few keys and few coefficient values, so running sums often cancel midway,
# over mixed denominators
_KEYS = [(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),),
         (("y", 2),), (("x", 1), ("z", 1))]
_coeffs = st.builds(F, st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 2, 3, 4, 6]))
_monos = st.builds(lambda k, c: MultiPoly({k: c}), st.sampled_from(_KEYS), _coeffs)
_mixed = st.dictionaries(st.sampled_from(_KEYS), _coeffs, max_size=6).map(MultiPoly) | _monos


# in this product the x^2*y sum cancels after its first two pairs and comes
# back after other keys were inserted, which moves it to the end of the dict
_XY, _X2 = (("x", 1), ("y", 1)), (("x", 2),)


@settings(max_examples=300, deadline=None)
@given(_mixed, _mixed)
@example(MultiPoly({_XY: -1, (): F(-1, 2), _X2: -1, (("x", 1),): F(1, 2)}),
         MultiPoly({(("x", 1),): -1, _XY: 2, _X2: 2, (("y", 1),): 1}))
def test_mul_matches_reference(p, q):
    assert items(p * q) == items(reference_mul(p, q))


@settings(max_examples=100, deadline=None)
@given(_monos, _mixed)
def test_monomial_mul_matches_reference_on_either_side(m, p):
    assert items(m * p) == items(reference_mul(m, p))
    assert items(p * m) == items(reference_mul(p, m))


@settings(max_examples=300, deadline=None)
@given(_mixed, _mixed, _mixed)
def test_add_matches_reference_through_cancellation(p, q, r):
    assert items(p + q) == items(reference_add(p, q))
    pq = reference_mul(p, q)
    assert (p * q + (-p) * q).is_zero
    # r - p*q cancels some keys of p*q mid-sum; later terms re-insert them
    assert items(p * q + (r - p * q)) == items(reference_add(pq, reference_add(r, -pq)))
    assert items(p * q + r * q) == items(reference_add(pq, reference_mul(r, q)))


@settings(max_examples=200, deadline=None)
@given(_mixed, _mixed, _mixed, _coeffs)
def test_subs_matches_reference(p, q, r, c):
    for mapping in ({"x": q}, {"x": q, "y": r}, {"y": c}, {"x": r, "z": 0}):
        assert items(p.subs(mapping)) == items(reference_subs(p, mapping))


@settings(max_examples=200, deadline=None)
@given(_mixed, _mixed)
def test_subs_of_absent_symbols_and_first_power_match_reference(p, q):
    # subs returns p itself when no mapped symbol occurs in it, and p ** 1
    # returns p: the values and dict order of the reference kernel
    for mapping in ({"w": q}, {"z": q}, {"y": 0, "w": 1}):
        if not set(mapping) & set(p.variables()):
            assert p.subs(mapping) is p
        assert items(p.subs(mapping)) == items(reference_subs(p, mapping))
    assert p ** 1 is p
    assert items(p ** 1) == items(reference_pow(p, 1))


@settings(max_examples=60, deadline=None)
@given(_mixed, _mixed, _mixed)
def test_mixed_denominator_mul_and_subs_match_sympy(sp, p, q, r):
    X, Y = sp.symbols("x y")
    P, Qe, R = (to_sympy(sp, v) for v in (p, q, r))
    assert same(sp, p * q, P * Qe)
    assert same(sp, p.subs({"x": q, "y": r}), P.xreplace({X: Qe, Y: R}))


def test_public_constructor_still_cleans_and_coerces():
    k = (("x", 1),)
    assert MultiPoly({k: 0}).terms == {}
    assert MultiPoly({k: 0, (): F(1, 3)}).terms == {(): F(1, 3)}
    half = MultiPoly({k: 0.5}).terms[k]
    assert type(half) is F and half == F(1, 2)
    assert MultiPoly({k: "3/4"}).terms[k] == F(3, 4)


# -- sum_products against the pairwise Fraction sum it replaces ----------------

def reference_sum_products(pairs, scale=None):
    """acc = acc + a * b over the pairs, one Fraction term at a time."""
    acc = MultiPoly.zero()
    for a, b in pairs:
        acc = reference_add(acc, reference_mul(a, b))
    if scale is None:
        return acc
    return MultiPoly({k: c * scale for k, c in acc.terms.items()})


def kernel_sum(pairs, scale=None):
    return sum_products([(scaled(a), scaled(b)) for a, b in pairs], scale)


_X, _Y = MultiPoly.var("x"), MultiPoly.var("y")
_ONE = MultiPoly.const(1)
_operands = _mixed | st.just(MultiPoly.zero()) | _monos.map(lambda m: m * F(1, 5))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_operands, _operands), max_size=6),
       st.none() | st.just(F(0)) | _coeffs)
# x cancels after the third pair and comes back last, at the end of the dict
@example([(_ONE, _X), (_ONE, _Y), (-_ONE, _X), (_ONE, _X)], None)
# inside (1 + x)(1 - x) the x sum cancels to zero: the pair's product has no
# x term, so the running sum keeps its x where it was
@example([(_ONE, _X + _Y), (_ONE + _X, _ONE - _X)], F(-3, 2))
# denominators 2 and 3 in different pairs: one common denominator 6
@example([(_X * F(1, 2), _Y + _ONE), (_Y * F(1, 3), _X - _ONE * F(1, 4))], F(2))
def test_sum_products_matches_pairwise_reference(pairs, scale):
    assert items(kernel_sum(pairs, scale)) == items(reference_sum_products(pairs, scale))


@settings(max_examples=100, deadline=None)
@given(_mixed, _mixed, _mixed, _mixed)
def test_sum_products_matches_sympy(sp, a, b, c, d):
    got = kernel_sum([(a, b), (c, d)], F(-2, 3))
    assert same(sp, got, sp.Rational(-2, 3) * (to_sympy(sp, a) * to_sympy(sp, b)
                                                + to_sympy(sp, c) * to_sympy(sp, d)))
