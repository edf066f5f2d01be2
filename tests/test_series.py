from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from laxkit.exactalg import (MultiPoly, PuiseuxSeries, TruncationError,
                             poly_on_series)


def mono(c, num, den=1, valid_extra=20):
    return PuiseuxSeries.monomial(c, num, den, valid_extra)


def test_exponent_cancellation():
    a = mono(1, -1)          # t^-1
    b = mono(1, 1)           # t
    p = a * b
    assert p.coeff(0) == MultiPoly.const(1)


def test_square_of_half_integer_monomial():
    alpha = MultiPoly.var("alpha")
    s = mono(alpha, -1, 2)          # alpha * t^(-1/2), ell = 2
    sq = s * s
    assert sq.ell == 2
    assert sq.coeff(F(-1)) == alpha ** 2


def test_y2_square_leading():
    # squaring a series with leading -3/8 t^-2 gives 9/64 at t^-4
    y2 = PuiseuxSeries(1, -2, [F(-3, 8), MultiPoly.zero(), F(-1, 2)], 6)
    sq = y2 * y2
    assert sq.coeff(-4) == MultiPoly.const(F(9, 64))


def test_truncation_propagates_minimum():
    a = PuiseuxSeries(1, 0, [1, 2, 3], 3)        # valid to t^3
    b = PuiseuxSeries(1, 0, [1, 1], 5)           # valid to t^5
    s = a + b
    assert s.valid == 3
    p = a * b
    # product valid window: min(3+0, 5+0) = 3
    assert p.valid == 3
    with pytest.raises(TruncationError):
        p.coeff(3)


def test_add_and_scalar_ops():
    a = PuiseuxSeries(1, -1, [1, 2], 4)
    s = a + 5
    assert s.coeff(0) == MultiPoly.const(7)
    assert (a - a).is_zero
    assert (a * F(1, 2)).coeff(-1) == MultiPoly.const(F(1, 2))


def test_deriv():
    a = PuiseuxSeries(2, -1, [F(1), F(0), F(2)], 6)  # t^-1/2 + 2 t^1/2
    d = a.deriv()
    assert d.coeff(F(-3, 2)) == MultiPoly.const(F(-1, 2))
    assert d.coeff(F(-1, 2)) == MultiPoly.const(1)


def test_rescale_roundtrip():
    a = PuiseuxSeries(1, -2, [1, 0, 3], 4)
    b = a.rescale(3)
    assert b.ell == 3
    assert b.coeff(-2) == MultiPoly.const(1)
    assert b.coeff(0) == MultiPoly.const(3)
    assert a == b  # equality aligns indices


def test_poly_on_series_keeps_constants_symbolic():
    A = "A"
    f = MultiPoly.var("x") * MultiPoly.var(A) + MultiPoly.var("x") ** 2
    s = mono(1, -1)
    out = poly_on_series(f, {"x": s}, 1, const_valid=6)
    assert out.coeff(-2) == MultiPoly.const(1)
    assert out.coeff(-1) == MultiPoly.var(A)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=1, max_size=5),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=1, max_size=5),
       st.integers(-3, 3), st.integers(-3, 3))
def test_mul_matches_naive_convolution(ca, cb, k0a, k0b):
    big = 40
    a = PuiseuxSeries(1, k0a, ca, k0a + big)
    b = PuiseuxSeries(1, k0b, cb, k0b + big)
    p = a * b
    for e in range(k0a + k0b, min(p.valid, k0a + k0b + len(ca) + len(cb))):
        want = sum((ca[i] * cb[j] for i in range(len(ca))
                    for j in range(len(cb))
                    if (k0a + i) + (k0b + j) == e), F(0))
        assert p.coeff(e) == MultiPoly.const(want)


# -- series product against the accumulation it replaced ---------------------

def reference_mul(a, b):
    """PuiseuxSeries product as it was first written: cs[i + j] is rebuilt
    as a fresh MultiPoly for every partial sum."""
    a, b = PuiseuxSeries._aligned(a, b)
    ka, kb = a._eff_k0(), b._eff_k0()
    valid = min(a.valid + kb, b.valid + ka)
    if a.is_zero or b.is_zero:
        return PuiseuxSeries.zero(a.ell, valid)
    k0 = ka + kb
    n = valid - k0
    if n <= 0:
        return PuiseuxSeries.zero(a.ell, valid)
    cs = [MultiPoly.zero()] * n
    for i, ci in enumerate(a.coeffs):
        if ci.is_zero:
            continue
        for j in range(min(len(b.coeffs), n - i)):
            cj = b.coeffs[j]
            if not cj.is_zero:
                cs[i + j] = cs[i + j] + ci * cj
    return PuiseuxSeries(a.ell, k0, cs, valid)


_KEYS = [(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),)]
_polys = st.dictionaries(st.sampled_from(_KEYS),
                         st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
                         max_size=4).map(MultiPoly)
_series = st.builds(lambda ell, k0, cs, extra: PuiseuxSeries(ell, k0, cs, k0 + len(cs) + extra),
                    st.integers(1, 3), st.integers(-3, 3),
                    st.lists(_polys, max_size=6), st.integers(-2, 3))


@settings(max_examples=200, deadline=None)
@given(_series, _series)
def test_series_mul_matches_reference(a, b):
    got, want = a * b, reference_mul(a, b)
    assert (got.ell, got.k0, got.valid) == (want.ell, want.k0, want.valid)
    # same terms in the same dict order, so nothing downstream can tell
    assert [list(c.terms.items()) for c in got.coeffs] == \
        [list(c.terms.items()) for c in want.coeffs]


# several symbols, keys that meet from different factor pairs, and mixed
# denominators, so index sums cancel and re-insert keys more often
_KEYS3 = _KEYS + [(("z", 1),), (("x", 1), ("z", 1)), (("y", 1), ("z", 2)),
                  (("w", 1), ("x", 1)), (("w", 2),)]
_polys3 = st.dictionaries(st.sampled_from(_KEYS3),
                          st.builds(F, st.sampled_from([-2, -1, 1, 2]),
                                    st.sampled_from([1, 2, 3, 5])),
                          max_size=5).map(MultiPoly)
_series3 = st.builds(lambda ell, k0, cs, extra: PuiseuxSeries(ell, k0, cs, k0 + len(cs) + extra),
                     st.integers(1, 2), st.integers(-2, 2),
                     st.lists(_polys3, max_size=7), st.integers(-2, 3))


@settings(max_examples=200, deadline=None)
@given(_series3, _series3)
def test_series_mul_matches_reference_several_symbols(a, b):
    got, want = a * b, reference_mul(a, b)
    assert (got.ell, got.k0, got.valid) == (want.ell, want.k0, want.valid)
    assert [list(c.terms.items()) for c in got.coeffs] == \
        [list(c.terms.items()) for c in want.coeffs]


# -- poly_on_series against a power per monomial ------------------------------

def reference_poly_on_series(p, env, ell, const_valid):
    """poly_on_series with each env[name] ** e taken from scratch by
    PuiseuxSeries.__pow__."""
    total = PuiseuxSeries.zero(ell, const_valid)
    for key, c in p.terms.items():
        scalar = MultiPoly.const(c)
        factor = None
        for name, e in key:
            if name in env:
                s = env[name].rescale(ell) ** e
                factor = s if factor is None else factor * s
            else:
                scalar = scalar * MultiPoly.var(name, e)
        if factor is None:
            factor = PuiseuxSeries.constant(scalar, ell, valid=const_valid)
        else:
            factor = factor * scalar
        total = total + factor
    return total


# powers up to 4 of x and y, shared between terms so the cache is reused and
# climbed from different heights, and a symbol z that stays symbolic
_POW_KEYS = [(), (("x", 1),), (("x", 3),), (("x", 2), ("y", 1)),
             (("x", 4), ("z", 1)), (("y", 2),), (("y", 4),),
             (("x", 1), ("y", 3), ("z", 2))]
_pow_polys = st.dictionaries(st.sampled_from(_POW_KEYS),
                             st.builds(F, st.sampled_from([-3, -1, 1, 2]),
                                       st.sampled_from([1, 2, 5])),
                             min_size=1, max_size=6).map(MultiPoly)
_env_series = st.builds(lambda ell, k0, cs: PuiseuxSeries(ell, k0, cs, k0 + len(cs) + 4),
                        st.integers(1, 2), st.integers(-2, 1),
                        st.lists(_polys3, min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(_pow_polys, _env_series, _env_series, st.integers(0, 4))
def test_poly_on_series_matches_power_per_monomial(p, sx, sy, const_valid):
    env = {"x": sx, "y": sy}
    got = poly_on_series(p, env, 2, const_valid)
    want = reference_poly_on_series(p, env, 2, const_valid)
    assert (got.ell, got.k0, got.valid) == (want.ell, want.k0, want.valid)
    assert [list(c.terms.items()) for c in got.coeffs] == \
        [list(c.terms.items()) for c in want.coeffs]
