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
