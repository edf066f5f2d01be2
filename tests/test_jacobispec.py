import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxkit import jacobispec as js
from laxkit.exactalg import nearest_roots, real_roots
from test_laxflow import reference_composed_step, reference_lattice_rhs


def _horner(coeffs, x):
    """sum coeffs[i] x^i by Horner's rule on floats: the test's own
    evaluation of an ascending coefficient list."""
    v = 0.0
    for c in reversed(coeffs):
        v = v * x + float(c)
    return v


def _sympy_charpoly(diag, off):
    """Ascending coefficients of det(z I - T), T symmetric tridiagonal with
    the given diagonal and off-diagonal: sympy's characteristic polynomial,
    not laxkit's recurrence."""
    sympy = pytest.importorskip("sympy")
    k = len(diag)
    T = sympy.zeros(k, k)
    for i in range(k):
        T[i, i] = sympy.Rational(diag[i])
        if i + 1 < k:
            T[i, i + 1] = T[i + 1, i] = sympy.Rational(off[i])
    return [F(int(c.p), int(c.q))
            for c in T.charpoly(sympy.Symbol("z")).all_coeffs()[::-1]]


def test_matrix_validation():
    with pytest.raises(ValueError, match="nonzero"):
        js.PeriodicJacobi([1, 0], [0, 0])
    with pytest.raises(ValueError, match="period"):
        js.PeriodicJacobi([1], [0])
    with pytest.raises(ValueError):
        js.PeriodicJacobi([1, 1], [0, 0, 0])


@pytest.mark.parametrize("a,b,name", [
    ([1.0, math.nan], [0.0, 0.0], "a_2"),
    ([1.0, 2.0], [math.inf, 0.0], "b_1"),
    ([-math.inf, 1.0, 1.0], [0.0, 0.0, 0.0], "a_1"),
], ids=["nan-a", "inf-b", "neg-inf-a"])
def test_matrix_rejects_nonfinite_entry(a, b, name):
    # refused by name at entry, before a NaN reaches the root finder and
    # shows up as an interlacing failure of the spectrum
    with pytest.raises(ValueError, match=f"^{name} is not finite$"):
        js.PeriodicJacobi(a, b)


def test_n2_closed_gap_golden():
    m = js.PeriodicJacobi([F(1), F(1)], [F(0), F(0)])
    d = js.spectral_data(m)
    assert d.P == [F(-2), F(0), F(1)]
    assert d.branch_points == [(-2.0, 1), (0.0, 2), (2.0, 1)]
    assert d.stable_bands == [(-2.0, 0.0), (0.0, 2.0)]
    assert d.gaps == [(0.0, 0.0)]
    assert d.aux_spectrum == [0.0]
    assert d.genus == 1


def test_n2_open_gap():
    m = js.PeriodicJacobi([F(1), F(2)], [F(0), F(0)])
    d = js.spectral_data(m)
    assert d.stable_bands == [(-3.0, -1.0), (1.0, 3.0)]
    assert d.gaps == [(-1.0, 1.0)]
    assert d.aux_spectrum == [0.0]
    assert d.interlacing_ok()


def test_dirichlet_roots_satisfy_curve():
    # at each auxiliary eigenvalue both c = (-1)^(N+1) aN^2 Lambda(sigma)/alpha
    # and 1/c solve alpha h^2 - P(sigma) h + alpha = 0, the identity behind
    # the atom masses; Lambda is taken here as a numpy determinant of the
    # interior block (det of a 0 x 0 block is 1)
    rng = np.random.default_rng(1)
    for N in (2, 3, 4, 5, 6):
        a = (rng.uniform(0.5, 2.0, N) * rng.choice([-1.0, 1.0], N)).tolist()
        m = js.PeriodicJacobi(a, rng.uniform(-0.5, 0.5, N).tolist())
        d = js.spectral_data(m)
        A = js._periodic_matrix(m.a, m.b, 1.0)
        for s in d.aux_spectrum:
            lam = np.linalg.det(A[1:-1, 1:-1] - s * np.eye(N - 2))
            c = (-1) ** (N + 1) * m.a[-1] ** 2 * lam / d.alpha
            Ps = _horner(d.P, s)
            for h in (c, 1 / c):
                scale = abs(d.alpha * h * h) + abs(Ps * h) + abs(d.alpha)
                assert abs(d.alpha * h * h - Ps * h + d.alpha) < 1e-10 * scale


def test_pencil_consistency_F_vs_determinant():
    rng = np.random.default_rng(2)
    for N in (2, 3, 4, 5):
        m = js.PeriodicJacobi(list(rng.uniform(0.5, 2.0, N)),
                              list(rng.uniform(-0.5, 0.5, N)))
        P = js.floquet_polynomial(m)
        alpha = float(m.alpha())
        for _ in range(20):
            h = rng.uniform(0.3, 2.0) * (1 if rng.random() < 0.5 else -1)
            z = rng.uniform(-3, 3)
            A = js._periodic_matrix([float(x) for x in m.a],
                                    [float(x) for x in m.b], h)
            det = np.linalg.det(A - z * np.eye(N))
            curve = (-1) ** (N + 1) * (alpha * (h + 1 / h) - _horner(P, z))
            assert abs(det - curve) < 1e-10 * max(1.0, abs(det))


def test_gamma_fraction_depth_one():
    assert js.gamma_fraction([0.0001, 1], [0, 0], 3, 2.0, 1) == pytest.approx(4.5)
    # depth 1 is a0^2/(z - b1) regardless of the deeper entries


def test_gamma_fraction_chebyshev_fixed_point():
    val = js.gamma_fraction([1, 1], [0, 0], 1, 3.0, 300)
    assert abs(val - (3 - math.sqrt(5)) / 2) < 1e-14


def test_gamma_fraction_division_guard():
    with pytest.raises(ZeroDivisionError, match="level"):
        js.gamma_fraction([1, 1], [0, 0], 1, 0.0, 1)
    with pytest.raises(ValueError):
        js.gamma_fraction([1, 1], [0, 0], 1, 3.0, 0)
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        js.gamma_fraction([1, 1], [0, 0], 1, 3.0, js.MAX_DEPTH + 1)


def _gamma_reference(a, b, a0, z, depth):
    """gamma_fraction as it read the fraction from two depth-long lists of
    floats, squaring a_j at every level: the reference for bit identity."""
    n = len(a)
    aa = [float(a[i % n]) for i in range(depth)]
    bb = [float(b[i % n]) for i in range(depth)]
    w = 0.0
    for lev in range(depth, 1, -1):
        w = (aa[lev - 2] ** 2) / (z - bb[lev - 1] - w)
    return (float(a0) ** 2) / (z - bb[0] - w)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(1, 30), st.data())
def test_gamma_fraction_matches_level_list_reference(N, depth, data):
    # depths below, at and above the period: the period is indexed directly
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    z = complex(data.draw(st.floats(-20, 20)), data.draw(st.floats(1, 20)))
    got = js.gamma_fraction(a, b, a[-1], z, depth)
    want = _gamma_reference(a, b, a[-1], z, depth)
    assert _same_bits([got.real, got.imag], [want.real, want.imag])


def test_pade_k1():
    A, B = js.pade([1, 1], [F(1, 4), 0], F(3), 1)
    assert A == [F(9)]
    assert B == [F(-1, 4), F(1)]


def test_pade_equals_fraction_numerically():
    a, b, a0 = [1.0, 2.0, 0.5], [0.1, -0.3, 0.2], 1.2
    for k in range(1, 8):
        An, Bn = js.pade(a, b, a0, k)
        z = 3.7
        val = sum(float(c) * z ** i for i, c in enumerate(An)) / \
            sum(float(c) * z ** i for i, c in enumerate(Bn))
        assert abs(val - js.gamma_fraction(a, b, a0, z, k)) < 1e-11


def test_pade_degrees_and_monic():
    A, B = js.pade([F(1), F(2)], [F(0), F(1)], F(1), 6)
    assert len(A) == 6 and len(B) == 7
    assert B[-1] == 1


def test_wronskian_identity():
    aseq, bseq, a0 = [F(1), F(2), F(3)], [F(1, 2), F(-1, 2), F(0)], F(2)
    prev = js.pade(aseq, bseq, a0, 1)
    for j in range(2, 7):
        cur = js.pade(aseq, bseq, a0, j)
        Am, Bm = prev
        Ac, Bc = cur
        conv = [F(0)] * (len(Am) + len(Bc))
        for i, u in enumerate(Am):
            for l, v in enumerate(Bc):
                conv[i + l] += u * v
        for i, u in enumerate(Ac):
            for l, v in enumerate(Bm):
                conv[i + l] -= u * v
        expect = -a0 ** 2
        for i in range(1, j):
            expect *= aseq[(i - 1) % 3] ** 2
        assert conv[0] == expect
        assert all(c == 0 for c in conv[1:])
        prev = cur


def test_b_k_is_truncated_characteristic_polynomial():
    # B_k = det(z I - J_k), J_k the leading k x k block of the periodically
    # extended Jacobi matrix
    aseq, bseq = [F(1), F(2), F(3)], [F(1, 2), F(-1, 2), F(0)]
    for k in range(1, 6):
        _, B = js.pade(aseq, bseq, 1, k)
        assert B == _sympy_charpoly([bseq[i % 3] for i in range(k)],
                                    [aseq[i % 3] for i in range(k - 1)])


def test_moments():
    aseq, bseq, a0 = [F(1), F(2), F(3)], [F(1, 2), F(-1, 2), F(0)], F(2)
    c = js.moments(aseq, bseq, a0, 12)
    assert c[0] == a0 ** 2
    codd = js.moments([F(1), F(1)], [F(0), F(0)], 1, 9)
    assert all(codd[i] == 0 for i in range(1, 9, 2))
    for k in range(1, 6):
        assert js.pade_series(aseq, bseq, a0, k, 2 * k) == c[:2 * k]


# -- Fraction references of the integer recurrences ---------------------------

def _fraction_monic(diag, off):
    """det(zI - T) by the three-term recurrence on Fractions, each operation
    reduced by its own gcd: jacobispec._monic before it ran on integers."""
    prev, cur = [], [F(1)]
    for k, d in enumerate(diag):
        nxt = [0] + cur
        for i, c in enumerate(cur):
            nxt[i] -= d * c
        if k:
            o2 = off[k - 1] ** 2
            for i, c in enumerate(prev):
                nxt[i] -= o2 * c
        prev, cur = cur, nxt
    return cur


def _fraction_moments(a, b, a0, count):
    """c_j = a0^2 <T^j e0, e0> by Fraction matrix-vector products."""
    n, size = len(a), count + 2
    aa = [F(a[i % n]) for i in range(size)]
    bb = [F(b[i % n]) for i in range(size)]
    v = [F(0)] * size
    v[0] = F(1)
    out = [F(a0) ** 2]
    for _ in range(count - 1):
        w = [F(0)] * size
        for i in range(size):
            w[i] += bb[i] * v[i]
            if i + 1 < size:
                w[i + 1] += aa[i] * v[i]
            if i > 0:
                w[i - 1] += aa[i - 1] * v[i]
        v = w
        out.append(F(a0) ** 2 * v[0])
    return out


def _fraction_pade_series(a, b, a0, k, terms):
    """The expansion of A_k/B_k at infinity by Fraction long division of
    the reversed convergent polynomials."""
    n = len(a)
    aa = [F(a[i % n]) for i in range(k)]
    bb = [F(b[i % n]) for i in range(k)]
    A = [F(a0) ** 2 * c for c in _fraction_monic(bb[1:], aa[1: k - 1])]
    B = _fraction_monic(bb, aa[: k - 1])
    rem, Brev, out = A[::-1] + [F(0)] * terms, B[::-1], []
    for j in range(terms):
        d = rem[j] / Brev[0]
        out.append(d)
        for i in range(len(Brev)):
            if j + i < len(rem):
                rem[j + i] -= d * Brev[i]
    return out


def _assert_same_fractions(got, want):
    assert [type(x) for x in got] == [type(x) for x in want]
    assert got == want and list(map(str, got)) == list(map(str, want))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 32), st.integers(1, 12), st.data())
def test_integer_recurrences_match_fraction_references(N, k, data):
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 12))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 12)))
         for _ in range(N)]
    a0 = F(data.draw(_nonzero), data.draw(st.integers(1, 9)))
    _assert_same_fractions(js._monic(b, a[:-1]), _fraction_monic(b, a[:-1]))
    _assert_same_fractions(js._monic(b[1:-1], a[1:-2]), _fraction_monic(b[1:-1], a[1:-2]))
    _assert_same_fractions(js.moments(a, b, a0, 2 * k), _fraction_moments(a, b, a0, 2 * k))
    _assert_same_fractions(js.pade_series(a, b, a0, k, 2 * k),
                           _fraction_pade_series(a, b, a0, k, 2 * k))


def test_integer_recurrences_on_float_and_int_entries():
    a, b = [1.5, 2, 0.1], [0, 1, -0.3]
    _assert_same_fractions(js.moments(a, b, 3, 10), _fraction_moments(a, b, 3, 10))
    _assert_same_fractions(js.pade_series(a, b, 0.7, 5, 10),
                           _fraction_pade_series(a, b, 0.7, 5, 10))
    _assert_same_fractions(js._monic([], []), [F(1)])


def test_monic_at_period_128_matches_sympy():
    a, b = _long_period_data(128)
    assert js._monic(b, a[:-1]) == _sympy_charpoly(b, a[:-1])


def test_measure_closed_gap_pure_continuous():
    # sigma = 0 is the closed gap's double branch point: no atom there, and
    # each band is integrated as it is, the closed-gap edge like an open one
    m = js.PeriodicJacobi([F(1), F(1)], [F(0), F(0)])
    data = js.spectral_data(m)
    mu = js.measure_decompose(m, 1, data=data)
    assert mu.atoms == []
    assert mu.bands == data.stable_bands
    assert abs(mu.total_mass() - 1.0) < 1e-12
    # classical semicircle density at the center
    assert abs(mu.density(0.0) - 1 / math.pi) < 1e-12
    assert js.stieltjes_error(data, mu, 1, 400) < 1e-12


def test_measure_open_gap_atom():
    m = js.PeriodicJacobi([F(1), F(2)], [F(0), F(0)])
    mu = js.measure_decompose(m, 2)
    assert len(mu.atoms) == 1
    x, mass = mu.atoms[0]
    assert abs(x) < 1e-12 and abs(mass - 3.0) < 1e-10
    assert abs(mu.total_mass() - 4.0) < 1e-8


def test_measure_positivity():
    rng = np.random.default_rng(3)
    for N in (2, 3, 4):
        a = [F(int(rng.integers(4, 17)), 8) for _ in range(N)]
        b = [F(int(rng.integers(-6, 7)), 8) for _ in range(N)]
        m = js.PeriodicJacobi(a, b)
        mu = js.measure_decompose(m, a[-1])
        assert all(mass >= 0 for _, mass in mu.atoms)
        for lo, hi in mu.bands:
            for x in np.linspace(lo + 1e-6, hi - 1e-6, 25):
                assert mu.density(float(x)) >= 0


def test_stieltjes_transform_matches_fraction():
    m = js.PeriodicJacobi([F(1), F(3, 2), F(2)], [F(1, 4), F(-1, 3), F(0)])
    a0 = m.a[-1]
    mu = js.measure_decompose(m, a0)
    for z in (8.0, -7.0, 3 + 2j, 5 + 0j):
        frac = js.gamma_fraction(m.a, m.b, a0, complex(z), 250)
        assert abs(mu.cauchy_transform(complex(z)) - frac) < 1e-9


def test_rescaled_a0():
    m = js.PeriodicJacobi([F(1), F(2)], [F(0), F(0)])
    mu = js.measure_decompose(m, 1)   # a0 != a_N
    assert abs(mu.total_mass() - 1.0) < 1e-8
    frac = js.gamma_fraction(m.a, m.b, 1, 6.0, 250)
    assert abs(mu.cauchy_transform(6.0 + 0j) - frac) < 1e-10


def test_orthogonality_chebyshev():
    res = js.orthogonality_check(js.PeriodicJacobi([F(1), F(1)], [F(0), F(0)]),
                                 1, 6)
    assert res["worst_offdiag"] < 1e-8
    assert res["worst_diag_rel"] < 1e-8


def test_orthogonality_random_period_three():
    m = js.PeriodicJacobi([F(1), F(3, 2), F(2)], [F(1, 4), F(-1, 3), F(0)])
    res = js.orthogonality_check(m, m.a[-1], 6)
    assert res["worst_offdiag"] < 1e-6


def test_toda_flow_diagnostics():
    m = js.PeriodicJacobi([1.0, 0.8, 1.3], [0.2, -0.1, 0.4])
    diag = js.toda_flow_jacobi(m, 1.0, 1e-3)
    assert diag.trace_sum_drift < 1e-12
    assert diag.band_edge_drift < 1e-7
    assert diag.power_trace_drift < 1e-8
    assert diag.interlacing_ok
    assert diag.min_abs_a > 0


def test_toda_flow_shifted_b_conserves_sum():
    m = js.PeriodicJacobi([1.0, 1.1, 0.9], [1.2, 1.2, 1.2])
    diag = js.toda_flow_jacobi(m, 0.5, 1e-3)
    assert diag.trace_sum_drift < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_interlacing_random_rational(N, seed):
    rng = np.random.default_rng(seed)
    a = [F(int(rng.integers(2, 17)), 8) for _ in range(N)]
    b = [F(int(rng.integers(-8, 9)), 8) for _ in range(N)]
    try:
        d = js.spectral_data(js.PeriodicJacobi(a, b))
    except js.DegenerateSpectrumError:
        return  # rejected loudly rather than silently wrong
    assert d.interlacing_ok()
    assert sum(mult for _, mult in d.branch_points) == 2 * N
    assert len(d.aux_spectrum) == N - 1


def test_atom_mass_dichotomy():
    # each atom mass is either 0 (dropped) or the square-root branch value
    # sqrt(P(sigma)^2 - 4 alpha^2) / |prod_(l != j) (sigma_j - sigma_l)|,
    # rescaled by (a0/aN)^2; this ties the residue formula to the curve
    rng = np.random.default_rng(17)
    for N in (2, 3, 4):
        a = [F(int(rng.integers(4, 17)), 8) for _ in range(N)]
        b = [F(int(rng.integers(-6, 7)), 8) for _ in range(N)]
        m = js.PeriodicJacobi(a, b)
        data = js.spectral_data(m)
        mu = js.measure_decompose(m, a[-1], data=data)
        import math as _math
        for x, mass in mu.atoms:
            Px = _horner([float(c) for c in data.P], x)
            disc = Px * Px - 4 * data.alpha ** 2
            denom = 1.0
            for s in data.aux_spectrum:
                if abs(s - x) > 1e-9:
                    denom *= (x - s)
            want = _math.sqrt(max(disc, 0.0)) / abs(denom)
            assert abs(mass - want) < 1e-7 * max(1.0, want)


def _square_root_mass(d, a0, j):
    """The j-th atom mass as it was computed before the Dirichlet identity,
    and an estimate of that value's own relative roundoff.

    h(sigma_j) is the root of alpha h^2 - P h + alpha inside the unit
    circle, taken with a complex square root of the discriminant
    P^2 - 4 alpha^2.  Horner's P(sigma) carries an error of about
    eps * sum |p_i| |sigma|^i, which the square root magnifies by
    |P| / disc: near 1e-8 at a closed gap, where disc is 0 up to roundoff,
    and 1e-10 already on some open gaps of height-16 data."""
    m, N, s = d.matrix, d.matrix.period, d.aux_spectrum[j]
    Ps = _horner(d.P, s)
    disc = Ps * Ps - 4 * d.alpha ** 2
    sq = np.sqrt(complex(disc))
    h = min((Ps + sq) / (2 * d.alpha), (Ps - sq) / (2 * d.alpha), key=abs)
    aN = float(m.a[-1])
    lam = _horner(_sympy_charpoly(m.b[1: N - 1], m.a[1: N - 2]), s)
    den = math.prod(s - t for l, t in enumerate(d.aux_spectrum) if l != j)
    mass = (float(a0) / aN) ** 2 * (d.alpha * h + aN ** 2 * lam) / den
    p_abs = _horner([abs(c) for c in d.P], abs(s))
    roundoff = 2.2e-16 * p_abs * abs(Ps) / abs(disc) if disc else math.inf
    return mass, roundoff


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_atom_masses_match_square_root_reference(N, data):
    # the old formula is the reference wherever it is itself accurate: real,
    # and with its own roundoff (see _square_root_mass) below 1e-11
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    a0 = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    m = js.PeriodicJacobi(a, b)
    d = js.spectral_data(m)
    atoms = dict(js.measure_decompose(m, a0, data=d).atoms)
    for j, s in enumerate(d.aux_spectrum):
        want, roundoff = _square_root_mass(d, a0, j)
        if abs(want.imag) >= 1e-12 or roundoff > 1e-11:
            continue
        if s in atoms:
            assert abs(atoms[s] - want.real) <= 1e-10 * abs(want.real)
        else:   # a zero mass, which the square-root reference gets only to
            # roundoff: the exact one is 0 on the |c| <= 1 sheet
            exact = _exact_atom_masses(a, b, a0, d.aux_spectrum)[j]
            assert float(exact) <= 1e-12 * min(1.0, float(a0) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_density_matches_exact_discriminant(N, data):
    # the product over branch points and sigma_j against
    # s/(2 pi) sqrt(4 alpha^2 - P^2)/|cofactor| with P and the cofactor
    # evaluated exactly at rational points inside each band
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    m = js.PeriodicJacobi(a, b)
    d = js.spectral_data(m)
    mu = js.measure_decompose(m, 1, data=d)
    scale = 1 / float(a[-1]) ** 2
    alpha2 = m.alpha() ** 2
    for lo, hi in d.stable_bands:
        for t in (F(1, 10), F(1, 3), F(1, 2), F(7, 9)):
            x = F(lo) + t * (F(hi) - F(lo))
            disc = 4 * alpha2 - _horner(d.P, x) ** 2
            cof = _horner(d.cofactor, x)
            if cof == 0:
                continue
            want = scale * math.sqrt(disc) / (2 * math.pi * abs(float(cof)))
            assert mu.density(float(x)) == pytest.approx(want, rel=1e-9)


def _exact_atom_masses(a, b, a0, aux):
    """The atom mass at each sigma_j of aux, computed in Fractions at
    sigma_j as the double it is: c = -a_N^2 Lambda(sigma)/alpha, with
    Lambda(z) = det(z I - T') for T' the interior block of sites 2..N-1, and
    mass = (a0/a_N)^2 (alpha/c + a_N^2 Lambda)/prod_(l != j)(sigma_j - sigma_l)
    where |c| > 1, else 0."""
    N = len(a)
    a, b = [F(x) for x in a], [F(x) for x in b]
    alpha, aN2 = math.prod(a), a[-1] ** 2
    scale = (F(a0) / a[-1]) ** 2
    sig = [F(s) for s in aux]
    out = []
    for j, s in enumerate(sig):
        prev, lam = F(0), F(1)
        for k in range(1, N - 1):
            prev, lam = lam, (s - b[k]) * lam - a[k - 1] ** 2 * prev
        c = -aN2 * lam / alpha
        if abs(c) <= 1:
            out.append(F(0))
            continue
        den = math.prod(s - t for l, t in enumerate(sig) if l != j)
        out.append(scale * (alpha / c + aN2 * lam) / den)
    return out


def _assert_atom_masses_exact(a, b, a0, aux, atoms):
    """Each reported mass within 1e-12 a0^2 of its exact value at the
    reported sigma_j; a dropped atom's exact mass at most 1e-12 a0^2."""
    bound = 1e-12 * float(a0) ** 2
    for s, want in zip(aux, _exact_atom_masses(a, b, a0, aux), strict=True):
        if s in atoms:
            assert abs(atoms[s] - float(want)) <= bound, s
        else:
            assert float(want) <= bound, s


def _long_period_data(N):
    """The exact period-N data of ROADMAP item 13, valid at every period:
    a_j = (1 + (7j mod 5))/(2 + (j mod 3)), b_j = ((5j mod 7) - 3)/(1 + (j mod 4)),
    j = 0..N-1.  Horner's rule on the interior determinant's coefficients
    made period 48 exit 1 with a negative atom mass."""
    return ([F(1 + 7 * j % 5, 2 + j % 3) for j in range(N)],
            [F(5 * j % 7 - 3, 1 + j % 4) for j in range(N)])


@pytest.mark.parametrize("N", [24, 48, 96])
def test_long_period_cli_exit_0_with_exact_atom_masses(tmp_path, N):
    from laxkit.cli import main
    import json
    a, b = _long_period_data(N)
    assert main(["jacobi", "-a=" + ",".join(map(str, a)),
                 "-b=" + ",".join(map(str, b)), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "jacobi_report.json").read_text())
    _assert_atom_masses_exact(a, b, a[-1], rep["auxiliary_spectrum"],
                              dict(map(tuple, rep["atoms"])))
    assert rep["total_mass"] == pytest.approx(float(a[-1]) ** 2, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 32), st.data())
def test_atom_masses_match_exact_reference_at_every_period(N, data):
    # entries of the size of _long_period_data's; the bound is 1e-12 a0^2
    a = [F(data.draw(st.integers(1, 5).flatmap(lambda k: st.sampled_from([k, -k]))),
           data.draw(st.integers(1, 4))) for _ in range(N)]
    b = [F(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 4)))
         for _ in range(N)]
    a0 = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    m = js.PeriodicJacobi(a, b)
    d = js.spectral_data(m)
    try:
        atoms = dict(js.measure_decompose(m, a0, data=d).atoms)
    except OverflowError as exc:
        # a skipped band narrower than NARROW_BAND whose mass the other bands
        # cannot make up is refused loudly (ROADMAP item 1's absolute
        # tolerances, as for a = (5/2, 1, 1/2, 1/2, 3/4, ...) of period 30),
        # before any atom mass is returned
        assert "too narrow" in str(exc)
        return
    _assert_atom_masses_exact(a, b, a0, d.aux_spectrum, atoms)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.data())
def test_repeating_the_period_keeps_the_measure(p, q, data):
    # period-p data read as period p*q describe the same half-line operator,
    # so the same measure: the repetition closes gaps that the base does not
    # have, each with a sigma_j in it that must carry no atom, and it splits
    # bands at them.  Bounds: masses 1e-11 a0^2, total mass 1e-8 relative,
    # Cauchy transforms 1e-10 a0^2 on the base's Stieltjes grid
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(p)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(p)]
    a0 = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    w = float(a0) ** 2
    base_m = js.PeriodicJacobi(a, b)
    base_d = js.spectral_data(base_m)
    base = js.measure_decompose(base_m, a0, data=base_d)
    mu = js.measure_decompose(js.PeriodicJacobi(a * q, b * q), a0)
    assert [x for x, _ in mu.atoms] == [x for x, _ in base.atoms]
    for (_, got), (_, want) in zip(mu.atoms, base.atoms):
        assert abs(got - want) <= 1e-11 * w
    # the base's quadrature is the reference, so it must itself be accurate:
    # 160 nodes miss the density's peak on a band whose edge lies about 1e-6
    # from a sigma_j outside it (ROADMAP item 1).  a = (1, 3/2, 4, 3),
    # b = (1, 5/8, 8/3, 0), a0 = 1 has sigma_1 2.2e-6 below a band edge, and
    # its base transform misses the fraction by 1.8e-9
    if js.stieltjes_error(base_d, base, a0, 400) > 1e-10 * w:
        return
    assert mu.total_mass() == pytest.approx(w, rel=1e-8)
    for z in js._stieltjes_grid(base_d):
        assert abs(mu.cauchy_transform(z) - base.cauchy_transform(z)) <= 1e-10 * w


def _coincident_sigma(d):
    """SpectralData d with sigma_2 moved onto sigma_1: two simple roots
    rounded to one double, as no correctly rounded input of period 3 does."""
    aux = d.aux_spectrum
    return dataclasses.replace(d, aux_spectrum=[aux[0], aux[0]] + aux[2:])


def test_coincident_sigma_raises_floating_point_error():
    m = js.PeriodicJacobi([F(1), F(3, 2), F(2)], [F(1, 4), F(-1, 3), F(0)])
    d = _coincident_sigma(js.spectral_data(m))
    with pytest.raises(FloatingPointError,
                       match=f"^sigma_1 and sigma_2 round to one double {d.aux_spectrum[0]}$"):
        js.measure_decompose(m, 1, data=d)


def test_coincident_sigma_cli_exit_3_writes_nothing(tmp_path, capsys, monkeypatch):
    from laxkit.cli import main
    real = js.spectral_data
    monkeypatch.setattr(js, "spectral_data", lambda m: _coincident_sigma(real(m)))
    out = tmp_path / "out"
    assert main(["jacobi", "-a", "1,3/2,2", "-b", "1/4,-1/3,0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical breakdown: sigma_1 and sigma_2 round")
    assert not out.exists()


def test_tiny_a_distinct_sigma_cli_exit_0(tmp_path):
    # sigma = +-1e-10 are distinct doubles 2e-10 apart, so valid data with
    # tiny entries must not be taken for coincident sigma_j
    from laxkit.cli import main
    import json
    a = "1/10000000000"
    assert main(["jacobi", "-a", f"{a},{a},{a}", "-b", "0,0,0",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert rep["auxiliary_spectrum"] == [-1e-10, 1e-10]
    assert rep["total_mass"] == pytest.approx(1e-20, rel=1e-8)


@pytest.mark.parametrize("b", [[0, 0, 10 ** 7], [0, 0, 0, 10 ** 7]],
                         ids=["N3", "N4"])
def test_skipped_band_beside_integrated_bands_holds_the_mass(b):
    # b_N = 1e7 splits off a band about 4e-14 wide that the quadrature
    # skips; the bands near +-1 are about 1e-7 wide and carry nearly all
    # the mass, with sigma_j on an edge of each (the density grows like
    # 1/sqrt(|x - sigma_j|) there).  Atoms plus integrated bands hold a0^2
    m = js.PeriodicJacobi([F(1)] * len(b), [F(x) for x in b])
    mu = js.measure_decompose(m, F(3, 2))
    assert any(hi - lo < js.NARROW_BAND for lo, hi in mu.bands)
    assert mu.total_mass() == pytest.approx(9 / 4, rel=1e-8)


@pytest.mark.parametrize("N", range(2, 21))
def test_free_lattice_measure_has_no_atoms(N):
    # every gap of the free lattice is closed: no atom, and the bands carry
    # the whole mass a0^2 (to jacobi's default --tol)
    m = js.PeriodicJacobi([F(1)] * N, [F(0)] * N)
    d = js.spectral_data(m)
    for a0 in (F(1), F(3, 2)):
        mu = js.measure_decompose(m, a0, data=d)
        assert mu.atoms == []
        assert mu.total_mass() == pytest.approx(float(a0) ** 2, rel=1e-6)


@pytest.mark.parametrize("N", range(2, 21))
def test_free_lattice_cli_exit_0_no_atoms(tmp_path, N):
    from laxkit.cli import main
    import json
    assert main(["jacobi", "-a=" + ",".join(["1"] * N),
                 "-b=" + ",".join(["0"] * N), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert payload["atoms"] == []
    assert payload["total_mass"] == pytest.approx(1.0, rel=1e-6)


# the period-3 input whose discriminant once hung exact root finding: its
# constant and leading coefficients are far too large for trial division
ITEM4_A = [F(7, 13), F(7, 13) + F(1, 97), F(7, 13) + F(2, 97)]
ITEM4_B = [F(-1, 3), F(1, 11) - F(1, 3), F(2, 11) - F(1, 3)]


def test_large_height_period_three_spectral_data(time_limit):
    with time_limit(20):
        d = js.spectral_data(js.PeriodicJacobi(ITEM4_A, ITEM4_B))
    assert sum(m for _, m in d.branch_points) == 6
    assert d.interlacing_ok()
    # independent check: the branch points are the eigenvalues of the
    # periodic (h = 1) and antiperiodic (h = -1) matrices
    a = [float(x) for x in ITEM4_A]
    b = [float(x) for x in ITEM4_B]
    ref = sorted(np.concatenate([np.linalg.eigvalsh(js._periodic_matrix(a, b, h))
                                 for h in (1.0, -1.0)]))
    assert [x for x, _ in d.branch_points] == pytest.approx(ref, abs=1e-10)


def test_large_height_period_three_cli(tmp_path, time_limit):
    from laxkit.cli import main
    import json
    argv = ["jacobi", "-a=" + ",".join(map(str, ITEM4_A)),
            "-b=" + ",".join(map(str, ITEM4_B)),
            "--check-stieltjes", "--toda-t-end", "1", "--out", str(tmp_path)]
    with time_limit(30):
        assert main(argv) == 0
    payload = json.loads((tmp_path / "jacobi_report.json").read_text())
    assert len(payload["branch_points"]) == 6
    assert payload["interlacing_ok"] is True
    assert payload["stieltjes_check"]["pass"] is True
    assert payload["toda"]["interlacing_ok"] is True


def _scalar_density(scale, edges, aux):
    """The band density one x at a time in Python floats, as
    measure_decompose built it before it took whole node arrays: the
    reference for bit identity."""
    from bisect import bisect_right
    pairs = list(zip(edges[1:-1:2], edges[2:-1:2], aux))

    def density(x):
        if bisect_right(edges, x) % 2 == 0:
            return 0.0
        rho = (scale / (2 * math.pi) * math.sqrt(x - edges[0])
               * math.sqrt(edges[-1] - x))
        for lo, hi, s in pairs:
            if x == s:
                if lo != hi:
                    return 0.0
                continue
            rho *= math.sqrt(abs(x - lo)) * math.sqrt(abs(hi - x)) / abs(x - s)
        return rho
    return density


def _measure_density_reference(m, a0, d):
    """_scalar_density on the scale, edges and sigma_j measure_decompose
    reads from m, a0 and its SpectralData d."""
    return _scalar_density((float(a0) / float(m.a[-1])) ** 2, _edges(d).tolist(),
                           d.aux_spectrum)


def _probe_points(edges, aux):
    """x = sigma_j; each edge, the doubles beside it and two ulps off; a
    point in each gap, and points outside the spectrum."""
    pts = list(aux) + [edges[0] - 1.0, edges[-1] + 1.0]
    for e in edges:
        pts += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                np.nextafter(np.nextafter(e, np.inf), np.inf)]
    pts += [(lo + hi) / 2 for lo, hi in zip(edges[1:-1:2], edges[2:-1:2])]
    return [float(x) for x in pts]


def _assert_density_matches_reference(kernel, ref, xs):
    xs = np.asarray(xs, dtype=float)
    assert _same_bits(kernel(xs), [ref(x) for x in xs.tolist()])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 2), st.data())
def test_band_density_matches_scalar_reference(N, q, data):
    # every node of every band, and the probe points, bit for bit with
    # signed zeros; repeating the data (q = 2) closes gaps, with a sigma_j
    # on each closed gap
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    a0 = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    m = js.PeriodicJacobi(a * q, b * q)
    d = js.spectral_data(m)
    mu = js.measure_decompose(m, a0, data=d)
    ref = _measure_density_reference(m, a0, d)
    for xs, _, dens in mu.quadrature:
        assert _same_bits(dens, [ref(x) for x in xs.tolist()])
    _assert_density_matches_reference(mu.band_density, ref,
                                      _probe_points(_edges(d).tolist(), d.aux_spectrum))
    assert all(_same_bits(mu.density(x), ref(x)) for x in d.aux_spectrum)


def test_band_density_at_sigma_on_an_open_edge_and_a_closed_gap():
    # gap 1 closed at -1 with sigma_1 there (its factor is skipped), gap 2
    # open with sigma_2 on its upper edge 2, the lower edge of the last band
    # (the density is 0 there); that band is 8 ulps wide, so its nodes round
    # onto its edges
    top = 2.0 + 8 * np.spacing(2.0)
    edges, aux = [-3.0, -1.0, -1.0, 1.0, 2.0, top], [-1.0, 2.0]
    kernel, ref = js._band_density(0.5, edges, aux), _scalar_density(0.5, edges, aux)
    _assert_density_matches_reference(kernel, ref, _probe_points(edges, aux)
                                      + np.linspace(-4, 5, 91).tolist())
    assert kernel(np.array([2.0]))[0] == 0.0 and kernel(np.array([-1.0]))[0] > 0
    # each band's nodes, and the same nodes stepped one double outwards
    sin_t, _ = js._sine_gauss_legendre(js.QUAD_NODES)
    for lo, hi in [(-3.0, -1.0), (-1.0, 1.0), (2.0, top)]:
        mid = (lo + hi) / 2
        xs = mid + (hi - lo) / 2 * sin_t
        assert {lo, hi} <= set(xs.tolist()) or hi - lo > 1
        for nodes in (xs, np.nextafter(xs, np.where(xs < mid, -np.inf, np.inf))):
            _assert_density_matches_reference(kernel, ref, nodes)


def test_measure_quadrature_table_is_shared():
    m = js.PeriodicJacobi([F(1), F(2), F(3, 2)], [F(1, 2), F(-1, 2), F(0)])
    mu = js.measure_decompose(m, F(3, 2))
    table = mu.quadrature
    mu.total_mass()
    mu.cauchy_transform(2j)
    assert mu.quadrature is table
    assert len(table) == len(mu.bands)
    xs, w, dens = table[0]
    assert dens.tolist() == [mu.density(x) for x in xs]
    ref = _measure_density_reference(m, F(3, 2), js.spectral_data(m))
    assert _same_bits(dens, [ref(x) for x in xs.tolist()])
    # integrate walks Python floats; on numpy scalars it summed the same bits

    def f(x):
        return x * x - x / 3

    want = sum(mass * f(x) for x, mass in mu.atoms)
    for xs, w, dens in table:
        want += float(np.sum(w * np.array([d * f(x) for d, x in zip(dens, xs)])))
    assert mu.integrate(f) == want


def _edges(d):
    """The 2N branch points of a SpectralData, each repeated by multiplicity."""
    return np.array([x for x, mult in d.branch_points for _ in range(mult)])


def _float_matrix(m):
    return js.PeriodicJacobi([float(x) for x in m.a], [float(x) for x in m.b])


# free lattices: every gap is closed, so each inner band edge is double
FREE_LATTICES = [([1, 1, 1, 1], [0, 0, 0, 0]), ([100, 100, 100], [0, 0, 0])]


@pytest.mark.parametrize("a,b", FREE_LATTICES, ids=["four-site", "three-site-100"])
def test_free_lattice_float_edges_match_exact(a, b):
    exact = js.spectral_data(js.PeriodicJacobi([F(x) for x in a],
                                               [F(x) for x in b]))
    flt = js.spectral_data(_float_matrix(exact.matrix))
    # integer floats store the same rationals: the closed gaps stay double
    assert flt == exact
    assert any(mult == 2 for _, mult in flt.branch_points)
    assert np.max(np.abs(_edges(flt) - _edges(exact))) <= 1e-12
    assert np.max(np.abs(np.subtract(flt.aux_spectrum, exact.aux_spectrum))) <= 1e-12
    assert flt.interlacing_ok()


def test_four_site_free_lattice_double_edges():
    d = js.spectral_data(js.PeriodicJacobi([1.0] * 4, [0.0] * 4))
    r2 = math.sqrt(2)
    assert _edges(d) == pytest.approx([-2, -r2, -r2, 0, 0, r2, r2, 2], abs=1e-12)
    assert d.aux_spectrum == pytest.approx([-r2, 0, r2], abs=1e-12)


_nonzero = st.integers(1, 16).flatmap(lambda k: st.sampled_from([k, -k]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_float_route_matches_exact_route(N, data):
    # floats nearest random rationals give the spectrum of those rationals
    # to roundoff
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    exact = js.spectral_data(js.PeriodicJacobi(a, b))
    flt = js.spectral_data(_float_matrix(exact.matrix))
    want = _edges(exact)
    # relative to the spectral radius: a float eigenvalue is accurate to
    # roundoff times the norm of the matrix, not times its own size
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(_edges(flt) - want)) <= 1e-9 * scale
    assert np.max(np.abs(np.subtract(flt.aux_spectrum, exact.aux_spectrum)),
                  initial=0.0) <= 1e-9 * scale
    assert sum(mult for _, mult in flt.branch_points) == 2 * N


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_float_data_take_the_exact_route(N, data):
    # floats nearest random rationals, or free lattices (every gap closed):
    # a float is the rational it stores, so it gives the SpectralData of
    # that Fraction, closed gaps as double roots included
    if data.draw(st.booleans()):
        a = [float(F(data.draw(_nonzero), data.draw(st.integers(1, 9))))
             for _ in range(N)]
        b = [float(F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9))))
             for _ in range(N)]
    else:
        a, b = [float(data.draw(_nonzero))] * N, [float(data.draw(st.integers(-4, 4)))] * N
    got = js.spectral_data(js.PeriodicJacobi(a, b))
    assert got == js.spectral_data(js.PeriodicJacobi([F(x) for x in a],
                                                     [F(x) for x in b]))
    # the symmetric eigenvalue route float data once took is the reference,
    # relative to the spectral radius: a float eigenvalue is accurate to
    # roundoff times the norm of the matrix, not times its own size
    A = js._periodic_matrix(a, b, 1.0)
    want = np.sort(np.concatenate([np.linalg.eigvalsh(A),
                                   np.linalg.eigvalsh(js._periodic_matrix(a, b, -1.0))]))
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(_edges(got) - want)) <= 1e-9 * scale
    assert np.max(np.abs(np.subtract(got.aux_spectrum,
                                     np.linalg.eigvalsh(A[:-1, :-1]))),
                  initial=0.0) <= 1e-9 * scale


def _mp_eigenvalues(rows):
    """Sorted eigenvalues, to 50 digits, of a symmetric matrix of Fractions."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                           for row in rows])
        return sorted(mpmath.eigsy(A, eigvals_only=True))


def _exact_periodic_matrix(a, b, h):
    """A(h) for h = +-1, the periodic (h = 1) or antiperiodic Jacobi matrix."""
    n = len(a)
    A = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        A[j][j] = b[j]
    for j in range(n - 1):
        A[j][j + 1] = A[j + 1][j] = a[j]
    A[0][n - 1] += a[-1] * h
    A[n - 1][0] += a[-1] * h
    return A


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.data())
def test_exact_route_roots_are_correctly_rounded(N, data):
    # the branch points are the eigenvalues of A(1) and A(-1), the auxiliary
    # spectrum those of the leading (N-1) x (N-1) block; at 50 digits each
    # rounds to one double, which the exact route must return.  A root that
    # is exactly 0 comes back as 0.0 while its 50-digit eigenvalue is only
    # tiny, so a zero is checked on the exact polynomial instead.
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    d = js.spectral_data(js.PeriodicJacobi(a, b))
    alpha = math.prod(a)
    edges = sorted(_mp_eigenvalues(_exact_periodic_matrix(a, b, 1)) +
                   _mp_eigenvalues(_exact_periodic_matrix(a, b, -1)))
    block = [row[: N - 1] for row in _exact_periodic_matrix(a, b, 1)[: N - 1]]
    aux = _mp_eigenvalues(block)
    for got, want in zip(_edges(d).tolist(), edges, strict=True):
        assert got == float(want) or (got == 0.0 and d.P[0] ** 2 == 4 * alpha ** 2)
    for got, want in zip(d.aux_spectrum, aux, strict=True):
        assert got == float(want) or (got == 0.0 and d.cofactor[0] == 0)


def _seed_cases(draw, seeds):
    """The eigenvalue seeds as given, shuffled, moved by a few ulps or by a
    lot, or with one made non-finite."""
    seeds = [float(x) for x in seeds]
    how = draw(st.sampled_from(["as-is", "shuffled", "ulps", "far", "non-finite"]))
    if how == "shuffled":
        return draw(st.permutations(seeds))
    if how == "ulps":
        return [x + draw(st.integers(-64, 64)) * math.ulp(x) for x in seeds]
    if how == "far":
        return [x + draw(st.sampled_from([-1.0, 1e-3, 0.5])) for x in seeds]
    if how == "non-finite" and seeds:
        seeds[draw(st.integers(0, len(seeds) - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    return seeds


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_nearest_roots_matches_sturm_route(N, data):
    # the seeded route returns exactly what exact Sturm isolation does, on
    # the two Floquet factors and the cofactor: random data (dyadic b give
    # roots that are doubles), free lattices (closed gaps, double roots)
    # and free lattices opened by 1e-12 (roots within roundoff of each
    # other), each with seeds as given or spoiled
    kind = data.draw(st.sampled_from(["random", "free", "narrow"]))
    if kind == "random":
        a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
        b = [F(data.draw(st.integers(-16, 16)), data.draw(st.sampled_from([1, 3, 4, 8])))
             for _ in range(N)]
    else:
        a = [F(data.draw(_nonzero))] * N
        b = [F(data.draw(st.integers(-4, 4)))] * N
        if kind == "narrow":
            b[data.draw(st.integers(0, N - 1))] += F(1, 10 ** 12)
    m = js.PeriodicJacobi(a, b)
    P, two_alpha = js.floquet_polynomial(m), 2 * m.alpha()
    _, plus, minus, sigma = js._floquet_eigenvalues([float(x) for x in a],
                                                    [float(x) for x in b])
    for p, seeds in (([P[0] - two_alpha] + P[1:], plus),
                     ([P[0] + two_alpha] + P[1:], minus),
                     (js.cofactor_nn_polynomial(m), sigma)):
        want = [(float(r), mult) for r, mult in real_roots(p)]
        assert nearest_roots(p, _seed_cases(data.draw, seeds)) == want


@pytest.mark.parametrize("shift,ok", [(5e-7, True), (2e-6, False)],
                         ids=["inside-tolerance", "outside-tolerance"])
def test_toda_interlacing_can_fail(monkeypatch, shift, ok):
    # move the first sigma below its gap: by 5e-7 it still passes the
    # documented 1e-6 tolerance, by 2e-6 it must not
    real = js._float_spectrum

    def displaced(a, b):
        A, edges, aux = real(a, b)
        aux = aux.copy()
        aux[0] = edges[1] - shift
        return A, edges, aux

    monkeypatch.setattr(js, "_float_spectrum", displaced)
    m = js.PeriodicJacobi([1.0, 0.8, 1.3], [0.2, -0.1, 0.4])
    assert js.toda_flow_jacobi(m, 0.1, 1e-3).interlacing_ok is ok


@pytest.mark.parametrize("a,b", [
    ([F(1), F(3, 2), F(2)], [F(1, 4), F(-1, 3), F(0)]),
    ([F(7, 8), F(-5, 4)], [F(1, 2), F(0)]),
    ([F(1)] * 4, [F(0)] * 4),
    ([F(2, 3), F(5, 3), F(4, 3), F(4, 3), F(5, 3)],
     [F(1, 3), F(2, 3), F(2, 3), F(1, 3), F(2, 3)]),
], ids=["period3", "period2-negative-a", "free-four-site", "period5"])
def test_toda_band_edges_match_exact_edges_of_initial_data(a, b):
    # an oracle independent of the flow: every float band-edge sample
    # against the exact Sturm edges of the rational starting point
    m = js.PeriodicJacobi(a, b)
    want = _edges(js.spectral_data(m))
    diag = js.toda_flow_jacobi(m, 1.0, 1e-3)
    assert diag.band_edges.shape == (len(diag.times), 2 * len(a))
    assert np.max(np.abs(diag.band_edges - want)) < 1e-9
    assert diag.interlacing_ok


def _numpy_scalar_toda_rhs(a, b):
    """The lattice right-hand side on numpy scalars, as the flow computed it
    before it moved to Python floats: the reference for bit identity."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = len(a)
    da = np.array([a[j] * (b[(j + 1) % n] - b[j]) for j in range(n)])
    db = np.array([2 * (a[j] ** 2 - a[j - 1] ** 2) for j in range(n)])
    return list(da), list(db)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def _assert_lattice_flow_matches_reference(m, t_end, dt):
    # the reference rhs steps through the reference list composition (four
    # calls a step): the flow's generated step is compared with that
    # composition over the numpy-scalar lattice
    got = js.toda_flow_jacobi(m, t_end, dt)
    calls = []

    def reference_step(n):
        def rhs(y):
            calls.append(None)
            da, db = _numpy_scalar_toda_rhs(y[:n], y[n:])
            return da + db
        return reference_composed_step(rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(js, "_lattice_step", reference_step)
        want = js.toda_flow_jacobi(m, t_end, dt)
    assert len(calls) == 4 * round(t_end / dt)
    assert got.times == want.times
    for name in ("a_states", "b_states", "band_edges", "aux_states"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


def test_toda_rhs_matches_numpy_scalar_reference():
    # Python float ** 2 rounds as numpy's scalar ** 2; signed zeros included
    rng = np.random.default_rng(11)
    for n in [*range(2, 8), 16, 64]:
        rhs = reference_lattice_rhs(n)
        for _ in range(300):
            a = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
            b = rng.choice([0.0, -0.0, 1.5, -2.25], n).tolist()
            if rng.random() < 0.5:
                b = rng.uniform(-3, 3, n).tolist()
            got = rhs(a + b)
            want = _numpy_scalar_toda_rhs(a, b)
            assert all(type(x) is float for x in got)
            assert _same_bits(got[:n], want[0]) and _same_bits(got[n:], want[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.data())
def test_toda_flow_matches_numpy_scalar_reference_rational(N, data):
    a = [F(data.draw(_nonzero), data.draw(st.integers(1, 9))) for _ in range(N)]
    b = [F(data.draw(st.integers(-16, 16)), data.draw(st.integers(1, 9)))
         for _ in range(N)]
    _assert_lattice_flow_matches_reference(js.PeriodicJacobi(a, b), 0.2, 1e-3)


@pytest.mark.parametrize("seed", range(6))
def test_toda_flow_matches_numpy_scalar_reference_float(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed
    a = (rng.uniform(0.3, 1.7, n) * rng.choice([-1.0, 1.0], n)).tolist()
    b = rng.uniform(-1, 1, n).tolist() if seed % 2 else [0.0] * n
    _assert_lattice_flow_matches_reference(js.PeriodicJacobi(a, b), 0.5, 1e-3)
