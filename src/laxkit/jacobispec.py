"""Spectral theory of periodic Jacobi matrices and the continued-fraction
/ orthogonal-polynomial correspondence.

Conventions.  A period-N matrix stores entries a_1..a_N (off-diagonals)
and b_1..b_N (diagonals), with a_0 identified with a_N by periodicity.
The Floquet pencil A(h) is the N x N symmetric tridiagonal matrix with
corner entries a_N h^{+-1}; its determinant is

    F(h, 1/h, z) = det(A(h) - zI) = (-1)^(N+1) (alpha (h + 1/h) - P(z)),

with alpha the product of the a_j and P monic of degree N: det(zI - T)
of the full tridiagonal block minus a_N^2 times that of its interior
block (sites 2..N-1).  Every such determinant comes from one recurrence,
expanded into coefficients by _monic or run at a point by _monic_at.
The exact recurrences (_monic, moments, pade_series) run on integer
numerators over one common denominator D, the lcm of the entries'
denominators, and build one Fraction per output: the powers and
determinants of the integer matrix D T, read back at z' = D z.
Branch points are the 2N roots of P^2 - 4 alpha^2; the auxiliary
spectrum consists of the N-1 zeros of the (N,N) cofactor, one per gap.
A float entry is the rational it stores, so every matrix takes one exact
route, each root rounded once, and the measure reads closed gaps and
coincident sigma_j off those facts, not off thresholds; only the float
lattice states of toda_flow_jacobi take the eigenvalue route.

The spectral measure of the half-line operator attached to the fraction
a0^2/(z - b1 - a1^2/(z - b2 - ...)) scales as (a0/a_N)^2 times the one
with the natural normalization a0 = a_N; the measure returned here
carries that factor so its transform always matches the fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactalg import Q, nearest_roots
from .laxflow import _lattice_step, rk4, steps_for


class DegenerateSpectrumError(ValueError):
    pass


@dataclass
class PeriodicJacobi:
    a: List
    b: List

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have the same period")
        if len(self.a) < 2:
            raise ValueError("period must be at least 2")
        for name, xs in (("a", self.a), ("b", self.b)):
            for j, x in enumerate(xs, 1):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{name}_{j} is not finite")
        if any(x == 0 for x in self.a):
            raise ValueError("all off-diagonal entries a_j must be nonzero "
                             "(alpha = prod a_j != 0)")

    @property
    def period(self) -> int:
        return len(self.a)

    def numbers(self) -> Tuple[List[Fraction], List[Fraction]]:
        """a and b as Fractions: a float is the rational it stores."""
        return [Q(x) for x in self.a], [Q(x) for x in self.b]

    def alpha(self):
        return math.prod(self.numbers()[0])


# -- characteristic polynomials --------------------------------------------

def _cleared(xs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(D, [D x for x in xs]) with D the lcm of the denominators of xs."""
    D = math.lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def _int_monic(diag: Sequence[int], off: Sequence[int]) -> List[int]:
    """Ascending integer coefficients of det(zI - T) for T symmetric
    tridiagonal with integer diagonal diag and off-diagonal off, by the
    recurrence of _monic."""
    prev, cur = [], [1]
    for k, d in enumerate(diag):
        o2 = off[k - 1] ** 2 if k else 0
        # z y_(k-1) - d y_(k-1) - o2 y_(k-2), each list padded with zeros
        nxt = [s - d * c - o2 * p
               for s, c, p in zip([0] + cur, cur + [0], prev + [0, 0])]
        prev, cur = cur, nxt
    return cur


def _monic(diag: Sequence[Fraction], off: Sequence[Fraction]) -> List[Fraction]:
    """Exact ascending coefficients of det(zI - T), T symmetric tridiagonal
    with diagonal diag and off-diagonal off:
    y_k = (z - d_k) y_(k-1) - o_(k-1)^2 y_(k-2), y_0 = 1, y_(-1) = 0.

    Run on integers over one common denominator D: the scaled matrix D T
    has integer entries and, at z' = D z, the integer monic determinant
    Y_k(z') = D^k y_k(z), so the coefficient of z^m in y_k is one
    Fraction(Y_k[m], D^(k-m))."""
    D, ints = _cleared([*diag, *off])
    k = len(diag)
    Y = _int_monic(ints[:k], ints[k:])
    return [Fraction(c, D ** (k - m)) for m, c in enumerate(Y)]


def _monic_at(diag: Sequence[float], off: Sequence[float], x: float) -> List[float]:
    """y_0..y_k of _monic's recurrence run in floats at x: stable there,
    where Horner's rule on the expanded coefficients is not (Parlett, The
    Symmetric Eigenvalue Problem, ch. 7; Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1).  An o_j^2 that overflows raises."""
    ys = [1.0]
    for k, d in enumerate(diag):
        y = (x - d) * ys[-1]
        if k:
            y -= off[k - 1] ** 2 * ys[-2]
        ys.append(y)
    return ys


def floquet_polynomial(m: PeriodicJacobi) -> List:
    """Monic P(z) with det(A(h)-zI) = (-1)^(N+1)(alpha(h+1/h) - P(z));
    ascending coefficients."""
    N = m.period
    a, b = m.numbers()
    interior = _monic(b[1: N - 1], a[1: N - 2])
    aN2 = a[-1] ** 2
    return [c - aN2 * (interior[i] if i < len(interior) else 0)
            for i, c in enumerate(_monic(b, a[: N - 1]))]


def cofactor_nn_polynomial(m: PeriodicJacobi) -> List:
    """The (N,N) cofactor of A(h)-zI: the degree-(N-1) characteristic
    determinant of the truncated tridiagonal block (h-independent)."""
    N = m.period
    a, b = m.numbers()
    return [(-1) ** (N - 1) * c for c in _monic(b[: N - 1], a[: N - 2])]


# -- spectral data -----------------------------------------------------------

@dataclass
class SpectralData:
    matrix: PeriodicJacobi
    P: List                                  # ascending, monic degree N
    alpha: float
    branch_points: List[Tuple[float, int]]   # sorted, with multiplicity
    stable_bands: List[Tuple[float, float]]
    gaps: List[Tuple[float, float]]
    aux_spectrum: List[float]
    cofactor: List

    @property
    def genus(self) -> int:
        return self.matrix.period - 1

    def interlacing_ok(self) -> bool:
        """Correctly rounded roots interlace exactly: rounding is monotone."""
        return _interlaces(self.aux_spectrum, self.gaps, 0.0)


def _interlaces(aux: Sequence[float], gaps: Sequence[Tuple[float, float]],
                tol: float) -> bool:
    """Interlacing check: the j-th auxiliary eigenvalue lies in the j-th
    gap (closed gaps collapse to points)."""
    return len(aux) == len(gaps) and all(
        lo - tol <= s <= hi + tol for s, (lo, hi) in zip(aux, gaps))


def spectral_data(m: PeriodicJacobi) -> SpectralData:
    """Bands, gaps and auxiliary spectrum of a periodic Jacobi matrix.

    Each root is the double nearest the exact algebraic number, with its
    multiplicity, for float entries too.  The branch points, the roots
    of P^2 - 4 alpha^2, are found as the roots of its two factors P - 2
    alpha and P + 2 alpha, which share none since alpha != 0; the
    auxiliary spectrum is the roots of the cofactor.  The float
    eigenvalues of A(1), A(-1) and A(1)'s leading block (_seeds) seed
    them: exactalg.nearest_roots certifies each seed by exact sign
    changes and rounds it, and a polynomial its seeds do not certify (a
    closed gap's double root, a cluster within roundoff) takes exact Sturm
    isolation instead.  An entry that does not fit a double raises
    OverflowError naming it.  A closed gap is a double root, listed once
    with multiplicity 2.  Interlacing is checked with no tolerance, and a
    violation raises (it would mean the root ordering itself is broken)."""
    N = m.period
    P = floquet_polynomial(m)
    alpha = m.alpha()
    cof = cofactor_nn_polynomial(m)
    plus, minus, sigma = _seeds(m)
    two_alpha = 2 * alpha
    try:
        branch = sorted(nearest_roots([P[0] - two_alpha] + P[1:], plus) +
                        nearest_roots([P[0] + two_alpha] + P[1:], minus))
    except OverflowError:
        raise OverflowError("a branch point overflows a double") from None
    # each sigma_j lies in a gap, so it fits a double when the edges do
    aux = [x for x, _ in nearest_roots(cof, sigma)]
    flat = [r for r, mult in branch for _ in range(mult)]
    if len(flat) != 2 * N:
        raise DegenerateSpectrumError(
            f"expected {2*N} real branch points, found {len(flat)}")
    if len(aux) != N - 1:
        raise DegenerateSpectrumError(
            f"expected {N-1} auxiliary eigenvalues, found {len(aux)}")
    bands = [(flat[2 * j], flat[2 * j + 1]) for j in range(N)]
    gaps = [(flat[2 * j + 1], flat[2 * j + 2]) for j in range(N - 1)]
    try:
        alpha = float(alpha)
    except OverflowError:
        raise OverflowError("alpha = a_1 a_2 ... a_N overflows a double") from None
    data = SpectralData(matrix=m, P=P, alpha=alpha,
                        branch_points=branch, stable_bands=bands, gaps=gaps,
                        aux_spectrum=aux, cofactor=cof)
    if not data.interlacing_ok():
        raise DegenerateSpectrumError(
            "auxiliary spectrum fails to interlace the gaps; "
            "root ordering is inconsistent")
    return data


def _float_spectrum(a, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(1), sorted band edges, sigma_j) per row of float data of shape (..., N)."""
    A, plus, minus, sigma = _floquet_eigenvalues(a, b)
    return A, np.sort(np.concatenate([plus, minus], axis=-1), axis=-1), sigma


def _floquet_eigenvalues(a, b):
    """(A(1), eigenvalues of A(1), of A(-1) and of A(1)'s leading block),
    one matrix per row of data a, b of shape (..., N).

    By Floquet theory the 2N roots of P^2 - 4 alpha^2 are the eigenvalues
    of the periodic matrix A(1) (P = 2 alpha) and of the antiperiodic one
    A(-1) (P = -2 alpha), and the auxiliary spectrum is the spectrum of
    the leading (N-1) x (N-1) block, which holds no corner entry.  Each is
    a symmetric eigenproblem, backward stable at a closed gap's double
    edge as anywhere else (van Moerbeke, Invent. Math. 37, 1976)."""
    A = _periodic_matrix(a, b, 1.0)
    return (A, np.linalg.eigvalsh(A),
            np.linalg.eigvalsh(_periodic_matrix(a, b, -1.0)),
            np.linalg.eigvalsh(A[..., :-1, :-1]))


def _seeds(m: PeriodicJacobi):
    """The float eigenvalues of A(1), A(-1) and A(1)'s leading block:
    seeds of the roots of P - 2 alpha, P + 2 alpha and the
    cofactor; empty lists when a corner sum of A(+-1) overflows.  An
    entry that does not fit a double raises OverflowError naming it: the
    spectrum reaches as far as the entry, so a branch point would not fit
    either."""
    entries = []
    for name, xs in (("a", m.a), ("b", m.b)):
        for j, x in enumerate(xs, 1):
            try:
                entries.append(float(x))
            except OverflowError:
                raise OverflowError(f"{name}_{j} overflows a double") from None
    try:
        with np.errstate(over="raise"):
            return _floquet_eigenvalues(entries[:m.period], entries[m.period:])[1:]
    except FloatingPointError:
        return [], [], []


# -- continued fraction / Padé ----------------------------------------------

# the deepest continued fraction gamma_fraction evaluates: its time grows
# linearly with the depth (the 20-point Stieltjes check of a period-7 matrix
# takes about 1.4 s at depth 10**5 on a 2-vCPU x86-64 host, where the
# default 200 levels already converge), so a deeper one is refused at once
MAX_DEPTH = 10 ** 5
SAFETY = 1e-280     # gamma_fraction's floor on a partial denominator's size


def gamma_fraction(a: Sequence, b: Sequence, a0, z, depth: int):
    """Bottom-up evaluation of the depth-truncated fraction
    a0^2/(z - b_1 - a_1^2/(z - b_2 - ... - a_{depth-1}^2/(z - b_depth))).

    For period-N input (len(a) == len(b) == N) the sequences are extended
    periodically: level j reads entry (j - 1) mod N, so no depth-long list
    is built.  Raises ValueError unless 1 <= depth <= MAX_DEPTH, and
    ZeroDivisionError naming the level if a partial denominator collapses
    below SAFETY."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} is above the cap "
                         f"jacobispec.MAX_DEPTH = {MAX_DEPTH}")
    n = len(a)
    # each period entry floated once, and squared once if a level reads it
    bb = [float(x) for x in b[:depth]]
    aa2 = [float(x) ** 2 for x in a[:depth - 1]]
    w = 0.0
    for lev in range(depth, 0, -1):
        den = z - bb[(lev - 1) % n] - w
        if abs(den) < SAFETY:
            raise ZeroDivisionError(
                f"continued fraction denominator vanished at level {lev}")
        if lev == 1:
            return (float(a0) ** 2) / den
        w = aa2[(lev - 2) % n] / den
    raise AssertionError("unreachable")


def pade(a: Sequence, b: Sequence, a0, k: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Numerator/denominator (A_k, B_k) of the k-th convergent, ascending
    exact coefficients: deg A_k = k-1, deg B_k = k, B_k monic.

    B_k = det(zI - J_k), J_k the leading k x k block, and A_k is a0^2 times
    the same determinant of J_k without its first row and column."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(a)
    aa = [Q(a[i % n]) for i in range(k)]          # aa[0] = a_1
    bb = [Q(b[i % n]) for i in range(k)]          # bb[0] = b_1
    a02 = Q(a0) ** 2
    return ([a02 * c for c in _monic(bb[1:], aa[1: k - 1])],
            _monic(bb, aa[: k - 1]))


def _scaled_period(a: Sequence, b: Sequence, size: int
                   ) -> Tuple[int, List[int], List[int]]:
    """(D, D a_i, D b_i for i < size) over the periodic extension of a
    and b (entry i reads a[i mod N], N = len(a)), with D the lcm of the
    denominators of those entries."""
    n = len(a)
    D, ints = _cleared([Q(xs[i % n]) for xs in (a, b) for i in range(size)])
    return D, ints[:size], ints[size:]


def moments(a: Sequence, b: Sequence, a0, count: int) -> List[Fraction]:
    """c_j = a0^2 <T^j e0, e0> for the half-line operator with the
    periodically extended entries; exact.  The powers are taken of the
    integer matrix D T (D the lcm of the entries' denominators), so
    c_j = a0^2 <(D T)^j e0, e0> / D^j is one Fraction per moment."""
    if count < 1:
        raise ValueError("count must be >= 1")
    size = count + 2
    D, aa, bb = _scaled_period(a, b, size)
    a02 = Q(a0) ** 2
    num, den = a02.numerator, a02.denominator
    v = [1] + [0] * (size - 1)
    out = [a02]
    for j in range(1, count):
        # (D T v)_i = a_(i-1) v_(i-1) + b_i v_i + a_i v_(i+1), truncated
        w = [bb[i] * x for i, x in enumerate(v)]
        for i in range(size - 1):
            w[i + 1] += aa[i] * v[i]
            w[i] += aa[i] * v[i + 1]
        v = w
        out.append(Fraction(num * v[0], den * D ** j))
    return out


def pade_series(a: Sequence, b: Sequence, a0, k: int, terms: int) -> List[Fraction]:
    """Expansion of A_k/B_k at z = infinity: coefficients d_j of
    sum d_j / z^(j+1), exact.

    With D the lcm of the entries' denominators and z' = D z, A_k/B_k =
    a0^2 D Y_A(z') / Y_B(z') for the integer determinants of pade's two
    blocks of D T, and Y_B is monic, so the expansion of Y_A / Y_B in
    1/z' has integer coefficients f_j and d_j = a0^2 f_j / D^j."""
    if k < 1:
        raise ValueError("k must be >= 1")
    D, aa, bb = _scaled_period(a, b, k)
    Arev = _int_monic(bb[1:], aa[1: k - 1])[::-1]      # degree k - 1
    Brev = _int_monic(bb, aa[: k - 1])[::-1]            # degree k, Brev[0] = 1
    rem = Arev + [0] * terms
    f = []
    for j in range(terms):
        d = rem[j]
        f.append(d)
        for i in range(1, min(len(Brev), len(rem) - j)):
            rem[j + i] -= d * Brev[i]
    a02 = Q(a0) ** 2
    return [Fraction(a02.numerator * d, a02.denominator * D ** j)
            for j, d in enumerate(f)]


# -- Stieltjes measure --------------------------------------------------------

# the quadrature puts QUAD_NODES nodes on each band and skips a band
# narrower than NARROW_BAND
QUAD_NODES = 160
NARROW_BAND = 1e-13


@cache
def _sine_gauss_legendre(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """sin((pi/2) t_q) and the weights w_q of the count-node Gauss-Legendre
    rule, read-only.  Every band of every measure uses the same ones, and
    leggauss solves a count x count eigenproblem (about 4 ms at 160 nodes),
    so they are computed once per process."""
    tq, wq = np.polynomial.legendre.leggauss(count)
    sin_t = np.sin((np.pi / 2) * tq)
    for arr in (sin_t, wq):
        arr.flags.writeable = False
    return sin_t, wq


@dataclass
class StieltjesMeasure:
    atoms: List[Tuple[float, float]]
    bands: List[Tuple[float, float]]
    band_density: Callable[[np.ndarray], np.ndarray]   # elementwise, on nodes

    def density(self, x: float) -> float:
        """The density at one point: band_density on a one-node array."""
        return float(self.band_density(np.array([x], dtype=float))[0])

    @cached_property
    def quadrature(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per band (nodes xs, weights, density at xs) of Gauss-Legendre
        with the sine substitution x = mid + rad sin(theta), which absorbs
        the square-root edges.  Built once; the weights are w_q * jacobian,
        the jacobian rad cos(theta) taken as sqrt((x - lo)(hi - x)) at the
        rounded node x, so that it matches the density's own edge factors
        where a node lies a few ulps from an edge.  The density is taken
        once per band, on the whole node array."""
        sin_t, wq = _sine_gauss_legendre(QUAD_NODES)
        table = []
        for lo, hi in self.bands:
            if hi - lo < NARROW_BAND:
                continue
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            xs = mid + rad * sin_t
            jac = (np.pi / 2) * np.sqrt(xs - lo) * np.sqrt(hi - xs)
            table.append((xs, wq * jac, self.band_density(xs)))
        return table

    def integrate(self, f: Callable[[float], float]) -> float:
        """Atom sum plus the per-band quadrature of density * f, with f
        and the products taken on Python floats."""
        total = sum(mass * f(x) for x, mass in self.atoms)
        for xs, w, dens in self.quadrature:
            vals = [d * f(x) for d, x in zip(dens.tolist(), xs.tolist())]
            total += float(np.sum(w * np.array(vals)))
        return total

    def total_mass(self) -> float:
        """integrate(lambda x: 1.0) to the bit (d * 1.0 is d), with no callback."""
        total = sum(mass for _, mass in self.atoms)
        for _, w, dens in self.quadrature:
            total += float(np.sum(w * dens))
        return total

    def cauchy_transform(self, z):
        """The transform at one complex z, or a list of it at each z of a
        sequence: one (points x nodes) array pass per band, each row with
        the bits of a one-point call, and per point the atom sum, on Python
        complex numbers, whose division rounds unlike numpy's."""
        one = np.ndim(z) == 0
        zs = [complex(p) for p in ([z] if one else z)]
        totals = np.array([sum((m / (p - x) for x, m in self.atoms), 0j) for p in zs])
        grid = np.array(zs)[:, None]
        for xs, w, dens in self.quadrature:
            totals += np.sum(w * (dens / (grid - xs)), axis=1)
        return complex(totals[0]) if one else totals.tolist()


def measure_decompose(m: PeriodicJacobi, a0,
                      data: Optional[SpectralData] = None) -> StieltjesMeasure:
    """Atoms-plus-density decomposition of the spectral measure.

    Atoms sit at the auxiliary eigenvalues sigma_j, which a Jacobi block
    has simple: two that round to one double raise FloatingPointError
    naming them.  There the monodromy matrix is triangular, so the roots
    of alpha h^2 - P(sigma_j) h + alpha are c_j and 1/c_j, c_j = -aN^2
    Lambda(sigma_j) / alpha with Lambda(z) = det(zI - T') for T' the
    interior block of sites 2..N-1 (empty = 1 for N = 2): the Dirichlet
    identity (G. Teschl, Jacobi Operators and
    Completely Integrable Nonlinear Lattices, AMS 2000, ch. 7-8).  The
    residue is taken on the |h| < 1 sheet, so mass_j = 0 if |c_j| <= 1 or
    if sigma_j equals a double branch point (a closed gap: both are one
    algebraic number rounded once), and otherwise

        mass_j = s * (alpha / c_j + aN^2 Lambda(sigma_j))
                 / prod_{l != j} (sigma_j - sigma_l),

    with s = (a0/a_N)^2 the half-line rescaling: real arithmetic, no square
    root.  a0 must be nonzero (ValueError), and s must be a positive
    finite double (OverflowError naming it, when it overflows or
    underflows to 0).  A mass up to 0 carries no atom; one below -1e-8
    raises FloatingPointError.  The continuous part is s/(2 pi) *
    sqrt(4 alpha^2 - P^2) / |cofactor| on each stable band, a product over
    the branch points and the sigma_j (_band_density, one array kernel
    that the quadrature runs once per band on its nodes), and each band
    is integrated as it is: the sine substitution makes a closed-gap edge
    as smooth as an open one.  The quadrature skips bands narrower than
    NARROW_BAND; where one occurs the atoms and the other bands must carry
    a0^2 to 1e-8 relative, or OverflowError names the missing mass."""
    if data is None:
        data = spectral_data(m)
    N = m.period
    aux = data.aux_spectrum
    for j, (s, t) in enumerate(zip(aux, aux[1:]), 1):
        if s == t:
            raise FloatingPointError(
                f"sigma_{j} and sigma_{j + 1} round to one double {s}")
    if a0 == 0:
        raise ValueError("a0 must be nonzero: a0 = 0 gives the zero measure")
    aN = float(m.a[-1])
    try:
        scale = (float(a0) / aN) ** 2
        if not math.isfinite(scale):    # the division returns inf, no raise
            raise OverflowError
    except OverflowError:
        raise OverflowError("(a0/a_N)^2 overflows a double") from None
    if scale == 0.0:                    # a0 != 0: the square underflowed
        raise OverflowError("(a0/a_N)^2 underflows a double")
    alpha = data.alpha
    diag = [float(x) for x in m.b[1: N - 1]]
    off = [float(x) for x in m.a[1: N - 2]]
    try:
        lams = [_monic_at(diag, off, s)[-1] for s in aux]
    except OverflowError:
        raise OverflowError("an a_j^2 (2 <= j <= N-2) in the interior "
                            "determinant Lambda overflows a double") from None
    try:
        aN2 = aN ** 2
    except OverflowError:
        raise OverflowError("a_N^2 overflows a double") from None
    closed = {x for x, mult in data.branch_points if mult > 1}
    atoms: List[Tuple[float, float]] = []
    for j, (s, lam) in enumerate(zip(aux, lams)):
        c = -aN2 * lam / alpha
        if s in closed or abs(c) <= 1:
            continue
        den = math.prod(s - s2 for l, s2 in enumerate(aux) if l != j)
        mass = scale * (alpha / c + aN2 * lam) / den
        if not math.isfinite(mass):
            raise OverflowError(f"atom mass at sigma={s} is not finite: {mass}")
        if mass < -1e-8:
            raise FloatingPointError(f"negative atom mass {mass} at sigma={s}")
        if mass > 0:
            atoms.append((s, mass))

    edges = [x for x, mult in data.branch_points for _ in range(mult)]
    measure = StieltjesMeasure(atoms=atoms, bands=data.stable_bands,
                               band_density=_band_density(scale, edges, aux))
    if any(hi - lo < NARROW_BAND for lo, hi in measure.bands):
        want = float(a0) ** 2
        held = measure.total_mass()
        if not abs(held - want) <= 1e-8 * want:   # NaN fails too
            raise OverflowError(
                f"a band is too narrow for a double to integrate, and the "
                f"atoms and the other bands carry {held:.6g} of the total "
                f"mass a0^2 = {want:.6g}: {want - held:.6g} is missing")
    return measure


def _band_density(scale: float, edges: Sequence[float], aux: Sequence[float]
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel xs -> the continuous part's density at each x of xs,
    s/(2 pi) sqrt(4 alpha^2 - P^2) / |cofactor| as a product over the 2N
    sorted branch points `edges` (with multiplicity) and the sigma_j `aux`,
    0 in a gap or outside the spectrum.

    P is monic and the cofactor monic up to sign, so 4 alpha^2 - P^2 =
    -prod_k (x - E_k) and |cofactor| = prod_j |x - sigma_j|: each factor
    of the density is exact near its own root, where Horner's P^2
    cancels.  The j-th gap's two edges pair with sigma_j, which keeps
    every factor near 1 in size and makes a closed gap's pair identically
    1.  At x = sigma_j the pair's factor is skipped on a closed gap, and on
    an open edge the density is 0 (its 1/sqrt blow-up).  Each entry is
    the product taken by correctly rounded operations in a fixed order, so
    it has the bits of the same product taken in Python floats; an x
    outside the bands may compute NaN or inf, silently, before it is set
    to 0."""
    bounds = np.array(edges, dtype=float)
    first, last = edges[0], edges[-1]
    lead = scale / (2 * math.pi)
    pairs = list(zip(edges[1:-1:2], edges[2:-1:2], aux))

    def density(xs: np.ndarray) -> np.ndarray:
        # an odd count of edges <= x: inside a band, short of its top edge
        dead = np.searchsorted(bounds, xs, side="right") % 2 == 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = lead * np.sqrt(xs - first) * np.sqrt(last - xs)
            for lo, hi, s in pairs:
                on = xs == s
                if lo != hi:
                    dead |= on
                factor = (np.sqrt(np.abs(xs - lo)) * np.sqrt(np.abs(hi - xs))
                          / np.abs(xs - s))
                np.multiply(rho, factor, out=rho, where=~on)
        rho[dead] = 0.0
        return rho
    return density


# the Stieltjes check's grid: its size, and its nearest point's distance
STIELTJES_POINTS, STIELTJES_DIST = 20, 1.0


def _stieltjes_grid(data: SpectralData) -> List[complex]:
    """STIELTJES_POINTS points off the spectrum, in rounds of four farther
    out each: left of the lowest branch point, right of the highest, above
    and below their midpoint."""
    lo, hi = data.branch_points[0][0], data.branch_points[-1][0]
    mid, d = (lo + hi) / 2, STIELTJES_DIST
    return [z for k in range(1, STIELTJES_POINTS // 4 + 2)
            for z in (complex(lo - d - 0.37 * k, 0), complex(hi + d + 0.41 * k, 0),
                      complex(mid + 0.23 * k, d + 0.3 * k),
                      complex(mid - 0.31 * k, -(d + 0.2 * k)))][:STIELTJES_POINTS]


def stieltjes_error(data: SpectralData, measure: StieltjesMeasure, a0, depth: int) -> float:
    """max |measure.cauchy_transform(z) - gamma_fraction(a, b, a0, z, depth)|
    over _stieltjes_grid(data) (one cauchy_transform call), for data's
    matrix (a, b); a fraction whose denominator vanishes is a
    FloatingPointError naming its z and level."""
    m = data.matrix
    grid = _stieltjes_grid(data)
    worst = 0.0
    for z, transform in zip(grid, measure.cauchy_transform(grid)):
        try:
            frac = gamma_fraction(m.a, m.b, a0, z, depth)
        except ZeroDivisionError as exc:
            raise FloatingPointError(f"Stieltjes check at z = {z}: {exc}") from exc
        worst = max(worst, abs(transform - frac))
    return worst


def orthogonality_check(m: PeriodicJacobi, a0, k_max: int,
                        measure: Optional[StieltjesMeasure] = None) -> Dict[str, float]:
    """Gram matrix of the denominator polynomials against the measure.

    Returns the worst off-diagonal entry and the worst relative diagonal
    error against the exact norms a0^2 prod_{i<=k} a_i^2.  The recurrence
    runs once per atom and node; each entry reuses its B_0(x)..B_k_max(x)."""
    if measure is None:
        measure = measure_decompose(m, a0)
    n = m.period
    bb = [float(m.b[i % n]) for i in range(k_max)]
    aa = [float(m.a[i % n]) for i in range(k_max - 1)]
    # keyed by value: at x = -0.0 and 0.0 the B_i differ at most in the
    # signs of zeros, which no integral keeps (each sum starts from +0)
    basis = cache(lambda x: _monic_at(bb, aa, x))
    worst_off = 0.0
    worst_diag = 0.0
    for i in range(k_max + 1):
        for j in range(i, k_max + 1):
            def f(x):
                ys = basis(x)
                return ys[i] * ys[j]
            val = measure.integrate(f)
            if i != j:
                worst_off = max(worst_off, abs(val))
            else:
                norm = float(Q(a0) ** 2)
                for t in range(1, i + 1):
                    norm *= float(Q(m.a[(t - 1) % n])) ** 2
                worst_diag = max(worst_diag, abs(val - norm) / max(1.0, norm))
    return {"worst_offdiag": worst_off, "worst_diag_rel": worst_diag}


# -- Toda flow on Jacobi data --------------------------------------------------

@dataclass
class TodaDiagnostics:
    times: List[float]
    a_states: np.ndarray
    b_states: np.ndarray
    band_edges: np.ndarray          # per sample time, the 2N sorted edges
    aux_states: np.ndarray          # per sample time, the N-1 sigma_j
    band_edge_drift: float
    trace_sum_drift: float
    power_trace_drift: float
    interlacing_ok: bool
    min_abs_a: float


def toda_flow_jacobi(m: PeriodicJacobi, t_end: float, dt: float,
                     samples: int = 10) -> TodaDiagnostics:
    """Integrate the periodic lattice in Flaschka form and watch the
    spectral data: band edges frozen, auxiliary spectrum interlacing at
    every sample, sum b_j exactly conserved, a_j never vanishing.  All
    samples' A(1) form one stack: _float_spectrum makes three eigvalsh
    calls a flow, and the power traces tr A^k take N matrix_power calls,
    each with the bits of one call per sample.  The state is rk4's list
    of 2N Python floats (a_1..a_N, b_1..b_N), which rk4 advances by the
    generated step _lattice_step(N) makes, one call a step, with no numpy
    conversion.  Raises BlowUpError when the state stops being finite or
    a_j ** 2 overflows, and ValueError unless dt divides t_end
    (laxflow.steps_for)."""
    n = m.period
    stride = max(1, steps_for(t_end, dt) // samples)
    y0 = [float(x) for x in list(m.a) + list(m.b)]
    times, states = rk4(_lattice_step(n), y0, t_end, dt, stride, np.inf)
    a_states, b_states = np.hsplit(np.array(states), [n])
    A, edges, aux = _float_spectrum(a_states, b_states)
    inter_ok = all(_interlaces(s, list(zip(e[1:-1:2], e[2:-1:2])), 1e-6)
                   for e, s in zip(edges, aux))
    traces = np.array([np.linalg.matrix_power(A, k).trace(0, 1, 2) for k in range(1, n + 1)])
    sums = np.sum(b_states, axis=-1)
    return TodaDiagnostics(times=times, a_states=a_states, b_states=b_states,
                           band_edges=edges, aux_states=aux,
                           band_edge_drift=float(np.max(np.abs(edges - edges[0]))),
                           trace_sum_drift=float(np.max(np.abs(sums - sums[0]))),
                           power_trace_drift=float(np.max(np.abs(traces - traces[:, :1]))),
                           interlacing_ok=inter_ok,
                           min_abs_a=float(np.min(np.abs(a_states))))


def _periodic_matrix(a, b, h: float) -> np.ndarray:
    """A(h), one N x N matrix per row of period-N data a, b of shape (..., N)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    j = np.arange(a.shape[-1])
    A = np.zeros(a.shape + a.shape[-1:])
    A[..., j, j] = b
    A[..., j[:-1], j[1:]] = A[..., j[1:], j[:-1]] = a[..., :-1]
    A[..., 0, -1] += a[..., -1] / h
    A[..., -1, 0] += a[..., -1] * h
    return A
