"""Spectral theory of periodic Jacobi matrices and the continued-fraction
/ orthogonal-polynomial correspondence.

Conventions.  A period-N matrix stores entries a_1..a_N (off-diagonals)
and b_1..b_N (diagonals), with a_0 identified with a_N by periodicity.
The Floquet pencil A(h) is the N x N symmetric tridiagonal matrix with
corner entries a_N h^{+-1}; its determinant is

    F(h, 1/h, z) = det(A(h) - zI) = (-1)^(N+1) (alpha (h + 1/h) - P(z)),

with alpha the product of the a_j and P monic of degree N, computed here
by the two-determinant formula (full tridiagonal determinant minus a_N^2
times the interior one, normalized by (-1)^N).  Branch points are the 2N
roots of P^2 - 4 alpha^2; the auxiliary spectrum consists of the N-1
zeros of the (N,N) cofactor, one per gap.

The spectral measure of the half-line operator attached to the fraction
a0^2/(z - b1 - a1^2/(z - b2 - ...)) scales as (a0/a_N)^2 times the one
with the natural normalization a0 = a_N; the measure returned here
carries that factor so its transform always matches the fraction.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactalg import Q, nearest_roots
from .laxflow import rk4, steps_for, toda_scalar_rhs


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
        if any(x == 0 for x in self.a):
            raise ValueError("all off-diagonal entries a_j must be nonzero "
                             "(alpha = prod a_j != 0)")

    @property
    def period(self) -> int:
        return len(self.a)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in list(self.a) + list(self.b))

    def alpha(self):
        out = Q(1) if self.is_exact else 1.0
        for x in self.a:
            out = out * (Q(x) if self.is_exact else float(x))
        return out

    def sequences(self, length: int) -> Tuple[List, List]:
        """Periodic extensions a_1..a_length, b_1..b_length."""
        n = self.period
        return ([self.a[i % n] for i in range(length)],
                [self.b[i % n] for i in range(length)])


# -- characteristic polynomials --------------------------------------------

def _tridiag_charpoly(diag: Sequence, off: Sequence, exact: bool) -> List:
    """Ascending coefficients of det(tridiag(diag, off) - z I)."""
    zero = Q(0) if exact else 0.0
    one = Q(1) if exact else 1.0
    Dprev: List = [one]            # empty determinant
    D: List = [Q(diag[0]) if exact else float(diag[0]), -one] if diag else [one]
    for k in range(1, len(diag)):
        bk = Q(diag[k]) if exact else float(diag[k])
        ak2 = (Q(off[k - 1]) if exact else float(off[k - 1])) ** 2
        # D_k = (b_k - z) D_{k-1} - a_{k-1}^2 D_{k-2}
        nxt = [zero] * (len(D) + 1)
        for i, c in enumerate(D):
            nxt[i] += bk * c
            nxt[i + 1] -= c
        for i, c in enumerate(Dprev):
            nxt[i] -= ak2 * c
        Dprev, D = D, nxt
    return D if diag else [one]


def floquet_polynomial(m: PeriodicJacobi) -> List:
    """Monic P(z) with det(A(h)-zI) = (-1)^(N+1)(alpha(h+1/h) - P(z));
    ascending coefficients."""
    N = m.period
    exact = m.is_exact
    full = _tridiag_charpoly(m.b, m.a[: N - 1], exact)
    interior = _tridiag_charpoly(m.b[1: N - 1], m.a[1: N - 2], exact)
    aN2 = (Q(m.a[-1]) if exact else float(m.a[-1])) ** 2
    n = max(len(full), len(interior))
    P = [(full[i] if i < len(full) else (Q(0) if exact else 0.0)) -
         aN2 * (interior[i] if i < len(interior) else (Q(0) if exact else 0.0))
         for i in range(n)]
    sign = (-1) ** N
    return [sign * c for c in P]


def cofactor_nn_polynomial(m: PeriodicJacobi) -> List:
    """The (N,N) cofactor of A(h)-zI: the degree-(N-1) characteristic
    determinant of the truncated tridiagonal block (h-independent)."""
    N = m.period
    return _tridiag_charpoly(m.b[: N - 1], m.a[: N - 2], m.is_exact)


def _poly_eval(coeffs: Sequence, x: float) -> float:
    v = 0.0
    for c in reversed(coeffs):
        v = v * x + float(c)
    return v


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

    def interlacing_ok(self, tol: float = 1e-9) -> bool:
        return _interlaces(self.aux_spectrum, self.gaps, tol)


def _interlaces(aux: Sequence[float], gaps: Sequence[Tuple[float, float]],
                tol: float) -> bool:
    """Interlacing check: the j-th auxiliary eigenvalue lies in the j-th
    gap (closed gaps collapse to points)."""
    return len(aux) == len(gaps) and all(
        lo - tol <= s <= hi + tol for s, (lo, hi) in zip(aux, gaps))


def spectral_data(m: PeriodicJacobi) -> SpectralData:
    """Bands, gaps and auxiliary spectrum of a periodic Jacobi matrix.

    Rational data takes exact roots, each the double nearest the exact
    algebraic number, with multiplicities.  The branch points, the roots
    of P^2 - 4 alpha^2, are found as the roots of its two factors P - 2
    alpha and P + 2 alpha, which share none since alpha != 0; the
    auxiliary spectrum is the roots of the cofactor.  The float
    eigenvalues of A(1), A(-1) and A(1)'s leading block (_seeds) seed
    them: exactalg.nearest_roots certifies each seed by exact sign
    changes and rounds it, and a polynomial its seeds do not certify (a
    closed gap's double root, a cluster within roundoff) takes exact Sturm
    isolation instead.  An entry that does not fit a double raises
    OverflowError naming it.  Float data takes the symmetric eigenvalue
    route of _float_spectrum, each branch point listed once.  An
    interlacing violation raises (it would mean the root ordering itself
    is broken)."""
    N = m.period
    P = floquet_polynomial(m)
    alpha = m.alpha()
    cof = cofactor_nn_polynomial(m)
    if m.is_exact:
        plus, minus, sigma = _seeds(m)
        two_alpha = 2 * alpha
        try:
            branch = sorted(nearest_roots([P[0] - two_alpha] + P[1:], plus) +
                            nearest_roots([P[0] + two_alpha] + P[1:], minus))
        except OverflowError:
            raise OverflowError("a branch point overflows a double") from None
        # each sigma_j lies in a gap, so it fits a double when the edges do
        aux = [x for x, _ in nearest_roots(cof, sigma)]
    else:
        _, edges, sigma = _float_spectrum(m.a, m.b)
        branch = [(x, 1) for x in edges.tolist()]
        aux = sigma.tolist()
    flat: List[float] = []
    for r, mult in branch:
        flat.extend([r] * mult)
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
    if not data.interlacing_ok(tol=1e-7):
        raise DegenerateSpectrumError(
            "auxiliary spectrum fails to interlace the gaps; "
            "root ordering is inconsistent")
    return data


def _float_spectrum(a, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(1), band edges, auxiliary spectrum) of float period-N data."""
    A, plus, minus, sigma = _floquet_eigenvalues(a, b)
    return A, np.sort(np.concatenate([plus, minus])), sigma


def _floquet_eigenvalues(a, b):
    """(A(1), eigenvalues of A(1), of A(-1) and of A(1)'s leading block).

    By Floquet theory the 2N roots of P^2 - 4 alpha^2 are the eigenvalues
    of the periodic matrix A(1) (P = 2 alpha) and of the antiperiodic one
    A(-1) (P = -2 alpha), and the auxiliary spectrum is the spectrum of
    the leading (N-1) x (N-1) block, which holds no corner entry.  Each is
    a symmetric eigenproblem, backward stable at a closed gap's double
    edge as anywhere else (van Moerbeke, Invent. Math. 37, 1976)."""
    A = _periodic_matrix(a, b, 1.0)
    return (A, np.linalg.eigvalsh(A),
            np.linalg.eigvalsh(_periodic_matrix(a, b, -1.0)),
            np.linalg.eigvalsh(A[:-1, :-1]))


def _seeds(m: PeriodicJacobi):
    """The float eigenvalues of A(1), A(-1) and A(1)'s leading block for
    exact data: seeds of the roots of P - 2 alpha, P + 2 alpha and the
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


def gamma_fraction(a: Sequence, b: Sequence, a0, z, depth: int,
                   safety: float = 1e-280):
    """Bottom-up evaluation of the depth-truncated fraction
    a0^2/(z - b_1 - a_1^2/(z - b_2 - ... - a_{depth-1}^2/(z - b_depth))).

    For period-N input (len(a) == len(b) == N) the sequences are extended
    periodically: level j reads entry (j - 1) mod N, so no depth-long list
    is built.  Raises ValueError unless 1 <= depth <= MAX_DEPTH, and
    ZeroDivisionError naming the level if a partial denominator collapses
    below the safety threshold."""
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
        if abs(den) < safety:
            raise ZeroDivisionError(
                f"continued fraction denominator vanished at level {lev}")
        if lev == 1:
            return (float(a0) ** 2) / den
        w = aa2[(lev - 2) % n] / den
    raise AssertionError("unreachable")


def pade(a: Sequence, b: Sequence, a0, k: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Numerator/denominator (A_k, B_k) of the k-th convergent, ascending
    exact coefficients: deg A_k = k-1, deg B_k = k, B_k monic.

    Both satisfy y_j = (z - b_j) y_{j-1} - a_{j-1}^2 y_{j-2} with seeds
    B_0 = 1, B_{-1} = 0 and A_1 = a0^2, A_0 = 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(a)
    aa = [Q(a[i % n]) for i in range(k)]          # aa[0] = a_1
    bb = [Q(b[i % n]) for i in range(k)]          # bb[0] = b_1
    Bprev2, Bprev = [Fraction(0)], [Fraction(1)]  # B_{-1}, B_0
    Aprev2, Aprev = [Fraction(0)], [Fraction(0)]  # placeholder, A_0
    Acur, Bcur = Aprev, Bprev
    for j in range(1, k + 1):
        c = aa[j - 2] ** 2 if j >= 2 else Fraction(0)
        Bcur = _poly_linear_combo(bb[j - 1], Bprev, c, Bprev2)
        if j == 1:
            Acur = [Q(a0) ** 2]
        else:
            Acur = _poly_linear_combo(bb[j - 1], Aprev, c, Aprev2)
        Bprev2, Bprev = Bprev, Bcur
        Aprev2, Aprev = Aprev, Acur
    return Acur, Bcur


def _poly_linear_combo(bj: Fraction, y1: List[Fraction], c: Fraction,
                       y2: List[Fraction]) -> List[Fraction]:
    """(z - bj) * y1 - c * y2, ascending coefficients."""
    out = [Fraction(0)] * (len(y1) + 1)
    for i, v in enumerate(y1):
        out[i] -= bj * v
        out[i + 1] += v
    for i, v in enumerate(y2):
        out[i] -= c * v
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def moments(a: Sequence, b: Sequence, a0, count: int) -> List[Fraction]:
    """c_j = a0^2 <T^j e0, e0> for the half-line operator with the
    periodically extended entries; exact."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = len(a)
    size = count + 2
    aa = [Q(a[i % n]) for i in range(size)]
    bb = [Q(b[i % n]) for i in range(size)]
    v = [Fraction(0)] * size
    v[0] = Fraction(1)
    out = [Q(a0) ** 2]
    for _ in range(count - 1):
        w = [Fraction(0)] * size
        for i in range(size):
            if v[i] == 0:
                continue
            w[i] += bb[i] * v[i]
            if i + 1 < size:
                w[i + 1] += aa[i] * v[i]
            if i > 0:
                w[i - 1] += aa[i - 1] * v[i]
        v = w
        out.append((Q(a0) ** 2) * v[0])
    return out


def pade_series(a: Sequence, b: Sequence, a0, k: int, terms: int) -> List[Fraction]:
    """Expansion of A_k/B_k at z = infinity: coefficients d_j of
    sum d_j / z^(j+1), exact."""
    A, B = pade(a, b, a0, k)
    # A(z)/B(z) = (1/z) * Arev(u)/Brev(u) with u = 1/z
    Arev = [Fraction(0)] * (k) ;
    for i, c in enumerate(A):
        Arev[(k - 1) - i] = c
    Brev = [Fraction(0)] * (k + 1)
    for i, c in enumerate(B):
        Brev[k - i] = c
    out = []
    rem = Arev + [Fraction(0)] * terms
    for j in range(terms):
        d = rem[j] / Brev[0]
        out.append(d)
        for i in range(len(Brev)):
            if j + i < len(rem):
                rem[j + i] -= d * Brev[i]
    return out


# -- Stieltjes measure --------------------------------------------------------

# closed-gap atoms weigh at most ZERO_MASS_TOL; the quadrature puts QUAD_NODES
# nodes on each band and skips a band narrower than NARROW_BAND
ZERO_MASS_TOL = 1e-11
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
    density: Callable[[float], float]

    @cached_property
    def quadrature(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per band (nodes xs, weights, density at xs) of Gauss-Legendre
        with the sine substitution x = mid + rad sin(theta), which absorbs
        the square-root edges.  Built once; the weights are w_q * jacobian,
        the jacobian rad cos(theta) taken as sqrt((x - lo)(hi - x)) at the
        rounded node x, so that it matches the density's own edge factors
        where a node lies a few ulps from an edge.  The density is called
        on the nodes as Python floats (xs.tolist()): its scalar math then
        does no numpy-scalar arithmetic, and rounds the same."""
        sin_t, wq = _sine_gauss_legendre(QUAD_NODES)
        table = []
        for lo, hi in self.bands:
            if hi - lo < NARROW_BAND:
                continue
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            xs = mid + rad * sin_t
            jac = (np.pi / 2) * np.sqrt(xs - lo) * np.sqrt(hi - xs)
            dens = [self.density(x) for x in xs.tolist()]
            table.append((xs, wq * jac, np.array(dens)))
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
        return self.integrate(lambda x: 1.0)

    def cauchy_transform(self, z: complex) -> complex:
        total = sum(mass / (z - x) for x, mass in self.atoms)
        for xs, w, dens in self.quadrature:
            total += complex(np.sum(w * (dens / (z - xs))))
        return total


def measure_decompose(m: PeriodicJacobi, a0,
                      data: Optional[SpectralData] = None) -> StieltjesMeasure:
    """Atoms-plus-density decomposition of the spectral measure.

    Atoms sit at the auxiliary eigenvalues sigma_j.  There the monodromy
    matrix is triangular, so the roots of alpha h^2 - P(sigma_j) h + alpha
    are c_j and 1/c_j, c_j = (-1)^(N+1) aN^2 Lambda(sigma_j) / alpha with
    Lambda the interior (N-2)-determinant (empty = 1 for N = 2): the
    Dirichlet identity (G. Teschl, Jacobi Operators and Completely
    Integrable Nonlinear Lattices, AMS 2000, ch. 7-8).  The residue is
    taken on the |h| < 1 sheet, so mass_j = 0 if |c_j| <= 1 and otherwise

        mass_j = s * (alpha / c_j + (-1)^N aN^2 Lambda(sigma_j))
                 / prod_{l != j} (sigma_j - sigma_l),

    with s = (a0/a_N)^2 the half-line rescaling: real arithmetic, no square
    root.  a0 must be nonzero (ValueError), and s must be a positive
    finite double (OverflowError naming it, when it overflows or
    underflows to 0).  Masses up to ZERO_MASS_TOL (closed gaps) are
    dropped.  The continuous part is s/(2 pi) * sqrt(4 alpha^2 - P^2) /
    |cofactor| on each stable band, evaluated as a product over the branch
    points and the sigma_j.  The quadrature skips bands narrower than NARROW_BAND, so
    where one occurs the atoms and the other bands must carry a0^2 to 1e-8
    relative, or OverflowError names the missing mass."""
    if data is None:
        data = spectral_data(m)
    N = m.period
    aux = data.aux_spectrum
    # aux is sorted; a difference of floats overflows to inf, never a warning
    if any(t - s < 1e-9 for s, t in zip(aux, aux[1:])):
        raise DegenerateSpectrumError("coincident auxiliary eigenvalues")
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
    try:
        interior = _tridiag_charpoly(m.b[1: N - 1], m.a[1: N - 2], False)
    except OverflowError:
        raise OverflowError("an a_j^2 (2 <= j <= N-2) in the interior "
                            "determinant Lambda overflows a double") from None
    try:
        aN2 = aN ** 2
    except OverflowError:
        raise OverflowError("a_N^2 overflows a double") from None
    atoms: List[Tuple[float, float]] = []
    for j, s in enumerate(aux):
        alpha_c = (-1) ** (N + 1) * aN2 * _poly_eval(interior, s)
        c = alpha_c / alpha
        if abs(c) <= 1:
            continue
        den = math.prod(s - s2 for l, s2 in enumerate(aux) if l != j)
        mass = scale * (alpha / c - alpha_c) / den
        if not math.isfinite(mass):
            raise OverflowError(f"atom mass at sigma={s} is not finite: {mass}")
        if mass < -1e-8:
            raise DegenerateSpectrumError(
                f"negative atom mass {mass} at sigma={s}")
        if mass > ZERO_MASS_TOL:
            atoms.append((s, mass))

    # P is monic and the cofactor monic up to sign, so 4 alpha^2 - P^2 =
    # -prod_k (x - E_k) over the 2N branch points and |cofactor| =
    # prod_j |x - sigma_j|: each factor of the density is exact near its
    # own root, where Horner's P^2 cancels.  The j-th gap's two edges pair
    # with sigma_j, which keeps every factor near 1 in size and makes a
    # closed gap's pair identically 1.
    edges = [x for x, mult in data.branch_points for _ in range(mult)]
    pairs = list(zip(edges[1:-1:2], edges[2:-1:2], aux))

    def density(x: float) -> float:
        if bisect_right(edges, x) % 2 == 0:
            return 0.0          # in a gap or outside the spectrum
        rho = (scale / (2 * math.pi) * math.sqrt(x - edges[0])
               * math.sqrt(edges[-1] - x))
        for lo, hi, s in pairs:
            if x == s:
                if lo != hi:
                    return 0.0  # sigma on an open edge: 1/sqrt blow-up
                continue        # closed gap
            rho *= math.sqrt(abs(x - lo)) * math.sqrt(abs(hi - x)) / abs(x - s)
        return rho

    # merge bands across closed gaps: the density continues analytically
    # through them, and quadrature is spectrally accurate only on
    # intervals with pure square-root edge behavior
    span = max(abs(x) for x in edges) + 1.0
    merged: List[Tuple[float, float]] = []
    for lo, hi in data.stable_bands:
        if merged and abs(lo - merged[-1][1]) < 1e-10 * span:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    measure = StieltjesMeasure(atoms=atoms, bands=merged, density=density)
    if any(hi - lo < NARROW_BAND for lo, hi in merged):
        want = float(a0) ** 2
        held = measure.total_mass()
        if not abs(held - want) <= 1e-8 * want:   # NaN fails too
            raise OverflowError(
                f"a band is too narrow for a double to integrate, and the "
                f"atoms and the other bands carry {held:.6g} of the total "
                f"mass a0^2 = {want:.6g}: {want - held:.6g} is missing")
    return measure


def orthogonality_check(m: PeriodicJacobi, a0, k_max: int,
                        measure: Optional[StieltjesMeasure] = None) -> Dict[str, float]:
    """Gram matrix of the denominator polynomials against the measure.

    Returns the worst off-diagonal entry and the worst relative diagonal
    error against the exact norms a0^2 prod_{i<=k} a_i^2."""
    if measure is None:
        measure = measure_decompose(m, a0)
    n = m.period
    polys = [[Fraction(1)]] + [pade(m.a, m.b, a0, k)[1] for k in range(1, k_max + 1)]
    worst_off = 0.0
    worst_diag = 0.0
    for i in range(k_max + 1):
        for j in range(i, k_max + 1):
            pi = [float(c) for c in polys[i]]
            pj = [float(c) for c in polys[j]]
            val = measure.integrate(lambda x: _poly_eval(pi, x) * _poly_eval(pj, x))
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
    every sample, sum b_j exactly conserved, a_j never vanishing.  Each
    sample builds A(1) once: _float_spectrum reads its spectrum from it and
    the power traces tr A^k are taken of it.  The state is rk4's list of
    2N Python floats (a_1..a_N, b_1..b_N), which the right-hand side
    toda_scalar_rhs reads and returns with no numpy conversion.  Raises
    BlowUpError when the state stops being finite or a_j ** 2 overflows,
    and ValueError unless dt divides t_end (laxflow.steps_for)."""
    n = m.period

    def rhs(y: List[float]) -> List[float]:
        da, db = toda_scalar_rhs(y[:n], y[n:])
        return da + db

    stride = max(1, steps_for(t_end, dt) // samples)
    y0 = [float(x) for x in list(m.a) + list(m.b)]
    times, states = rk4(rhs, y0, t_end, dt, stride, np.inf)
    a_states = [y[:n] for y in states]
    b_states = [y[n:] for y in states]

    edge_sets, aux_sets, traces = [], [], []
    inter_ok = True
    for aa, bb in zip(a_states, b_states):
        A, edges, aux = _float_spectrum(aa, bb)
        edge_sets.append(edges)
        aux_sets.append(aux)
        gaps = list(zip(edges[1:-1:2], edges[2:-1:2]))
        inter_ok = inter_ok and _interlaces(aux, gaps, 1e-6)
        traces.append([float(np.trace(np.linalg.matrix_power(A, k)))
                       for k in range(1, n + 1)])
    edges, traces = np.array(edge_sets), np.array(traces)
    tr_drift = max(abs(float(np.sum(bb) - np.sum(b_states[0])))
                   for bb in b_states)
    return TodaDiagnostics(times=times, a_states=np.array(a_states),
                           b_states=np.array(b_states),
                           band_edges=edges,
                           aux_states=np.array(aux_sets),
                           band_edge_drift=float(np.max(np.abs(edges - edges[0]))),
                           trace_sum_drift=tr_drift,
                           power_trace_drift=float(np.max(np.abs(traces - traces[0]))),
                           interlacing_ok=inter_ok,
                           min_abs_a=float(np.min(np.abs(np.array(a_states)))))


def _periodic_matrix(a, b, h: float) -> np.ndarray:
    n = len(a)
    A = np.diag(np.asarray(b, dtype=float))
    for j in range(n - 1):
        A[j, j + 1] = A[j + 1, j] = float(a[j])
    A[0, n - 1] += float(a[-1]) / h
    A[n - 1, 0] += float(a[-1]) * h
    return A
