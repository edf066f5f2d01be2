"""Lax pencils: characteristic curves, isospectral integration and
conservation diagnostics, Poisson-bracket checks, and the dimension
arithmetic of the free rigid body.

Flow convention: integrate_lax solves dA/dt = [B(A), A] with the
commutator taken per h-degree, [A, B]_k = sum_{i+j=k} [A_i, B_j].  Every
flow of the package (Lax pencils, polynomial vector fields, the Jacobi
lattice) steps through the one classical fixed-step fourth-order kernel
`rk4`, so conservation errors have a reproducible dt^4 baseline.  Its
step dt must divide the horizon t_end into whole steps.  Its state is an
ndarray for a Lax pencil's blocks and a list of Python floats for the
lattice and the vector fields, whose few entries and scalar right-hand
sides cost less without numpy; both kinds round alike, bit for bit.

Pencils are float: a MatrixPencil holds the blocks A_lo..A_hi of its
h-window in one (K, n, n) array.  Exact spectral curves come from plain
{k: matrix of Fractions} dicts, which pencil_charpoly evaluates exactly.
The built-in Lax pairs (periodic and open Toda, Euler-Arnold, Manakov,
Neumann, Jacobi geodesics) are built here too, by factories that return
a pencil and its B.

The commutator is the hot path of every Lax flow (one per RK4 stage).  It
forms all block commutators [A_i, B_j] in one stacked matmul and one
in-place subtraction, then adds them into each h-degree in order of
increasing i, starting from zeros, so every entry rounds as in a plain
double loop over the block pairs.  Pairs whose degree falls outside the
requested window are not dropped silently: each must vanish up to
roundoff, or ValueError reports a malformed B.  Everything that depends
only on the block counts and the window (the slice-adds, the outside
pairs and their indices) is computed once per flow and cached, so a
stage spends its numpy calls on the blocks alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactalg import MultiPoly, Q, charpoly_exact, solve_square_exact
from .sysdsl import VectorFieldSystem, gradient


class BlowUpError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"flow blew up near t = {t}")
        self.time = t


# ---------------------------------------------------------------------------
# pencils
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _pair_layout(ka: int, kb: int, base: int, width: int):
    """Where the block pairs (i, j) of a ka x kb commutator land in a window
    of `width` degrees, pair (i, j) going to index base + i + j.

    Returns the slice-adds (i, window slice, j slice) of the pairs inside,
    one per i in increasing order; the integer indices (i's, j's) of the
    pairs outside, in (i, j) order, which is the order that indexing by
    their mask gives; and the degree index of each outside pair in that
    order.  Cached, and so read-only: a flow asks for the same layout at
    every stage."""
    adds = []
    for i in range(ka):
        j0, j1 = max(0, -base - i), min(kb, width - base - i)
        if j0 < j1:
            adds.append((i, slice(base + i + j0, base + i + j1), slice(j0, j1)))
    pos = base + np.add.outer(np.arange(ka), np.arange(kb))
    outside = (pos < 0) | (pos >= width)
    spill_ij = np.nonzero(outside)
    spill_pos = pos[spill_ij]
    for arr in (spill_pos, *spill_ij):
        arr.flags.writeable = False
    return tuple(adds), spill_ij, spill_pos


class MatrixPencil:
    """A(h) = sum_k A_k h^k with float n x n blocks.

    `blocks[k - lo]` is A_k for every k of the h-window lo..hi; blocks
    inside the window may be zero.  `coeffs` is a read-only {k: A_k} view.
    """

    def __init__(self, coeffs: Mapping[int, object]):
        mats = {int(k): np.asarray(M, dtype=float) for k, M in coeffs.items()}
        if not mats:
            raise ValueError("empty pencil")
        if any(A.ndim != 2 or A.shape[0] != A.shape[1] for A in mats.values()):
            raise ValueError("pencil coefficients must be square")
        dims = {A.shape[0] for A in mats.values()}
        if len(dims) > 1:
            raise ValueError("pencil coefficients must share a dimension")
        n = dims.pop()
        lo = min(mats)
        blocks = np.zeros((max(mats) - lo + 1, n, n))
        for k, A in mats.items():
            blocks[k - lo] = A
        blocks.flags.writeable = False
        self.lo, self.blocks = lo, blocks

    @classmethod
    def from_blocks(cls, lo: int, blocks: np.ndarray) -> "MatrixPencil":
        """The pencil sum_i blocks[i] h^(lo+i); `blocks` is not copied but
        made read-only."""
        blocks.flags.writeable = False
        P = cls.__new__(cls)
        P.lo, P.blocks = lo, blocks
        return P

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def h_range(self) -> Tuple[int, int]:
        return (self.lo, self.lo + len(self.blocks) - 1)

    @property
    def coeffs(self) -> Mapping[int, np.ndarray]:
        return MappingProxyType({k: A for k, A in enumerate(self.blocks, self.lo)})

    def evaluate(self, h):
        if self.lo < 0 and h == 0:
            raise ZeroDivisionError("pencil has h^-1 terms; cannot evaluate at 0")
        out = np.zeros((self.dim, self.dim), dtype=complex if isinstance(h, complex) else float)
        for k, A in enumerate(self.blocks, self.lo):
            out = out + A * (h ** k)
        return out

    def commutator(self, other: "MatrixPencil",
                   window: Optional[Tuple[int, int]] = None) -> "MatrixPencil":
        """[self, other] per h-degree over `window` (default: every degree
        the product reaches).

        One stacked matmul forms every block commutator
        C[i, j] = [A_(lo+i), B_(other.lo+j)] at once.  Degree k of the
        result is then the sum of its C[i, j] in order of increasing i,
        starting from zeros: one slice-add per block of `self`.  A pair
        whose degree falls outside the window must vanish up to roundoff,
        max|C| <= 1e-10 * (1 + max|A| * max|B|), or ValueError names the
        degree of the first such pair in (i, j) order."""
        A, B = self.blocks, other.blocks
        wlo, whi = window or (self.lo + other.lo, self.h_range[1] + other.h_range[1])
        width = whi - wlo + 1
        adds, (oi, oj), spill_pos = _pair_layout(
            len(A), len(B), self.lo + other.lo - wlo, width)
        out = np.zeros((width,) + A.shape[1:])
        C = A[:, None] @ B[None, :]
        C -= B[None, :] @ A[:, None]
        for i, dst, src in adds:
            out[dst] += C[i, src]
        # no pair can fail while every outside entry is within 1e-10
        if len(oi) and np.abs(C[oi, oj]).max() > 1e-10:
            spill = np.max(np.abs(C[oi, oj]), axis=(1, 2))
            scale = np.outer(np.max(np.abs(A), axis=(1, 2)),
                             np.max(np.abs(B), axis=(1, 2)))[oi, oj]
            bad = (spill > 1e-10) & (spill > 1e-10 * (1 + scale))
            if bad.any():
                k = wlo + int(spill_pos[np.argmax(bad)])
                raise ValueError(
                    f"commutator spills h^{k} outside the declared window")
        return MatrixPencil.from_blocks(wlo, out)

    def axpy(self, c: float, other: "MatrixPencil") -> "MatrixPencil":
        """self + c * other, for two pencils on the same h-window."""
        if other.h_range != self.h_range:
            raise ValueError("axpy needs pencils on the same h-window")
        return MatrixPencil.from_blocks(self.lo, self.blocks + c * other.blocks)

    def norm(self) -> float:
        return float(np.max(np.abs(self.blocks)))


# ---------------------------------------------------------------------------
# built-in pencils
# ---------------------------------------------------------------------------

# Each constructor returns a (MatrixPencil, B) pair for integrate_lax's
# dA/dt = [B(A), A] convention.  The B contract: B(P) takes a pencil on the
# h-window of the pencil it was returned with and gives a new MatrixPencil,
# built with MatrixPencil.from_blocks on B's own fixed window (which may be
# narrower than P's, as for the rank-2 pencils); it reads P's blocks as
# P.blocks[k - P.lo] and never writes to them.  Each call fills one fresh
# (K, n, n) block array with out= ufuncs and hands it over: no buffer is
# reused across calls, so a caller may keep each result (rk4 keeps all
# four stages of a step when it integrates dA/dt = B(A) itself, as the
# non-commutator control does).  integrate_lax calls B four times per
# step, so everything that does not depend on P (the constant blocks, the
# metric ratios, the triangular masks) is computed once, when the pair is
# built.

# Toda lattice pencils (Flaschka form)

def flaschka(x: Sequence[float], y: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Map particle coordinates to Jacobi data: a_j = exp((x_j-x_{j+1})/2)/2
    (periodic wrap), b_j = -y_j/2.

    The half in the exponent is what makes the a,b flow below the image of
    the Hamiltonian particle flow.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    a = np.array([0.5 * math.exp((x[j] - x[(j + 1) % n]) / 2) for j in range(n)])
    b = -0.5 * y
    return a, b


def toda_periodic_coeffs(a: Sequence, b: Sequence) -> Dict[int, list]:
    """Coefficients {-1: A_-1, 0: A_0, 1: A_1} of the periodic Toda pencil
    A(h): symmetric tridiagonal A_0 with corner entries a_N h^{+-1}.  The
    entries are the given numbers, so rational data gives the exact
    pencil that pencil_charpoly turns into the exact spectral curve."""
    a = list(a)
    b = list(b)
    n = len(a)
    if len(b) != n or n < 2:
        raise ValueError("need equal-length a, b with N >= 2")
    if any(float(x) == 0 for x in a):
        raise ValueError("off-diagonal entries a_j must be nonzero")
    A0 = [[0] * n for _ in range(n)]
    for j in range(n):
        A0[j][j] = b[j]
    for j in range(n - 1):
        A0[j][j + 1] = A0[j + 1][j] = a[j]
    Am = [[0] * n for _ in range(n)]
    Ap = [[0] * n for _ in range(n)]
    Am[0][n - 1] = a[n - 1]
    Ap[n - 1][0] = a[n - 1]
    return {-1: Am, 0: A0, 1: Ap}


def _upper_minus_lower(n: int) -> Callable[[np.ndarray, np.ndarray], None]:
    """(M, dst): writes np.triu(M, 1) - np.tril(M, -1) of an n x n block
    into dst, selecting with the same masks and zeros as np.triu and
    np.tril, built once."""
    keep_upper = ~np.tri(n, n, 0, dtype=bool)
    keep_lower = np.tri(n, n, -1, dtype=bool)
    zero = np.zeros(1)

    def split(M: np.ndarray, dst: np.ndarray) -> None:
        np.subtract(np.where(keep_upper, M, zero), np.where(keep_lower, M, zero),
                    out=dst)
    return split


def toda_periodic_pencil(a: Sequence, b: Sequence
                         ) -> Tuple[MatrixPencil, Callable[[MatrixPencil], MatrixPencil]]:
    """Periodic Toda Lax pair: the float pencil of toda_periodic_coeffs and
    B(h), its antisymmetrized counterpart; the flow dA/dt = [B(A), A] is
    the lattice ȧ_j = a_j(b_{j+1}-b_j), ḃ_j = 2(a_j^2 - a_{j-1}^2)."""
    pencil = MatrixPencil(toda_periodic_coeffs(a, b))
    n = pencil.dim
    split = _upper_minus_lower(n)

    def B(P: MatrixPencil) -> MatrixPencil:
        # upper-minus-lower splitting of the doubly infinite matrix: the
        # h^-1 corner block sits below the diagonal there, h^+1 above
        Am, A0, Ap = P.blocks
        out = np.empty((3, n, n))
        np.negative(Am, out=out[0])
        split(A0, out[1])
        out[2] = Ap
        return MatrixPencil.from_blocks(-1, out)

    return pencil, B


def toda_open_pencil(a, b):
    """Non-periodic (open) Toda lattice: plain tridiagonal pair."""
    a = list(a)
    b = list(b)
    n = len(b)
    if len(a) != n - 1:
        raise ValueError("open lattice needs len(a) == len(b) - 1")
    A0 = np.diag(np.asarray(b, dtype=float))
    for j in range(n - 1):
        A0[j, j + 1] = A0[j + 1, j] = float(a[j])
    pencil = MatrixPencil({0: A0})
    split = _upper_minus_lower(n)

    def B(P: MatrixPencil) -> MatrixPencil:
        out = np.empty((1, n, n))
        split(P.blocks[0], out[0])
        return MatrixPencil.from_blocks(0, out)

    return pencil, B


def toda_scalar_rhs(a: Sequence[float], b: Sequence[float]
                    ) -> Tuple[List[float], List[float]]:
    """Periodic lattice ODE in Flaschka variables (index mod N), as the
    lists (da, db)."""
    # Scalar loops on the Python floats the lattice flow passes in: on 2-7
    # sites numpy-scalar arithmetic costs more than the sums.  b[j + 1 - n]
    # is b[(j + 1) mod n].  `** 2` stays for bit identity with the golden
    # reports: Python's x ** 2 rounds as numpy's scalar x ** 2 does, where
    # x * x and numpy's array a ** 2 differ in the last bit on some inputs.
    n = len(a)
    da = [a[j] * (b[j + 1 - n] - b[j]) for j in range(n)]
    db = [2 * (a[j] ** 2 - a[j - 1] ** 2) for j in range(n)]
    return da, db


# geodesic flow on SO(n) and the Manakov pencil

def random_skew(n: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = rng.uniform(-scale, scale, size=(n, n))
    return (M - M.T) / 2


def _metric_b(al: np.ndarray, be: np.ndarray, k: int
              ) -> Callable[[MatrixPencil], MatrixPencil]:
    """The B factory P -> -(ratio * P_k) - diag(beta) h, where ratio_ij =
    (beta_i - beta_j)/(alpha_i - alpha_j) off the diagonal and 0 on it:
    the B of the Euler-Arnold (k = 0) and rank-2 (k = 1) pencils."""
    n = len(al)
    ratio = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ratio[i, j] = (be[i] - be[j]) / (al[i] - al[j])
    B1 = -np.diag(be)

    def B(P: MatrixPencil) -> MatrixPencil:
        out = np.empty((2, n, n))
        np.multiply(ratio, P.blocks[k - P.lo], out=out[0])
        np.negative(out[0], out=out[0])
        out[1] = B1
        return MatrixPencil.from_blocks(0, out)

    return B


def euler_arnold_pencil(alphas: Sequence[float], betas: Sequence[float],
                        X0: np.ndarray
                        ) -> Tuple[MatrixPencil, Callable[[MatrixPencil], MatrixPencil]]:
    """A(h) = X + diag(alpha) h with the metric multiplier
    lambda_ij = (beta_i - beta_j)/(alpha_i - alpha_j); the B returned is
    sign-adjusted so that dA/dt = [B(A), A] reproduces dX/dt = [X, lam*X]."""
    al = np.asarray(alphas, dtype=float)
    be = np.asarray(betas, dtype=float)
    n = len(al)
    if len(set(al.tolist())) != n:
        raise ValueError("alphas must be distinct")
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != (n, n) or np.max(np.abs(X0 + X0.T)) > 1e-12:
        raise ValueError("X0 must be skew-symmetric n x n")
    return MatrixPencil({0: X0, 1: np.diag(al)}), _metric_b(al, be, 0)


def manakov_pencil(j_diag: Sequence[float], omega: np.ndarray
                   ) -> Tuple[MatrixPencil, Callable[[MatrixPencil], MatrixPencil]]:
    """Rigid-body pencil A = M + J^2 h with M = Omega J + J Omega; the
    B pencil is -(Omega + J h) so that [B(A), A] gives dM/dt = [M, Omega]."""
    J = np.diag(np.asarray(j_diag, dtype=float))
    n = len(J)
    Om = np.asarray(omega, dtype=float)
    if np.max(np.abs(Om + Om.T)) > 1e-12:
        raise ValueError("omega must be skew-symmetric")
    M = Om @ J + J @ Om
    pencil = MatrixPencil({0: M, 1: J @ J})
    # invert M = Omega J + J Omega entrywise: Omega_ij = M_ij/(J_i+J_j)
    denom = np.add.outer(np.diag(J), np.diag(J))
    B1 = -J

    def B(P: MatrixPencil) -> MatrixPencil:
        out = np.empty((2, n, n))
        np.divide(P.blocks[0], denom, out=out[0])
        np.fill_diagonal(out[0], 0.0)
        np.negative(out[0], out=out[0])
        out[1] = B1
        return MatrixPencil.from_blocks(0, out)

    return pencil, B


# rank-2 perturbation pencils (sphere motion / geodesics on the ellipsoid)

def _wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.outer(x, y) - np.outer(y, x)


def rank2_pencil(alphas: Sequence[float], x: np.ndarray, y: np.ndarray,
                 betas: Sequence[float]
                 ) -> Tuple[MatrixPencil, Callable[[MatrixPencil], MatrixPencil]]:
    """A(h) = diag(alpha) h^2 - h x^y - y(x)y (a rank-2 perturbation of
    diag(alpha)); B(A) = ad_beta ad_alpha^{-1}(y^x) + diag(beta) h, with
    the sign arranged for the dA/dt = [B(A), A] convention."""
    al = np.asarray(alphas, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A2 = np.diag(al)
    A1 = -_wedge(x, y)
    A0 = -np.outer(y, y)
    pencil = MatrixPencil({0: A0, 1: A1, 2: A2})
    # A1 = -x^y, so ad_beta ad_alpha^{-1}(y^x) = ratio * A1
    return pencil, _metric_b(al, np.asarray(betas, dtype=float), 1)


def neumann_pencil(alphas, x, y):
    """Point on the sphere |x|=1 under the force -alpha x: beta = alpha."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("neumann motion needs |x| = 1")
    return rank2_pencil(alphas, x, y, alphas)


def jacobi_geodesic_pencil(alphas, x, y):
    """Geodesics on the ellipsoid: beta_i = 1/alpha_i."""
    al = np.asarray(alphas, dtype=float)
    return rank2_pencil(al, x, y, 1.0 / al)


def neumann_branch_points(alphas, x, y) -> np.ndarray:
    """The 2n branch data of the underlying hyperelliptic curve: the n
    alphas, the n-1 nonzero eigenvalues of the reduced isospectral matrix
    L = (I-P_y)(diag(alpha) - x x^T)(I-P_y), and the point at infinity
    (returned as the count only by the caller)."""
    al = np.asarray(alphas, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(al)
    Py = np.outer(y, y) / float(y @ y)
    L = (np.eye(n) - Py) @ (np.diag(al) - np.outer(x, x)) @ (np.eye(n) - Py)
    eigs = np.sort(np.linalg.eigvalsh(L))
    # one eigenvalue is forced to zero by the projection
    idx = int(np.argmin(np.abs(eigs)))
    lam = np.delete(eigs, idx)
    return np.sort(np.concatenate([al, lam]))


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

@dataclass
class SpectralCurve:
    """det(A(h) - zI) as a dict (z_degree, h_degree) -> coefficient."""
    coeffs: Dict[Tuple[int, int], object]
    dim: int

    def evaluate(self, z, h):
        return sum(c * (z ** i) * (h ** j) for (i, j), c in self.coeffs.items())

    def drop_small(self, tol: float = 1e-9) -> "SpectralCurve":
        return SpectralCurve({k: v for k, v in self.coeffs.items()
                              if abs(float(v)) > tol}, self.dim)

    def max_coeff_difference(self, other: "SpectralCurve") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(float(self.coeffs.get(k, 0)) - float(other.coeffs.get(k, 0)))
                    for k in keys), default=0.0)


def _h_nodes(count: int) -> List[Fraction]:
    nodes: List[Fraction] = []
    k = 1
    while len(nodes) < count:
        for cand in (Fraction(k), Fraction(-k), Fraction(1, k + 1), Fraction(-1, k + 1)):
            if cand not in nodes:
                nodes.append(cand)
            if len(nodes) == count:
                break
        k += 1
    return nodes


def pencil_charpoly(p: Union[MatrixPencil, Mapping[int, Sequence[Sequence]]]
                    ) -> SpectralCurve:
    """Recover P(z,h) = det(A(h) - zI) by sampling h and interpolating.

    A MatrixPencil gives a float curve.  A dict {k: square matrix of
    rationals} gives the exact curve: exact determinants and an exact
    interpolation over Q.  The h-degree window for the z^k coefficient is
    (n-k)*[min(l,0), max(m,0)].
    """
    exact = not isinstance(p, MatrixPencil)
    if exact:
        blocks = {k: [[Q(x) for x in row] for row in M] for k, M in p.items()}
        n = len(next(iter(blocks.values())))
        lo, hi = min(blocks), max(blocks)
    else:
        n = p.dim
        lo, hi = p.h_range
    lo, hi = min(lo, 0), max(hi, 0)
    width = n * (hi - lo) + 1
    nodes = _h_nodes(width)
    rows = []
    for h0 in nodes:
        if exact:
            A = [[sum((M[i][j] * h0 ** k for k, M in blocks.items()), Fraction(0))
                  for j in range(n)] for i in range(n)]
            cp = charpoly_exact([[MultiPoly.const(x) for x in row] for row in A])
            # det(A - zI) = (-1)^n * charpoly(z)
            sign = Fraction(-1) ** n
            rows.append([sign * c.const_value() for c in cp])
        else:
            cp = np.poly(p.evaluate(float(h0)))[::-1]  # ascending in z of det(zI - A)
            sign = (-1.0) ** n
            rows.append([sign * c for c in cp])

    coeffs: Dict[Tuple[int, int], object] = {}
    for k in range(n + 1):
        wlo, whi = (n - k) * lo, (n - k) * hi
        m = whi - wlo + 1
        if exact:
            V = [[nodes[r] ** (wlo + c) for c in range(m)] for r in range(m)]
            rhs = [rows[r][k] for r in range(m)]
            sol = [x.const_value() for x in solve_square_exact(V, rhs)]
        else:
            V = np.array([[float(nodes[r]) ** (wlo + c) for c in range(m)]
                          for r in range(m)])
            rhs = np.array([rows[r][k] for r in range(m)], dtype=float)
            sol = np.linalg.solve(V, rhs)
        for c in range(m):
            v = sol[c]
            if (exact and v != 0) or (not exact and abs(v) > 1e-9):
                coeffs[(k, wlo + c)] = v
    return SpectralCurve(coeffs, n)


# ---------------------------------------------------------------------------
# Lax integration
# ---------------------------------------------------------------------------

# the most steps one flow may take: a step far below its horizon (say
# --dt 1e-300) is refused at once instead of running without end
MAX_STEPS = 10 ** 6


def steps_for(t_end: float, dt: float) -> int:
    """Number of steps of size dt that reach t_end.  ValueError unless dt
    divides t_end into a positive whole number of steps, to 1e-9
    relative: a flow never stops short of or runs past its horizon, and
    never takes zero steps.  ValueError too for more than MAX_STEPS."""
    if not dt > 0:
        raise ValueError("step size must be positive")
    ratio = t_end / dt
    steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * abs(t_end):
        raise ValueError(f"dt = {dt} does not divide t_end = {t_end} "
                         "into a positive whole number of steps")
    if steps > MAX_STEPS:
        raise ValueError(f"dt = {dt} takes {ratio:.7g} steps to reach "
                         f"t_end = {t_end}, more than MAX_STEPS = {MAX_STEPS}")
    return steps


# an rk4 state, and each kind's two combinations of the stages
State = Union[np.ndarray, List[float]]


def _stage_array(y: np.ndarray, c: float, k: np.ndarray) -> np.ndarray:
    return y + c * k


def _step_array(y: np.ndarray, c: float, k1: np.ndarray, k2: np.ndarray,
                k3: np.ndarray, k4: np.ndarray) -> np.ndarray:
    return y + c * (k1 + 2 * k2 + 2 * k3 + k4)


def _stage_list(y: List[float], c: float, k: List[float]) -> List[float]:
    return [u + c * v for u, v in zip(y, k)]


def _step_list(y: List[float], c: float, k1: List[float], k2: List[float],
               k3: List[float], k4: List[float]) -> List[float]:
    return [u + c * (v1 + 2 * v2 + 2 * v3 + v4)
            for u, v1, v2, v3, v4 in zip(y, k1, k2, k3, k4)]


def _top_array(y: np.ndarray) -> float:
    # one reduction: a NaN anywhere makes the max NaN
    return np.abs(y).max()


def _top_list(y: List[float]) -> float:
    # a finite sum rules out NaN and inf, which Python's max could pass over
    if math.isfinite(sum(y)):
        return max(map(abs, y))
    return _top_array(y)


def rk4(rhs: Callable[[State], State], y0: State, t_end: float, dt: float,
        sample_every: int, blowup: float) -> Tuple[List[float], List[State]]:
    """Classical fixed-step fourth-order integration of y' = rhs(y).

    The state is an ndarray or a list of Python floats, and rhs returns
    the kind it is given.  A list suits a few floats with a scalar rhs
    (the Jacobi lattice, a polynomial vector field), where numpy's
    per-call cost exceeds the arithmetic.  Only the two combinations of
    the stages, y + c k and y + c (k1 + 2 k2 + 2 k3 + k4), and the
    max-norm of the blow-up test are chosen by kind.  The combinations
    are elementwise in the same order, and Python floats round as numpy
    float64 does, so a list steps to the bits of the equal ndarray; a
    max of absolute values is exact either way.

    Returns the sample times and states: t = 0 (y0 itself), every
    `sample_every`-th step and the last step, each at t = step * dt.
    Raises BlowUpError when the state stops being finite or its max-norm
    exceeds `blowup`, or when rhs raises OverflowError (Python float `**`
    raises where numpy returns inf), and ValueError unless dt divides
    t_end (steps_for).
    """
    steps = steps_for(t_end, dt)
    stage, advance, top_abs = ((_stage_list, _step_list, _top_list)
                               if isinstance(y0, list)
                               else (_stage_array, _step_array, _top_array))
    y = y0
    times = [0.0]
    states = [y]
    for s in range(steps):
        try:
            k1 = rhs(y)
            k2 = rhs(stage(y, dt / 2, k1))
            k3 = rhs(stage(y, dt / 2, k2))
            k4 = rhs(stage(y, dt, k3))
        except OverflowError as exc:
            raise BlowUpError((s + 1) * dt) from exc
        y = advance(y, dt / 6, k1, k2, k3, k4)
        top = top_abs(y)
        if not math.isfinite(top) or top > blowup:
            raise BlowUpError((s + 1) * dt)
        if (s + 1) % sample_every == 0 or s == steps - 1:
            times.append((s + 1) * dt)
            states.append(y)
    return times, states


@dataclass
class LaxTrajectory:
    times: List[float]
    pencils: List[MatrixPencil]
    dt: float
    method_order: int = 4

    def final(self) -> MatrixPencil:
        return self.pencils[-1]


def integrate_lax(p0: MatrixPencil, B: Callable[[MatrixPencil], MatrixPencil],
                  t_end: float, dt: float, sample_every: int = 10,
                  blowup: float = 1e8) -> LaxTrajectory:
    """rk4 on dA/dt = [B(A), A] over the h-window of p0.

    Deterministic for a given (p0, dt); aborts with BlowUpError when the
    max-norm of the state exceeds `blowup`, and with ValueError when the
    commutator spills outside the window (a malformed B).
    """
    lo = p0.lo
    window = p0.h_range

    def rhs(y: np.ndarray) -> np.ndarray:
        P = MatrixPencil.from_blocks(lo, y)
        return B(P).commutator(P, window=window).blocks

    times, states = rk4(rhs, p0.blocks, t_end, dt, sample_every, blowup)
    return LaxTrajectory(times=times, dt=dt,
                         pencils=[MatrixPencil.from_blocks(lo, y) for y in states])


def trace_powers(p: MatrixPencil, h: float, k_max: int) -> List[float]:
    A = p.evaluate(h)
    out = []
    Ak = np.eye(p.dim)
    for _ in range(k_max):
        Ak = Ak @ A
        out.append(float(np.trace(Ak)))
    return out


def isospectral_drift(traj: LaxTrajectory, h_samples: Sequence[float],
                      k_max: int) -> float:
    """max over t, h, k<=k_max of |tr A(t,h)^k - tr A(0,h)^k|."""
    if not traj.pencils:
        raise ValueError("empty trajectory")
    base = {h: trace_powers(traj.pencils[0], h, k_max) for h in h_samples}
    drift = 0.0
    for P in traj.pencils[1:]:
        for h in h_samples:
            now = trace_powers(P, h, k_max)
            for a, b in zip(now, base[h]):
                drift = max(drift, abs(a - b))
    return drift


def curve_drift(traj: LaxTrajectory) -> float:
    """Max coefficient drift of the interpolated spectral curve."""
    base = pencil_charpoly(traj.pencils[0])
    worst = 0.0
    for P in traj.pencils[1:]:
        worst = max(worst, base.max_coeff_difference(pencil_charpoly(P)))
    return worst


# ---------------------------------------------------------------------------
# direct integration of polynomial vector fields
# ---------------------------------------------------------------------------

def integrate_system(sys: VectorFieldSystem, z0: Sequence[float], t_end: float,
                     dt: float, constants: Optional[Dict[str, float]] = None,
                     sample_every: int = 50, blowup: float = 1e8):
    """rk4 on z' = f(z); returns (times, states ndarray)."""
    consts = dict(constants or {})
    fns = list(sys.equations)
    names = list(sys.variables)

    def rhs(z: List[float]) -> List[float]:
        env = dict(zip(names, z))
        env.update(consts)
        return [f.eval_num(env) for f in fns]

    # a list state: eval_num works on Python floats, with no numpy scalar
    times, states = rk4(rhs, [float(x) for x in z0], t_end, dt, sample_every,
                        blowup)
    return times, np.array(states)


def invariant_drift(sys: VectorFieldSystem, times, states,
                    constants: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    consts = dict(constants or {})
    out = {}
    for nm, H in sys.invariants.items():
        vals = []
        for z in states:
            env = dict(zip(sys.variables, z))
            env.update(consts)
            vals.append(H.eval_num(env))
        out[nm] = float(np.max(np.abs(np.array(vals) - vals[0])))
    return out


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def poisson_bracket_poly(sys: VectorFieldSystem, F: MultiPoly,
                         G: MultiPoly) -> MultiPoly:
    if sys.poisson is None:
        raise ValueError("system has no Poisson matrix")
    gF = gradient(F, sys.variables)
    gG = gradient(G, sys.variables)
    out = MultiPoly.zero()
    for i in range(sys.dim):
        for j in range(sys.dim):
            if not sys.poisson[i][j].is_zero:
                out = out + gF[i] * sys.poisson[i][j] * gG[j]
    return out


def poisson_bracket(sys: VectorFieldSystem, F: str, G: str,
                    points: Optional[Sequence[Sequence]] = None):
    """{F,G} for named invariants: the expanded polynomial, or its exact
    values at the given rational points."""
    for nm in (F, G):
        if nm not in sys.invariants:
            raise KeyError(f"unknown invariant '{nm}'")
    br = poisson_bracket_poly(sys, sys.invariants[F], sys.invariants[G])
    if points is None:
        return br
    vals = []
    for pt in points:
        env = {v: Q(x) for v, x in zip(sys.variables, pt)}
        for c in sys.constants:
            env.setdefault(c, Q(1))
        vals.append(br.eval_exact(env))
    return vals


def jacobi_identity_check(sys: VectorFieldSystem,
                          triples: Optional[Sequence[Tuple[str, str, str]]] = None,
                          points: Optional[Sequence[Sequence]] = None,
                          seed: int = 0, n_points: int = 6):
    """Check sum_cyc {F,{G,H}} = 0.

    With no explicit triples the coordinate functions are used, which is
    the full Jacobi identity for the bracket (exact polynomial expansion
    for dim <= 6, exact evaluation at random rational points otherwise).
    Returns (ok, witnesses) where each witness names the offending triple
    and a point where the cycle fails to vanish.
    """
    if sys.poisson is None:
        raise ValueError("system has no Poisson matrix")
    if triples is None:
        idx = range(sys.dim)
        combos = [(i, j, k) for i in idx for j in idx for k in idx
                  if i < j < k]
        fns = [(f"z[{i}],z[{j}],z[{k}]",
                MultiPoly.var(sys.variables[i]),
                MultiPoly.var(sys.variables[j]),
                MultiPoly.var(sys.variables[k])) for i, j, k in combos]
    else:
        fns = [("{%s,%s,%s}" % t,
                sys.invariants[t[0]], sys.invariants[t[1]],
                sys.invariants[t[2]]) for t in triples]

    import random
    rng = random.Random(seed)

    def rand_point():
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in
                range(sys.dim)]

    pts = [list(map(Q, p)) for p in points] if points else None
    exact_mode = (pts is None) and sys.dim <= 6
    witnesses = []
    for label, F, G, H in fns:
        cyc = (poisson_bracket_poly(sys, F, poisson_bracket_poly(sys, G, H)) +
               poisson_bracket_poly(sys, G, poisson_bracket_poly(sys, H, F)) +
               poisson_bracket_poly(sys, H, poisson_bracket_poly(sys, F, G)))
        if cyc.is_zero:
            continue
        if exact_mode:
            # find a rational witness point
            for _ in range(64):
                pt = rand_point()
                env = dict(zip(sys.variables, pt))
                for c in sys.constants:
                    env.setdefault(c, Q(1))
                v = cyc.eval_exact(env)
                if v != 0:
                    witnesses.append((label, [str(x) for x in pt], str(v)))
                    break
            else:
                witnesses.append((label, None, "nonzero polynomial"))
        else:
            for pt in (pts or [rand_point() for _ in range(n_points)]):
                env = dict(zip(sys.variables, pt))
                for c in sys.constants:
                    env.setdefault(c, Q(1))
                v = cyc.eval_exact(env)
                if v != 0:
                    witnesses.append((label, [str(x) for x in pt], str(v)))
                    break
    return (not witnesses), witnesses


# ---------------------------------------------------------------------------
# rigid-body dimension arithmetic
# ---------------------------------------------------------------------------

def rigid_body_dims(n: int) -> Dict[str, int]:
    """Orbit dimension, spectral-curve genera and Prym dimension for the
    free n-dimensional rigid body; asserts dim_prym = dim_orbit / 2."""
    if n < 3:
        raise ValueError("need n >= 3")
    dim_orbit = n * (n - 1) // 2 - n // 2
    genus_c = (n - 1) * (n - 2) // 2
    if n % 2 == 0:
        genus_c0 = (n - 2) ** 2 // 4
        dim_prym = n * (n - 2) // 4
    else:
        genus_c0 = (n - 1) * (n - 3) // 4
        dim_prym = (n - 1) ** 2 // 4
    assert 2 * dim_prym == dim_orbit, "Prym dimension must be half the orbit"
    return {"dim_orbit": dim_orbit, "genus_C": genus_c,
            "genus_C0": genus_c0, "dim_prym": dim_prym}
