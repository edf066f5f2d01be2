"""Lax pencils: characteristic curves, isospectral integration and
conservation diagnostics, Poisson-bracket checks, and the dimension
arithmetic of the free rigid body.

Flow convention: integrate_lax solves dA/dt = [B(A), A] with the
commutator taken per h-degree, [A, B]_k = sum_{i+j=k} [A_i, B_j].  Every
flow of the package (Lax pencils, polynomial vector fields, the Jacobi
lattice) steps through the one classical fixed-step fourth-order kernel
`rk4`, so conservation errors have a reproducible dt^4 baseline.  Its
caller makes the step, whose size dt must divide the horizon t_end into
whole steps.  Its state is an ndarray for a Lax pencil's blocks and a
list of Python floats for the lattice and the vector fields, whose few
entries cost less without numpy in generated straight-line code: one
generator, _list_step, writes a whole RK4 step per lattice period and
per vector-field shape, with its four right-hand sides and three stages
inline.  A Lax flow's step is integrate_lax's buffered four-stage
composition, every stage written into a buffer the run owns;
composed_step composes any other ndarray rhs, and every step keeps that
composition's bits.

Pencils are float: a MatrixPencil holds the blocks A_lo..A_hi of its
h-window in one (K, n, n) array.  Exact spectral curves come from plain
{k: matrix of Fractions} dicts, which pencil_charpoly evaluates exactly.
The built-in Lax pairs (periodic and open Toda, Euler-Arnold, Manakov,
Neumann, Jacobi geodesics) are built here too, by factories that return
a pencil and its B.  LAX_FLOWS is the one table of the Lax flows that
`laxkit flow` runs (toda-periodic, euler-arnold, neumann): a LaxFlow row
per builtin holds its smallest moving N, its seeded start, its drift
h-samples and its CSV columns.

The commutator is the hot path of every Lax flow (one per RK4 stage).  It
forms all block commutators [A_i, B_j] in two stacked matmuls and one
subtraction, then adds them into each h-degree in order of increasing i,
starting from zeros, so every entry rounds as in a plain double loop over
the block pairs.  Pairs whose degree falls outside the requested window
are not dropped silently: each must vanish up to roundoff, or SpillError
(a ValueError) reports a malformed B or a flow off its window.
integrate_lax builds one kernel per block layout of B's pencils
(_commutator_plan) that owns its product buffers and outside entries and
sums each stage straight into that stage's k buffer, so a stage spends
its numpy calls on the blocks alone; MatrixPencil.commutator runs the
same kernel, built for the one call, into a fresh array.  A factory's B
is declared as data (_AffineB), which integrate_lax writes into one
buffer per run instead of calling B.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactalg import MultiPoly, Q
from .sysdsl import VectorFieldSystem, gradient


class BlowUpError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"flow blew up near t = {t}")
        self.time = t


# ---------------------------------------------------------------------------
# pencils
# ---------------------------------------------------------------------------

class SpillError(ValueError):
    """[B(A), A] reaches an h-degree outside A's window by more than
    roundoff: B is malformed, or the flow has drifted off its window (a
    step so large that roundoff moves a block B reads).  `laxkit flow`
    reports it as a numerical breakdown."""


def _commutator_plan(ka: int, kb: int, lo: int, window: Tuple[int, int], n: int
                     ) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The kernel (A, B, out) -> out, which sums the blocks of [A, B] on
    the h-window `window` into `out` for ka and kb blocks of n x n, pair
    (i, j) of degree lo + i + j.  What does not depend on the blocks is
    laid out once and owned by the kernel: the product buffers, the views
    that add each block's pairs into the degree sums (one per i, in
    increasing i, onto `out` zeroed per call; sliced once per output
    buffer, which the kernel keeps) and the entries of the pairs outside
    the window.  integrate_lax hands each stage its own k buffer,
    MatrixPencil.commutator a fresh array."""
    wlo, whi = window
    base = lo - wlo
    size = whi - wlo + 1
    prod, swap = np.empty((2, ka, kb, n, n))
    adds = []
    for i in range(ka):
        j0, j1 = max(0, -base - i), min(kb, size - base - i)
        if j0 < j1:
            adds.append((base + i + j0, base + i + j1, prod[i, j0:j1]))
    deg = lo + np.add.outer(np.arange(ka), np.arange(kb))
    oi, oj = np.nonzero((deg < wlo) | (deg > whi))
    entries = ((oi * kb + oj)[:, None] * (n * n) + np.arange(n * n)).ravel()
    flat = prod.reshape(-1)
    # id(out) -> (out, [(slice of out, pairs)] per add): holding out keeps
    # its id from being reused while its views are stored
    bound = {}

    def kernel(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
        Ai = A[:, None]
        np.matmul(Ai, B, out=prod)
        np.matmul(B, Ai, out=swap)
        np.subtract(prod, swap, out=prod)
        views = bound.get(id(out))
        if views is None:
            views = bound[id(out)] = (out, [(out[d0:d1], src) for d0, d1, src in adds])
        out.fill(0.0)
        for dst, src in views[1]:
            dst += src
        # no pair can fail while every outside entry is within 1e-10: a sum
        # of squares <= 5e-21 bounds each by 7.1e-11, with room for its
        # rounding (a NaN skips the test, as it skipped the max it replaces)
        spill = flat[entries]
        if spill @ spill > 5e-21:
            worst = np.max(np.abs(prod[oi, oj]), axis=(1, 2))
            scale = np.outer(np.max(np.abs(A), axis=(1, 2)),
                             np.max(np.abs(B), axis=(1, 2)))[oi, oj]
            bad = (worst > 1e-10) & (worst > 1e-10 * (1 + scale))
            if bad.any():
                k = int(deg[oi, oj][np.argmax(bad)])
                raise SpillError(
                    f"commutator spills h^{k} outside the declared window")
        return out
    return kernel


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
        the product reaches), by the flows' kernel, built for this call.

        Two stacked matmuls form every block commutator
        C[i, j] = [A_(lo+i), B_(other.lo+j)] at once.  Degree k of the
        result is then the sum of its C[i, j] in order of increasing i,
        starting from zeros: one slice-add per block of `self`.  A pair
        whose degree falls outside the window must vanish up to roundoff,
        max|C| <= 1e-10 * (1 + max|A| * max|B|), or SpillError (a
        ValueError) names the degree of the first such pair in (i, j) order."""
        wlo, whi = window or (self.lo + other.lo, self.h_range[1] + other.h_range[1])
        kernel = _commutator_plan(len(self.blocks), len(other.blocks),
                                  self.lo + other.lo, (wlo, whi), self.dim)
        out = np.empty((whi - wlo + 1, self.dim, self.dim))
        return MatrixPencil.from_blocks(wlo, kernel(self.blocks, other.blocks, out))

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
# dA/dt = [B(A), A] convention.  The B contract: B(P) takes a pencil on
# the h-window of the pencil it was returned with and gives a new
# MatrixPencil, built with MatrixPencil.from_blocks on B's own fixed
# window (which may be narrower than P's, as for the rank-2 pencils); it
# reads P's blocks as P.blocks[k - P.lo] and never writes to them
# (integrate_lax hands it a read-only view of a stage buffer, so a P kept
# past the call shows later stages).  Each call fills one fresh (K, n, n)
# block array and hands it over: no buffer is reused across calls, so a
# caller may keep each result (composed_step keeps all four stages of a
# step of the non-commutator control dA/dt = B(A)).  Everything that does
# not depend on P (the constant blocks, the metric ratios, the triangular
# masks) is computed once, when the pair is built.  The factories' Bs
# (_toda_b, _metric_b) are declared as data, an _AffineB: entrywise
# W * x + Z on a range of P's blocks and constant blocks elsewhere.  B(P)
# evaluates that into a fresh array, and integrate_lax writes it into its
# run's one B buffer at every stage, constant blocks once per run; any
# other B (manakov_pencil's divides) is called per stage.


class _AffineB:
    """B(P) = the pencil on h^lo.. whose blocks are `const` except for
    blocks[part] = W * P.blocks[src] + Z, entrywise.  Z pins the sign of
    each zero: -0.0 (x + -0.0 is x, zeros included) where B copies or
    negates an entry, +0.0 where it writes 0 - x or a zero; None where
    W * x alone has B's bits.  The arrays (W of the part's shape, so no
    broadcast) are read-only and shared by B(P) and integrate_lax's
    in-place write, so both round alike."""

    def __init__(self, lo: int, const: np.ndarray, part: slice, src: slice,
                 W: np.ndarray, Z: Optional[np.ndarray]):
        for arr in (const, W, Z):
            if arr is not None:
                arr.flags.writeable = False
        self.lo, self.const, self.part, self.src = lo, const, part, src
        self.W, self.Z = W, Z

    def write(self, blocks: np.ndarray, dst: np.ndarray) -> None:
        """dst = W * blocks[src] + Z, dst being out[part] of B's blocks."""
        np.multiply(blocks[self.src], self.W, out=dst)
        if self.Z is not None:
            np.add(dst, self.Z, out=dst)

    def __call__(self, P: MatrixPencil) -> MatrixPencil:
        out = self.const.copy()
        self.write(P.blocks, out[self.part])
        return MatrixPencil.from_blocks(self.lo, out)


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


def _toda_b(lo: int, K: int, n: int) -> _AffineB:
    """The Toda B of a pencil with K blocks of n x n from h^lo on: -A_k
    for k < 0, np.triu(A_0, 1) - np.tril(A_0, -1), and A_k for k > 0 (the
    upper-minus-lower splitting of the doubly infinite matrix, where the
    h^-1 corner block sits below the diagonal and h^+1 above).  As one
    multiply and one add on every block: W = -1 and Z = -0.0 for k < 0;
    W = 1 and Z = -0.0 for k > 0 and above A_0's diagonal; W = 0 and
    Z = +0.0 on it (+0.0 for a finite entry of either sign); W = -1 and
    Z = +0.0 below it, which rounds as 0 - x (+0.0 for a zero of either
    sign)."""
    deg = np.arange(lo, lo + K)[:, None, None]
    below = np.tri(n, n, -1)
    above = 1.0 - np.tri(n, n, 0)
    W = np.where(deg < 0, -1.0, np.where(deg > 0, 1.0, above - below))
    Z = np.where((deg == 0) & (above == 0), 0.0, -0.0)
    return _AffineB(lo, np.zeros((K, n, n)), slice(0, K), slice(0, K), W, Z)


def toda_periodic_pencil(a: Sequence, b: Sequence
                         ) -> Tuple[MatrixPencil, Callable[[MatrixPencil], MatrixPencil]]:
    """Periodic Toda Lax pair: the float pencil of toda_periodic_coeffs and
    B(h), its antisymmetrized counterpart; the flow dA/dt = [B(A), A] is
    the lattice ȧ_j = a_j(b_{j+1}-b_j), ḃ_j = 2(a_j^2 - a_{j-1}^2)."""
    pencil = MatrixPencil(toda_periodic_coeffs(a, b))
    return pencil, _toda_b(-1, 3, pencil.dim)


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
    return MatrixPencil({0: A0}), _toda_b(0, 1, n)


def _lattice_entries(n: int, y: Sequence[str], sq: Sequence[str]) -> List[str]:
    """The 2n entries a_j (b_(j+1) - b_j), then 2 (a_j^2 - a_(j-1)^2), of
    the periodic lattice ODE in Flaschka variables (index mod n) at the
    state whose entries are the expressions y (a_1..a_n, b_1..b_n), with
    sq[j] the expression of a_j ** 2."""
    # `** 2` and the int 2 stay for bit identity with the golden reports:
    # Python's x ** 2 rounds as numpy's scalar x ** 2 does, where x * x and
    # numpy's array a ** 2 differ in the last bit on some inputs
    return ([f"{y[j]} * ({y[n + (j + 1) % n]} - {y[n + j]})" for j in range(n)]
            + [f"2 * ({sq[j]} - {sq[(j - 1) % n]})" for j in range(n)])


def _list_step(m: int, stage_rhs: Callable[[int, List[str]], Tuple[List[str], List[str]]],
               params: int = 0) -> Callable:
    """make(p0, .., p_(params-1), h, dt, c) -> step: the one generator of
    a list state's whole RK4 step, for m floats at h = dt/2 and c = dt/6.
    stage_rhs(r, x) gives stage r's prelude lines and m right-hand-side
    entries at the state expressions x; data (a vector field's
    coefficients) enters as the parameters p_t, never the source.  The
    step runs the four stages inline on locals, with the composition's
    entries y + c k and y + c (k1 + 2 k2 + 2 k3 + k4)."""
    y = [f"y{i}" for i in range(m)]
    lines = [f"{', '.join(y)}, = y"]
    ks = []
    x = y                                   # the state of the current stage
    for r, c in enumerate(("h", "h", "dt", None), 1):
        prelude, entries = stage_rhs(r, x)
        k = [f"k{r}_{i}" for i in range(m)]
        lines += prelude + [f"{v} = {e}" for v, e in zip(k, entries)]
        ks.append(k)
        if c is not None:
            x = [f"x{r + 1}_{i}" for i in range(m)]
            lines += [f"{v} = {y0} + {c} * {kv}" for v, y0, kv in zip(x, y, k)]
    out = ", ".join(f"{y0} + c * ({k1} + 2 * {k2} + 2 * {k3} + {k4})"
                    for y0, k1, k2, k3, k4 in zip(y, *ks))
    body = "\n".join(f"        {line}" for line in lines + [f"return [{out}]"])
    args = "".join(f"p{t}, " for t in range(params))
    scope: Dict[str, object] = {}
    exec(f"def make({args}h, dt, c):\n    def step(y):\n{body}\n    return step", scope)
    return scope["make"]


@functools.lru_cache(maxsize=32)
def _lattice_step(n: int) -> Callable[[float, float, float], Callable]:
    """make(h, dt, c) -> step: _list_step's RK4 step of the lattice, one
    per period.  Each stage's prelude computes a_j ** 2 once for both
    entries that read it; every other operation is _lattice_entries', in
    its order, so the step rounds as their four-stage composition does."""
    def stage(r, x):
        sq = [f"s{r}_{j}" for j in range(n)]
        return [f"{v} = {a} ** 2" for v, a in zip(sq, x)], _lattice_entries(n, x, sq)
    return _list_step(2 * n, stage)


@functools.lru_cache(maxsize=32)
def _field_step(shape: Tuple) -> Callable:
    """make(p0, .., h, dt, c) -> step: _list_step's RK4 step of a vector
    field, one per shape.  shape[i] is equation i's terms, each the factors
    (j, e) of z_j ** e in key order, or None: eval_num's own evaluation, a
    parameter called on the stage's state.  Another entry is eval_num's sum
    in its order, 0.0 plus each coefficient (the next parameter) times its
    factors."""
    p = [f"p{t}" for t in range(sum(1 if ts is None else len(ts) for ts in shape))]

    def stage(r, x):
        t = iter(p)
        return [], [f"{next(t)}({', '.join(x)})" if terms is None else " + ".join(
            ["0.0"] + [" * ".join([next(t)] + [f"{x[j]} ** {e}" for j, e in key])
                       for key in terms]) for terms in shape]
    return _list_step(len(shape), stage, len(p))


# geodesic flow on SO(n) and the Manakov pencil

def random_skew(n: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = rng.uniform(-scale, scale, size=(n, n))
    return (M - M.T) / 2


def _metric_b(al: np.ndarray, be: np.ndarray, k: int) -> _AffineB:
    """The B of a pencil from h^0 on: -(ratio * P_k) - diag(beta) h, where
    ratio_ij = (beta_i - beta_j)/(alpha_i - alpha_j) off the diagonal and 0
    on it, the B of the Euler-Arnold (k = 0) and rank-2 (k = 1) pencils.
    W = -ratio, since (-ratio) * x rounds as -(ratio * x), the sign of
    every zero included, so there is no Z; the h^1 block is constant."""
    n = len(al)
    ratio = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ratio[i, j] = (be[i] - be[j]) / (al[i] - al[j])
    const = np.zeros((2, n, n))
    const[1] = -np.diag(be)
    return _AffineB(0, const, slice(0, 1), slice(k, k + 1), -ratio[None], None)


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


# the Lax flows of `laxkit flow`

@dataclass(frozen=True, eq=False)
class LaxFlow:
    """A Lax builtin of `laxkit flow`: its smallest moving N; its start
    (N, seed) -> (pencil, B, report fields), drawn from default_rng(seed);
    the h of its drift's tr A(h)^k, k <= N; its CSV columns after t and
    their values at a pencil; whether it reports the curve's drift.  It
    holds no function perfbench's tracer rebinds: cmd_flow calls those."""
    min_n: int
    start: Callable[[int, int], Tuple[MatrixPencil, Callable, Dict[str, object]]]
    h_samples: Tuple[float, ...]
    columns: Callable[[int], List[str]]
    row: Callable[[MatrixPencil], List[float]]
    reports_curve: bool = False


def _toda_start(n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = list(rng.uniform(0.6, 1.4, n))
    b = list(rng.uniform(-0.5, 0.5, n))
    return (*toda_periodic_pencil(a, b), {})


def _toda_row(P: MatrixPencil) -> List[float]:
    """a_1..a_N (a_N from the h^+1 corner), then b_1..b_N."""
    A0, n = P.coeffs[0], P.dim
    return ([float(A0[j, j + 1]) for j in range(n - 1)] + [float(P.coeffs[1][n - 1, 0])]
            + [float(A0[j, j]) for j in range(n)])


def _euler_arnold_start(n: int, seed: int):
    al = list(range(1, n + 1))
    return (*euler_arnold_pencil(al, [v ** 2 for v in al], random_skew(n, seed=seed)), {})


def _neumann_start(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x = x / np.linalg.norm(x)
    y = rng.normal(size=n)
    y -= (y @ x) * x
    alphas = list(range(1, n + 1))
    return (*neumann_pencil(alphas, x, y),
            {"branch_points": list(map(float, neumann_branch_points(alphas, x, y))),
             "branch_count_with_infinity": 2 * n})


# min_n: for N = 2 the euler-arnold flow is static ([X, lam*X] = 0 for a
# 2 x 2 skew X), and so is neumann for N = 1 (a point of S^0)
LAX_FLOWS: Dict[str, LaxFlow] = {
    "toda-periodic": LaxFlow(
        min_n=2, start=_toda_start, h_samples=(1.0, -1.0, 0.5, 2.0),
        columns=lambda n: [f"a{j + 1}" for j in range(n)] + [f"b{j + 1}" for j in range(n)],
        row=_toda_row, reports_curve=True),
    "euler-arnold": LaxFlow(
        min_n=3, start=_euler_arnold_start, h_samples=(1.0, -1.0, 0.5),
        columns=lambda n: ["tr_X2"],
        row=lambda P: [float(np.trace(P.coeffs[0] @ P.coeffs[0]))]),
    "neumann": LaxFlow(
        min_n=2, start=_neumann_start, h_samples=(1.0, -1.0, 2.0),
        columns=lambda n: ["norm"], row=lambda P: [P.norm()]),
}


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

@dataclass
class SpectralCurve:
    """det(A(h) - zI) as a dict (z_degree, h_degree) -> coefficient."""
    coeffs: Dict[Tuple[int, int], object]
    dim: int

    def drop_small(self, tol: float = 1e-9) -> "SpectralCurve":
        return SpectralCurve({k: v for k, v in self.coeffs.items()
                              if abs(float(v)) > tol}, self.dim)

    def max_coeff_difference(self, other: "SpectralCurve") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return _max_of([abs(float(self.coeffs.get(k, 0)) - float(other.coeffs.get(k, 0)))
                        for k in keys])


def _max_of(values: List[float]) -> float:
    """max(values, default=0.0), NaN if one is NaN (Python's max skips it)."""
    return float(np.max(values, initial=0.0))


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
    if isinstance(p, MatrixPencil):
        return _float_charpoly(p)
    from .exactalg import charpoly_exact, solve_square_exact
    blocks = {k: [[Q(x) for x in row] for row in M] for k, M in p.items()}
    n = len(next(iter(blocks.values())))
    lo, hi = min(min(blocks), 0), max(max(blocks), 0)
    nodes = _h_nodes(n * (hi - lo) + 1)
    sign = Fraction(-1) ** n   # det(A - zI) = (-1)^n * charpoly(z)
    rows = []
    for h0 in nodes:
        A = [[sum((M[i][j] * h0 ** k for k, M in blocks.items()), Fraction(0))
              for j in range(n)] for i in range(n)]
        cp = charpoly_exact([[MultiPoly.const(x) for x in row] for row in A])
        rows.append([sign * c.const_value() for c in cp])
    coeffs: Dict[Tuple[int, int], object] = {}
    for k in range(n + 1):
        wlo, m = (n - k) * lo, (n - k) * (hi - lo) + 1
        V = [[nodes[r] ** (wlo + c) for c in range(m)] for r in range(m)]
        sol = solve_square_exact(V, [rows[r][k] for r in range(m)])
        for c in range(m):
            v = sol[c].const_value()
            if v != 0:
                coeffs[(k, wlo + c)] = v
    return SpectralCurve(coeffs, n)


@functools.lru_cache(maxsize=32)
def _float_samples(n: int, plo: int, phi: int):
    """The float curve's node powers h0 ** k (a row per degree k of an n x n
    pencil on plo..phi, as MatrixPencil.evaluate takes them) and, per
    z-degree, its window's lowest h-degree and Vandermonde matrix; read-only."""
    lo, hi = min(plo, 0), max(phi, 0)
    nodes = [float(h) for h in _h_nodes(n * (hi - lo) + 1)]
    powers = np.array([[h ** k for h in nodes] for k in range(plo, phi + 1)])
    powers.flags.writeable = False
    vander = []
    for k in range(n + 1):
        wlo, m = (n - k) * lo, (n - k) * (hi - lo) + 1
        V = np.array([[h ** (wlo + c) for c in range(m)] for h in nodes[:m]])
        V.flags.writeable = False
        vander.append((wlo, V))
    return powers, tuple(vander)


def _float_charpoly(p: MatrixPencil) -> SpectralCurve:
    n = p.dim
    powers, vander = _float_samples(n, *p.h_range)
    # A(h) at all nodes at once, summed over k from zeros as evaluate sums
    X = np.zeros((powers.shape[1], n, n))
    for A, hk in zip(p.blocks, powers):
        X += A * hk[:, None, None]
    # one eigvals call for all nodes; ascending in z of det(zI - A)
    rows = [(-1.0) ** n * np.poly(z)[::-1] for z in np.linalg.eigvals(X)]
    coeffs: Dict[Tuple[int, int], object] = {}
    for k, (wlo, V) in enumerate(vander):
        sol = np.linalg.solve(V, np.array([row[k] for row in rows[:len(V)]], dtype=float))
        for c, v in enumerate(sol, wlo):
            if abs(v) > 1e-9:
                coeffs[(k, c)] = v
    return SpectralCurve(coeffs, n)


# ---------------------------------------------------------------------------
# Lax integration
# ---------------------------------------------------------------------------

# the most steps one flow may take: a step far below its horizon (say
# --dt 1e-300) is refused at once instead of running without end
MAX_STEPS = 10 ** 6
# the max-norm past which integrate_lax and integrate_system call a state
# blown up
BLOWUP = 1e8


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


# an rk4 state, and an ndarray's two combinations of the stages
State = Union[np.ndarray, List[float]]


def _stage_array(y: np.ndarray, c: float, k: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """y + c k, into `out` (a fresh array when None)."""
    return np.add(y, np.multiply(c, k, out=out), out=out)


def _step_array(y: np.ndarray, c: float, k1: np.ndarray, k2: np.ndarray,
                k3: np.ndarray, k4: np.ndarray, t: Optional[np.ndarray] = None,
                u: Optional[np.ndarray] = None) -> np.ndarray:
    """y + c (k1 + 2 k2 + 2 k3 + k4), term by term in that order, with the
    sum in `t` and 2 k3 in `u` (fresh arrays when None); 2 k is formed as
    k + k, which is exact as 2 * k is.  The result is always a fresh
    array, since rk4 keeps sampled states."""
    s = np.add(k1, np.add(k2, k2, out=t), out=t)
    s = np.add(s, np.add(k3, k3, out=u), out=t)
    s = np.add(s, k4, out=t)
    return np.add(y, np.multiply(c, s, out=t))


def _top_array(y: np.ndarray) -> float:
    # one reduction over every axis: a NaN anywhere makes the max NaN
    return np.maximum.reduce(np.abs(y), axis=None)


def _top_list(y: List[float]) -> float:
    # a finite sum rules out NaN and inf, which Python's max could pass over
    if math.isfinite(sum(y)):
        return max(map(abs, y))
    return _top_array(y)


def _four_stages(rhs: Sequence[Callable[[np.ndarray], np.ndarray]], stage: Callable,
                 advance: Callable, h: float, dt: float, c: float
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """The RK4 step y -> y + c (k1 + 2 k2 + 2 k3 + k4) at h = dt/2 and
    c = dt/6 from the four stages' right-hand sides rhs[0..3] and the
    ndarray combinations (fresh, or into integrate_lax's buffers).  h, dt
    and c enter as 0-d arrays, faster numpy factors than floats, same bits."""
    rhs1, rhs2, rhs3, rhs4 = rhs
    h, dt, c = map(np.array, (h, dt, c))

    def step(y: np.ndarray) -> np.ndarray:
        k1 = rhs1(y)
        k2 = rhs2(stage(y, h, k1))
        k3 = rhs3(stage(y, h, k2))
        k4 = rhs4(stage(y, dt, k3))
        return advance(y, c, k1, k2, k3, k4)
    return step


def composed_step(rhs: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """make(h, dt, c) -> step: the RK4 step of y' = rhs(y) on an ndarray
    state, four calls of rhs combined into fresh arrays."""
    return functools.partial(_four_stages, (rhs,) * 4, _stage_array, _step_array)


def rk4(make_step: Callable[[float, float, float], Callable[[State], State]],
        y0: State, t_end: float, dt: float, sample_every: int, blowup: float
        ) -> Tuple[List[float], List[State]]:
    """Classical fixed-step fourth-order integration from y0 by the step
    that make_step(dt/2, dt, dt/6) builds once, taken once per dt.

    A list of Python floats (the Jacobi lattice, a vector field) steps
    through a step of _list_step, a pencil's blocks through integrate_lax's
    buffered one, any other ndarray through composed_step(rhs).  Each keeps
    the bits of the four-stage composition with the fresh-array
    combinations y + c k and y + c (k1 + 2 k2 + 2 k3 + k4) (Python floats
    round as numpy float64 does); the blow-up test's max-norm, exact
    either way, is chosen by the state's kind.

    Returns the sample times and states: t = 0 (y0 itself), every
    `sample_every`-th step and the last step, each at t = step * dt.
    Raises BlowUpError when the state stops being finite or its max-norm
    exceeds `blowup`, or when the step raises OverflowError (Python float
    `**` raises where numpy returns inf), and ValueError unless dt divides
    t_end (steps_for).
    """
    steps = steps_for(t_end, dt)
    step = make_step(dt / 2, dt, dt / 6)
    top_abs = _top_list if isinstance(y0, list) else _top_array
    y = y0
    times = [0.0]
    states = [y]
    for s in range(steps):
        try:
            y = step(y)
        except OverflowError as exc:
            raise BlowUpError((s + 1) * dt) from exc
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

    def final(self) -> MatrixPencil:
        return self.pencils[-1]


def integrate_lax(p0: MatrixPencil, B: Callable[[MatrixPencil], MatrixPencil],
                  t_end: float, dt: float, sample_every: int = 10) -> LaxTrajectory:
    """rk4 on dA/dt = [B(A), A] over the h-window of p0.

    Deterministic for a given (p0, dt); aborts with BlowUpError when the
    max-norm of the state exceeds BLOWUP, and with SpillError (a
    ValueError) when the commutator spills outside the window (a
    malformed B, or a flow driven off its window by a step too large).

    rk4 takes one buffered RK4 step, _four_stages' composition, which
    integrate_lax makes.  The run owns its buffers: one per k (stage j
    sums its commutator straight into k_j), the stage state, the two
    temporaries of the advance, and one for B's blocks.  A factory's B
    (an _AffineB) is written into that buffer, its constant blocks once,
    under one commutator kernel; any other B is called on a read-only
    view of the stage's state, its result summed by one kernel per
    (lo, block count).  Only the advanced state is a fresh array.  Every
    operation is the one the fresh-array composition performs, in its
    order, so the flow keeps its bits.
    """
    lo, window = p0.lo, p0.h_range
    kb, n = p0.blocks.shape[:2]
    ks = np.empty((4, kb, n, n))
    s, t, u = np.empty((3, kb, n, n))

    if isinstance(B, _AffineB):
        bb = B.const.copy()
        dst, write = bb[B.part], B.write
        kernel = _commutator_plan(len(bb), kb, B.lo + lo, window, n)

        def stage_rhs(k):
            def rhs(y):
                write(y, dst)
                return kernel(bb, y, k)
            return rhs
    else:
        plans = {}   # one commutator kernel per (lo, block count) of B's pencils

        def stage_rhs(k):
            def rhs(y):
                Q = B(MatrixPencil.from_blocks(lo, y.view()))
                key = (Q.lo, len(Q.blocks))
                kernel = plans.get(key)
                if kernel is None:
                    kernel = plans[key] = _commutator_plan(key[1], kb, Q.lo + lo,
                                                           window, n)
                return kernel(Q.blocks, y, k)
            return rhs

    make_step = functools.partial(_four_stages, [stage_rhs(k) for k in ks],
                                  functools.partial(_stage_array, out=s),
                                  functools.partial(_step_array, t=t, u=u))
    times, states = rk4(make_step, p0.blocks, t_end, dt, sample_every, BLOWUP)
    return LaxTrajectory(times=times,
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
    return _max_of([abs(a - b) for P in traj.pencils[1:] for h in h_samples
                    for a, b in zip(trace_powers(P, h, k_max), base[h])])


def curve_drift(traj: LaxTrajectory) -> float:
    """Max coefficient drift of the interpolated spectral curve."""
    base = pencil_charpoly(traj.pencils[0])
    return _max_of([base.max_coeff_difference(pencil_charpoly(P))
                    for P in traj.pencils[1:]])


# ---------------------------------------------------------------------------
# direct integration of polynomial vector fields
# ---------------------------------------------------------------------------

def integrate_system(sys: VectorFieldSystem, z0: Sequence[float], t_end: float,
                     dt: float, sample_every: int = 50):
    """rk4 on z' = f(z) from a list of z0's floats; returns (times, states
    ndarray).  The step rk4 takes is _field_step's, eval_num's sums written
    out; an equation with a symbol that is no variable (henon-heiles's A)
    or a coefficient past float range stays on eval_num, raising as it does."""
    names = list(sys.variables)
    index = {v: j for j, v in enumerate(names)}
    shape, params = [], []
    for f in sys.equations:
        try:
            coeffs = [float(c) for c in f.terms.values()]
            shape.append(tuple(tuple((index[v], e) for v, e in key) for key in f.terms))
            params += coeffs
        except (KeyError, OverflowError):
            shape.append(None)
            params.append(lambda *z, f=f: f.eval_num(dict(zip(names, z))))

    times, states = rk4(functools.partial(_field_step(tuple(shape)), *params),
                        [float(x) for x in z0], t_end, dt, sample_every, BLOWUP)
    return times, np.array(states)


def invariant_drift(sys: VectorFieldSystem, times, states) -> Dict[str, float]:
    out = {}
    for nm, H in sys.invariants.items():
        vals = [H.eval_num(dict(zip(sys.variables, z))) for z in states]
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
        # exact mode draws up to 64 points to find a rational witness
        draws = ((rand_point() for _ in range(64)) if exact_mode
                 else pts or [rand_point() for _ in range(n_points)])
        for pt in draws:
            env = dict(zip(sys.variables, pt))
            for c in sys.constants:
                env.setdefault(c, Q(1))
            v = cyc.eval_exact(env)
            if v != 0:
                witnesses.append((label, [str(x) for x in pt], str(v)))
                break
        else:
            if exact_mode:
                witnesses.append((label, None, "nonzero polynomial"))
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
