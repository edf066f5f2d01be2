"""Lax pencils: characteristic curves, isospectral integration and
conservation diagnostics, Poisson-bracket checks, and the dimension
arithmetic of the free rigid body.

Flow convention: integrate_lax solves dA/dt = [B(A), A] with the
commutator taken per h-degree, [A, B]_k = sum_{i+j=k} [A_i, B_j].  Every
flow of the package (Lax pencils, polynomial vector fields, the Jacobi
lattice) steps through the one classical fixed-step fourth-order kernel
`rk4`, so conservation errors have a reproducible dt^4 baseline.  Its
step dt must divide the horizon t_end into whole steps.

Pencils are float: a MatrixPencil holds the blocks A_lo..A_hi of its
h-window in one (K, n, n) array.  Exact spectral curves come from plain
{k: matrix of Fractions} dicts, which pencil_charpoly evaluates exactly.

The commutator is the hot path of every Lax flow (one per RK4 stage).  It
forms all block commutators [A_i, B_j] in one stacked matmul, then adds
them into each h-degree in order of increasing i, starting from zeros, so
every entry rounds as in a plain double loop over the block pairs.  Pairs
whose degree falls outside the requested window are not dropped silently:
each must vanish up to roundoff, or ValueError reports a malformed B.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactalg import MultiPoly, Q, charpoly_exact
from .exactalg.linalg import solve_linear_fractions
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
    one per i in increasing order; the (ka, kb) mask of the pairs outside,
    or None if there are none; and the index of each outside pair, in
    (i, j) order.  Cached, and so read-only: a flow asks for the same
    layout at every stage."""
    adds = []
    for i in range(ka):
        j0, j1 = max(0, -base - i), min(kb, width - base - i)
        if j0 < j1:
            adds.append((i, slice(base + i + j0, base + i + j1), slice(j0, j1)))
    pos = base + np.add.outer(np.arange(ka), np.arange(kb))
    outside = (pos < 0) | (pos >= width)
    spill_pos = pos[outside]
    outside.flags.writeable = spill_pos.flags.writeable = False
    return tuple(adds), (outside if outside.any() else None), spill_pos


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
        out = np.zeros((whi - wlo + 1, self.dim, self.dim))
        C = A[:, None] @ B[None, :] - B[None, :] @ A[:, None]
        adds, outside, spill_pos = _pair_layout(
            len(A), len(B), self.lo + other.lo - wlo, len(out))
        for i, dst, src in adds:
            out[dst] += C[i, src]
        if outside is not None:
            spill_blocks = np.abs(C[outside])
            # no pair can fail while every entry is within 1e-10
            if np.max(spill_blocks) > 1e-10:
                spill = np.max(spill_blocks, axis=(1, 2))
                scale = np.outer(np.max(np.abs(A), axis=(1, 2)),
                                 np.max(np.abs(B), axis=(1, 2)))[outside]
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
            sol, _ = solve_linear_fractions(V, rhs)
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

def steps_for(t_end: float, dt: float) -> int:
    """Number of steps of size dt that reach t_end.  ValueError unless dt
    divides t_end into a positive whole number of steps, to 1e-9
    relative: a flow never stops short of or runs past its horizon, and
    never takes zero steps."""
    if not dt > 0:
        raise ValueError("step size must be positive")
    ratio = t_end / dt
    steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * abs(t_end):
        raise ValueError(f"dt = {dt} does not divide t_end = {t_end} "
                         "into a positive whole number of steps")
    return steps


def rk4(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, t_end: float,
        dt: float, sample_every: int, blowup: float
        ) -> Tuple[List[float], List[np.ndarray]]:
    """Classical fixed-step fourth-order integration of y' = rhs(y).

    Returns the sample times and states: t = 0 (y0 itself), every
    `sample_every`-th step and the last step, each at t = step * dt.
    Raises BlowUpError when the state stops being finite or its max-norm
    exceeds `blowup`, and ValueError unless dt divides t_end (steps_for).
    """
    steps = steps_for(t_end, dt)
    y = y0
    times = [0.0]
    states = [y]
    for s in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > blowup:
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

    def rhs(z):
        env = dict(zip(names, z))
        env.update(consts)
        return np.array([f.eval_num(env) for f in fns])

    times, states = rk4(rhs, np.array(z0, dtype=float), t_end, dt,
                        sample_every, blowup)
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
