"""Built-in systems and pencils.

Vector-field systems ship as .ivf sources under laxkit/systems/ and are
parsed on demand.  Pencil constructors return (MatrixPencil, B) pairs for
integrate_lax's dA/dt = [B(A), A] convention.

The B contract: B(P) takes a pencil on the h-window of the pencil it was
returned with and gives a new MatrixPencil, built with
MatrixPencil.from_blocks on B's own fixed window (which may be narrower
than P's, as for the rank-2 pencils); it reads P's blocks as
P.blocks[k - P.lo] and never writes to them.  Each call fills one fresh
(K, n, n) block array with out= ufuncs and hands it over: no buffer is
reused across calls, so a caller may keep each result (rk4 keeps all
four stages of a step when it integrates dA/dt = B(A) itself, as the
non-commutator control does).  integrate_lax calls B four times per
step, so everything that does not depend on P (the constant blocks, the
metric ratios, the triangular masks) is computed once, when the pair is
built.

painleve_meta() carries the conventions that pin each built-in family to
its customary normalization: which weight vector is the principal one,
which balance symbol gets which name, and at which variable slot (and
with which scale) each resonance parameter enters.
"""
from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .laxflow import MatrixPencil
from .sysdsl import VectorFieldSystem, parse_system

_SYSTEM_FILES = {
    "kvm": "kvm5.ivf",
    "henon-heiles": "henon_heiles.ivf",
    "hh5": "hh5.ivf",
    "rdg": "rdg.ivf",
    "rdg5": "rdg5.ivf",
    "harmonic": "harmonic.ivf",
}


def builtin_system(name: str) -> VectorFieldSystem:
    try:
        fname = _SYSTEM_FILES[name]
    except KeyError:
        raise KeyError(f"unknown builtin system '{name}' "
                       f"(have {sorted(_SYSTEM_FILES)})") from None
    text = resources.files("laxkit.systems").joinpath(fname).read_text()
    return parse_system(text)


# ---------------------------------------------------------------------------
# Painlevé conventions for the built-ins
# ---------------------------------------------------------------------------

def painleve_meta(name: str) -> dict:
    """Normalization metadata consumed by painleve.analyze and the tests."""
    F = Fraction
    if name in ("henon-heiles",):
        return {
            "weights": (F(1, 2), F(2), F(3, 2), F(3)),
            "principal": lambda bal: "y1" in bal.free_symbols,
            "rename": {"y1": "alpha"},
            "resonance_names": ["beta", "gamma"],
            "resonance_slots": {4: ("y1", 1), 12: ("y2", -1)},
            "curve_invariants": ["H1", "H2"],
            "value_names": ["b1", "b2"],
            "order": 9,
        }
    if name in ("rdg",):
        return {
            "weights": (F(1, 2), F(1), F(3, 2), F(2)),
            "principal": lambda bal: "q1" in bal.free_symbols,
            "rename": {"q1": "u"},
            "resonance_names": ["v", "w"],
            "resonance_slots": {4: ("q1", 1), 8: ("q2", 1)},
            "curve_invariants": ["H1", "H2"],
            "value_names": ["b1", "b2"],
            "order": 7,
            "sheet": lambda bal: {"q2=1/2": "eps=+1",
                                  "q2=-1/2": "eps=-1"}.get(bal.label, bal.label),
        }
    if name in ("rdg5",):
        return {
            "weights": (F(2), F(1), F(2), F(3), F(4)),
            "principal": lambda bal: bal.label in ("z2=1/2", "z2=-1/2"),
            "rename": {},
            "resonance_names": ["alpha", "beta", "theta", "gamma"],
            "resonance_slots": {1: ("z1", 1), 3: ("z1", 1), 4: ("z2", 1),
                                5: ("z1", 1)},
            "curve_invariants": ["F1", "F2", "F3"],
            "value_names": ["c1", "c2", "c3"],
            "order": 9,
            "sheet": lambda bal: {"z2=1/2": "eps=+1",
                                  "z2=-1/2": "eps=-1"}.get(bal.label, bal.label),
        }
    if name in ("hh5",):
        return {
            "weights": (F(1), F(2), F(3), F(2), F(3)),
            "principal": lambda bal: "z1" in bal.free_symbols,
            "rename": {"z1": "alpha"},
            # series coefficients are rational in alpha; propagate a
            # generic specialization instead
            "specialize": {"alpha": 1},
            "order": 8,
        }
    if name == "kvm":
        return {
            "weights": (F(1),) * 5,
            "principal": lambda bal: sum(1 for z in bal.leading if z.is_zero) == 1,
            "rename": {},
            "order": 7,
        }
    if name == "harmonic":
        return {"order": 4}
    raise KeyError(f"no painleve metadata for '{name}'")


# ---------------------------------------------------------------------------
# Toda lattice pencils (Flaschka form)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# geodesic flow on SO(n) and the Manakov pencil
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# rank-2 perturbation pencils (sphere motion / geodesics on the ellipsoid)
# ---------------------------------------------------------------------------

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
# dispatch
# ---------------------------------------------------------------------------

def builtin(name: str, **params):
    """Named constructor: vector-field systems return a
    VectorFieldSystem; Lax systems return (MatrixPencil, B factory)."""
    if name in _SYSTEM_FILES:
        return builtin_system(name)
    if name == "toda-periodic":
        if "x" in params:
            a, b = flaschka(params["x"], params["y"])
        else:
            a, b = params["a"], params["b"]
        return toda_periodic_pencil(a, b)
    if name == "toda-open":
        return toda_open_pencil(params["a"], params["b"])
    if name == "euler-arnold":
        n = params.get("n", 4)
        al = params.get("alphas", list(range(1, n + 1)))
        be = params.get("betas", [v ** 2 for v in al])
        X0 = params.get("X0")
        if X0 is None:
            X0 = random_skew(n, seed=params.get("seed", 0))
        return euler_arnold_pencil(al, be, X0)
    if name == "manakov":
        n = params.get("n", 4)
        j_diag = params.get("j_diag", list(range(1, n + 1)))
        om = params.get("omega")
        if om is None:
            om = random_skew(n, seed=params.get("seed", 0))
        return manakov_pencil(j_diag, om)
    if name == "neumann":
        return neumann_pencil(params["alphas"], params["x"], params["y"])
    if name == "jacobi-geodesic":
        return jacobi_geodesic_pencil(params["alphas"], params["x"], params["y"])
    raise KeyError(f"unknown builtin '{name}'")
