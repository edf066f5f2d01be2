"""Dense linear algebra over exact coefficient rings, plus float eigenvalues.

Matrices are lists of lists whose entries live in a commutative ring with
exact arithmetic (Fraction or MultiPoly; mixed entries are coerced to
MultiPoly).  Elimination is fraction-free (Bareiss), so the only divisions
performed are exact ring divisions.

Pivoting prefers constant entries.  When a pivot has to be a genuinely
symbolic polynomial it is treated as generically nonzero; every consumer
of these routines re-verifies its final answer exactly, so a failure of
genericity cannot go unnoticed.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .poly import MultiPoly
from .roots import rational_roots

Mat = List[List[MultiPoly]]


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


def _coerce_matrix(M) -> Mat:
    return [[MultiPoly.coerce(x) for x in row] for row in M]


class RingMatrix:
    """Dense rectangular matrix over an exact coefficient ring.

    A light wrapper over list-of-lists entries (Fraction or MultiPoly)
    that enforces rectangularity and dimension-checked multiplication;
    the module-level routines accept either this or bare nested lists.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one entry")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix must be rectangular")
        self.entries = [[MultiPoly.coerce(x) for x in r] for r in rows]
        self.rows = len(rows)
        self.cols = width

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return self.rows

    def __matmul__(self, other):
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}")
            return RingMatrix(mat_mul(self.entries, other.entries))
        if self.cols != len(other):
            raise ValueError("vector length must equal the column count")
        return mat_vec(self.entries, other)

    def __eq__(self, other):
        if isinstance(other, RingMatrix):
            return self.entries == other.entries
        return NotImplemented

    def charpoly(self):
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial needs a square matrix")
        return charpoly_exact(self.entries)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        return det_exact(self.entries)


def mat_identity(n: int) -> Mat:
    return [[MultiPoly.const(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(A: Mat, B: Mat) -> Mat:
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = MultiPoly.zero()
            for t in range(k):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(A: Mat, v: Sequence) -> List[MultiPoly]:
    return [sum((A[i][j] * MultiPoly.coerce(v[j]) for j in range(len(v))),
                MultiPoly.zero()) for i in range(len(A))]


def mat_sub(A: Mat, B: Mat) -> Mat:
    return [[A[i][j] - B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def mat_scale(A: Mat, c) -> Mat:
    return [[x * c for x in row] for row in A]


def trace(A: Mat) -> MultiPoly:
    return sum((A[i][i] for i in range(len(A))), MultiPoly.zero())


def charpoly_exact(M) -> List[MultiPoly]:
    """Coefficients of det(xI - M), ascending in x, via Faddeev-LeVerrier.

    Works over any commutative Q-algebra; the leading coefficient is 1.
    """
    A = _coerce_matrix(M)
    n = len(A)
    coeffs = [MultiPoly.zero()] * (n + 1)
    coeffs[n] = MultiPoly.const(1)
    Mk = mat_identity(n)
    for k in range(1, n + 1):
        Mk = mat_mul(A, Mk)
        c = trace(Mk) * Fraction(-1, k)
        coeffs[n - k] = c
        for i in range(n):
            Mk[i][i] = Mk[i][i] + c
    return coeffs


def det_exact(M) -> MultiPoly:
    cp = charpoly_exact(M)
    n = len(M)
    d = cp[0]
    return d if n % 2 == 0 else -d


def solve_linear_fractions(rows: List[List[Fraction]], rhs: List[Fraction]):
    """Gaussian elimination over Q; returns (particular, nullspace basis)
    or None when inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_cols: List[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if A[i][n] != 0:
            return None
    part = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        part[c] = A[i][n]
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for i, c in enumerate(piv_cols):
            v[c] = -A[i][fcol]
        basis.append(v)
    return part, basis


def _pivot_choice(rows: Mat, col: int, start: int):
    """Row index of the preferred pivot in a column, or None."""
    best = None
    for r in range(start, len(rows)):
        x = rows[r][col]
        if x.is_zero:
            continue
        if x.is_constant:
            return r
        if best is None:
            best = r
    return best


def fraction_free_echelon(rows_in: Mat) -> Tuple[Mat, List[int]]:
    """Bareiss upper echelon form.  Returns (rows, pivot column list);
    pivot i sits at rows[i][pivots[i]]."""
    rows = [list(r) for r in _coerce_matrix(rows_in)]
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    pivots: List[int] = []
    prev = MultiPoly.const(1)
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        p = _pivot_choice(rows, c, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrow):
            if all(rows[i][j].is_zero for j in range(c, ncol)):
                continue
            fi = rows[i][c]
            for j in range(c, ncol):
                num = piv * rows[i][j] - fi * rows[r][j]
                rows[i][j] = num.exact_div(prev)
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots


def solve_square_exact(M, rhs) -> List[MultiPoly]:
    """Solve M x = rhs for square nonsingular M; raises if the solution is
    not polynomial over the entry ring (it always is over Fraction)."""
    n = len(M)
    aug = [[MultiPoly.coerce(M[i][j]) for j in range(n)] + [MultiPoly.coerce(rhs[i])]
           for i in range(n)]
    ech, pivots = fraction_free_echelon(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    x: List[MultiPoly] = [MultiPoly.zero()] * n
    for i in range(n - 1, -1, -1):
        c = pivots[i]
        s = ech[i][n]
        for j in range(i + 1, n):
            s = s - ech[i][pivots[j]] * x[pivots[j]]
        x[c] = s.exact_div(ech[i][c])
    return x


def solve_with_pins(M, rhs, pins) -> List[MultiPoly]:
    """Solve M x = rhs with the variables in `pins` (col -> value) fixed.

    Used at resonant steps where M is singular: pinning the kernel slots
    makes the reduced system solvable exactly when the Fredholm condition
    holds.  Raises InconsistentSystemError (with the offending reduced
    row) otherwise, SingularMatrixError if too few slots were pinned.
    """
    n = len(M)
    pinvals = {c: MultiPoly.coerce(v) for c, v in pins.items()}
    cols = [j for j in range(n) if j not in pinvals]
    aug = []
    for i in range(n):
        row = [MultiPoly.coerce(M[i][j]) for j in cols]
        r = MultiPoly.coerce(rhs[i])
        for c, v in pinvals.items():
            r = r - MultiPoly.coerce(M[i][c]) * v
        row.append(r)
        aug.append(row)
    ech, pivots = fraction_free_echelon(aug)
    m = len(cols)
    # a pivot landing in the rhs column means 0 = nonzero: inconsistent
    if m in pivots:
        i = pivots.index(m)
        raise InconsistentSystemError(
            "pinned linear system is inconsistent", certificate=ech[i][m])
    # likewise any all-zero coefficient row with nonzero rhs
    for i in range(len(pivots), n):
        if not ech[i][m].is_zero:
            raise InconsistentSystemError(
                "pinned linear system is inconsistent", certificate=ech[i][m])
    if len(pivots) < m:
        raise SingularMatrixError(
            "reduced system still singular (pin more kernel slots)")
    xred: List[MultiPoly] = [MultiPoly.zero()] * m
    for i in range(m - 1, -1, -1):
        c = pivots[i]
        s = ech[i][m]
        for j in range(i + 1, m):
            s = s - ech[i][pivots[j]] * xred[pivots[j]]
        xred[c] = s.exact_div(ech[i][c])
    out: List[MultiPoly] = []
    k = 0
    for j in range(n):
        if j in pinvals:
            out.append(pinvals[j])
        else:
            out.append(xred[k])
            k += 1
    return out


def solve_pinned(M, rhs, pin_col: int, pin_val) -> List[MultiPoly]:
    """Single-pin convenience wrapper around solve_with_pins."""
    return solve_with_pins(M, rhs, {pin_col: pin_val})


def kernel_free_columns(M) -> List[int]:
    """Columns of M not used as pivots (kernel directions live there)."""
    ech, pivots = fraction_free_echelon(_coerce_matrix(M))
    return [c for c in range(len(M[0])) if c not in pivots]


def _minor_det(A: Mat, drop_row: int, drop_col: int) -> MultiPoly:
    sub = [[A[i][j] for j in range(len(A)) if j != drop_col]
           for i in range(len(A)) if i != drop_row]
    if not sub:
        return MultiPoly.const(1)
    return det_exact(sub)


def adjugate_kernel_column(M) -> List[MultiPoly] | None:
    """A nonzero adjugate column of a singular M: a polynomial kernel
    vector whenever rank(M) = n-1.  Returns None if the adjugate is zero
    (which means the kernel has dimension >= 2)."""
    A = _coerce_matrix(M)
    n = len(A)
    for j in range(n):
        col = [(_minor_det(A, j, i) * ((-1) ** (i + j))) for i in range(n)]
        if any(not x.is_zero for x in col):
            return col
    return None


def left_kernel_vector(M) -> List[MultiPoly] | None:
    """One left null vector of M (w such that w M = 0), or None."""
    Mt = [[MultiPoly.coerce(M[i][j]) for i in range(len(M))]
          for j in range(len(M[0]))]
    free = kernel_free_columns(Mt)
    if not free:
        return None
    n = len(Mt[0])
    zero = [MultiPoly.zero()] * len(Mt)
    try:
        return solve_pinned(Mt, zero, free[0], MultiPoly.const(1))
    except (SingularMatrixError, InconsistentSystemError):
        return None


def eigenvalues_float(M, tol: float = 1e-6):
    """Complex eigenvalues of a float square matrix plus integrality flags.

    Returns (eigs, flags) where flags[i] is True when the eigenvalue is
    within tol of an integer (and essentially real).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    eigs = np.linalg.eigvals(A)
    flags = [bool(abs(e.imag) < tol and abs(e.real - round(e.real)) < tol)
             for e in eigs]
    order = np.argsort(eigs.real + 1e-12 * eigs.imag)
    return [complex(eigs[i]) for i in order], [flags[i] for i in order]


def eigenvalues_exact(M, max_size: int = 12):
    """Rational eigenvalues of a matrix with Fraction entries.

    Returns (rational eigenvalue, multiplicity) pairs plus the ascending
    coefficients of the rational-root-free cofactor of the characteristic
    polynomial (empty cofactor means the spectrum is fully rational).
    """
    n = len(M)
    if n > max_size:
        raise ValueError(f"exact eigenvalues limited to size {max_size}")
    cp = charpoly_exact(M)
    cs = []
    for c in cp:
        if not MultiPoly.coerce(c).is_constant:
            raise ValueError("characteristic polynomial has symbolic coefficients")
        cs.append(MultiPoly.coerce(c).const_value())
    return rational_roots(cs)
