"""Dense linear algebra over exact coefficient rings.

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
from typing import Dict, List, Tuple

from .poly import MultiPoly
from .roots import rational_roots  # noqa: F401  (a binding perfbench/tracer.py patches)

Mat = List[List[MultiPoly]]


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


def _coerce_matrix(M) -> Mat:
    return [[MultiPoly.coerce(x) for x in row] for row in M]


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


def rref_extend(rref: Dict[int, List[Fraction]], rows):
    """Reduce augmented rows [a | b] over Q into a reduced row-echelon form
    {pivot column: row}, leaving `rref` as it was; None once inconsistent.
    A consistent system has one such form however its rows are split."""
    out = dict(rref)
    for row in rows:
        for c, prow in out.items():
            f = row[c]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
        c = next((j for j, x in enumerate(row[:-1]) if x), None)
        if c is None:
            if row[-1]:
                return None
            continue
        pv = row[c]
        row = [x / pv for x in row]
        for k, prow in out.items():
            f = prow[c]
            if f:
                out[k] = [x - f * y for x, y in zip(prow, row)]
        out[c] = row
    return out


def rref_solution(rref: Dict[int, List[Fraction]], n: int):
    """(particular, nullspace basis) read off the form of a consistent
    system in n unknowns; each free unknown is 0 in the particular one."""
    part = [rref[c][n] if c in rref else Fraction(0) for c in range(n)]
    basis = [[-rref[c][f] if c in rref else Fraction(c == f) for c in range(n)]
             for f in range(n) if f not in rref]
    return part, basis


def solve_linear_fractions(rows: List[List[Fraction]], rhs: List[Fraction]):
    """Gaussian elimination over Q; returns (particular, nullspace basis)
    or None when inconsistent."""
    n = len(rows[0]) if rows else 0
    rref = rref_extend({}, [list(r) + [b] for r, b in zip(rows, rhs)])
    return None if rref is None else rref_solution(rref, n)


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


def _back_substitute(ech: Mat, pivots: List[int], m: int) -> List[MultiPoly]:
    """Solve an echelon system of m unknowns with one pivot per unknown
    (pivot i at ech[i][pivots[i]]) and the right-hand side in column m."""
    x: List[MultiPoly] = [MultiPoly.zero()] * m
    for i in range(m - 1, -1, -1):
        s = ech[i][m]
        for j in range(i + 1, m):
            s = s - ech[i][pivots[j]] * x[pivots[j]]
        x[pivots[i]] = s.exact_div(ech[i][pivots[i]])
    return x


def solve_square_exact(M, rhs) -> List[MultiPoly]:
    """Solve M x = rhs for square nonsingular M; raises if the solution is
    not polynomial over the entry ring (it always is over Fraction)."""
    n = len(M)
    aug = [[MultiPoly.coerce(M[i][j]) for j in range(n)] + [MultiPoly.coerce(rhs[i])]
           for i in range(n)]
    ech, pivots = fraction_free_echelon(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return _back_substitute(ech, pivots, n)


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
    xred = _back_substitute(ech, pivots, m)
    out: List[MultiPoly] = []
    k = 0
    for j in range(n):
        if j in pinvals:
            out.append(pinvals[j])
        else:
            out.append(xred[k])
            k += 1
    return out


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
    zero = [MultiPoly.zero()] * len(Mt)
    try:
        return solve_with_pins(Mt, zero, {free[0]: MultiPoly.const(1)})
    except (SingularMatrixError, InconsistentSystemError):
        return None
