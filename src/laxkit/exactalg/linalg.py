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

from .poly import SCALED_ONE, MultiPoly, Scaled, scaled, sum_products
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


def _neg(S: Scaled) -> Scaled:
    L, terms = S
    return L, [(k, -n) for k, n in terms]


def _const_inverse(d: MultiPoly):
    """1/d for a constant d, the kernel's scale for an exact division by d;
    None for a symbolic d, which divides by exact_div."""
    return 1 / d.const_value() if d.is_constant else None


def mat_mul(A: Mat, B: Mat) -> Mat:
    SA = [[scaled(MultiPoly.coerce(x)) for x in row] for row in A]
    SB = [[scaled(MultiPoly.coerce(x)) for x in row] for row in B]
    return [[sum_products([(Ai[t], SB[t][j]) for t in range(len(SB))])
             for j in range(len(SB[0]))] for Ai in SA]


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
        # rows[i][j] <- (piv * rows[i][j] - fi * rows[r][j]) / prev, with
        # the pivot row scaled once per pivot
        P = scaled(rows[r][c])
        Y = [scaled(y) for y in rows[r][c:]]
        inv = _const_inverse(prev)
        for i in range(r + 1, nrow):
            if all(rows[i][j].is_zero for j in range(c, ncol)):
                continue
            F = _neg(scaled(rows[i][c]))
            for j in range(c, ncol):
                num = sum_products([(P, scaled(rows[i][j])), (F, Y[j - c])], inv)
                rows[i][j] = num if inv is not None else num.exact_div(prev)
        prev = rows[r][c]
        pivots.append(c)
        r += 1
    return rows, pivots


def _back_substitute(ech: Mat, pivots: List[int], m: int) -> List[MultiPoly]:
    """Solve an echelon system of m unknowns (pivot i at ech[i][pivots[i]])
    with the right-hand side in column m; unknowns off the pivots are 0."""
    r = len(pivots)
    x: List[MultiPoly] = [MultiPoly.zero()] * m
    sx: List[Scaled] = [(1, [])] * m
    for i in range(r - 1, -1, -1):
        pairs = [(scaled(ech[i][m]), SCALED_ONE)]
        pairs += [(_neg(scaled(ech[i][pivots[j]])), sx[pivots[j]])
                  for j in range(i + 1, r)]
        d = ech[i][pivots[i]]
        inv = _const_inverse(d)
        s = sum_products(pairs, inv)
        x[pivots[i]] = s if inv is not None else s.exact_div(d)
        sx[pivots[i]] = scaled(x[pivots[i]])
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
    spins = {c: scaled(v) for c, v in pinvals.items()}
    aug = []
    for i in range(n):
        row = [MultiPoly.coerce(M[i][j]) for j in cols]
        pairs = [(scaled(MultiPoly.coerce(rhs[i])), SCALED_ONE)]
        pairs += [(_neg(scaled(MultiPoly.coerce(M[i][c]))), v)
                  for c, v in spins.items()]
        row.append(sum_products(pairs))
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


def nullspace(M) -> Tuple[List[int], List[List[MultiPoly]]]:
    """(free columns, kernel basis) of M from one Bareiss echelon.

    The free columns are the non-pivot ones, in order.  The basis vector
    of free column f is d at f and 0 at the other free columns, with d the
    echelon's last pivot (the rank minor, 1 for M = 0); the pivot unknowns
    solve the echelon rows with right-hand side -d * (column f).  By
    Cramer's rule d clears every denominator, so each vector is polynomial
    and no division is inexact; callers normalize with exact_div.
    """
    ech, pivots = fraction_free_echelon(M)
    ncol = len(ech[0]) if ech else 0
    d = ech[len(pivots) - 1][pivots[-1]] if pivots else MultiPoly.const(1)
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for f in free:
        rows = [row + [-d * row[f]] for row in ech[:len(pivots)]]
        v = _back_substitute(rows, pivots, ncol)
        v[f] = d
        basis.append(v)
    return free, basis
