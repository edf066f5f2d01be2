"""Exact arithmetic kernel: rationals, multivariate polynomials,
truncated Puiseux series, fraction-free linear algebra and real-root
isolation.

Rationals are fractions.Fraction: arbitrary precision, lowest terms,
positive denominator, no rounding -- exactly the contract we need, so we
do not wrap them.
"""
from .poly import MultiPoly, Q, eliminate_linear
from .series import PuiseuxSeries, TruncationError, poly_on_series
from .linalg import (InconsistentSystemError, SingularMatrixError,
                     charpoly_exact, fraction_free_echelon, mat_identity,
                     mat_mul, nullspace, rational_roots, solve_square_exact,
                     solve_with_pins, trace)
from .roots import real_roots, sturm_chain, count_roots_between

__all__ = [
    "MultiPoly", "Q", "eliminate_linear",
    "PuiseuxSeries", "TruncationError", "poly_on_series",
    "InconsistentSystemError", "SingularMatrixError", "charpoly_exact",
    "fraction_free_echelon", "mat_identity", "mat_mul", "nullspace",
    "rational_roots", "solve_square_exact", "solve_with_pins", "trace",
    "real_roots",
    "sturm_chain", "count_roots_between",
]
