"""Exact arithmetic kernel: rationals, multivariate polynomials,
truncated Puiseux series, ring matrices and real-root isolation.

BigRational is fractions.Fraction: arbitrary precision, lowest terms,
positive denominator, no rounding -- exactly the contract we need, so we
do not wrap it.
"""
from fractions import Fraction as BigRational

from .poly import MultiPoly, Q, eliminate_linear, poly_eval
from .series import PuiseuxSeries, TruncationError, poly_on_series, series_mul
from .linalg import (InconsistentSystemError, RingMatrix, SingularMatrixError,
                     charpoly_exact, det_exact, eigenvalues_exact,
                     eigenvalues_float, fraction_free_echelon,
                     kernel_free_columns, left_kernel_vector, mat_identity,
                     mat_mul, mat_vec, rational_roots, solve_pinned,
                     solve_square_exact, solve_with_pins, trace)
from .roots import real_roots, sturm_chain, count_roots_between

# the [float matrix] -> eigenvalues-with-integrality-flags operation
eigenvalues = eigenvalues_float

__all__ = [
    "BigRational", "MultiPoly", "Q", "eliminate_linear", "poly_eval",
    "PuiseuxSeries", "TruncationError", "poly_on_series", "series_mul",
    "InconsistentSystemError", "RingMatrix", "SingularMatrixError", "charpoly_exact",
    "det_exact", "eigenvalues_exact", "eigenvalues_float",
    "fraction_free_echelon", "kernel_free_columns", "left_kernel_vector",
    "mat_identity", "mat_mul", "mat_vec", "rational_roots", "solve_pinned",
    "solve_square_exact", "solve_with_pins", "trace", "real_roots", "sturm_chain",
    "eigenvalues",
    "count_roots_between",
]
