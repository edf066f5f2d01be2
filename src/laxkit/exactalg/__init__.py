"""Exact arithmetic kernel: rationals, multivariate polynomials,
truncated Puiseux series, fraction-free linear algebra and real-root
isolation.

Rationals are fractions.Fraction: arbitrary precision, lowest terms,
positive denominator, no rounding -- exactly the contract we need, so we
do not wrap them.

Importing the package loads `poly` alone: a name of `series`, `linalg` or
`roots` imports its submodule on first access (PEP 562).  The name is read
off the submodule at each access, not stored here, so a module that
rebinds it there (as perfbench/tracer.py does) is seen by every later
`from .exactalg import name`.
"""
import importlib

from .poly import MultiPoly, Q, eliminate_linear

_LAZY = {
    "PuiseuxSeries": "series", "TruncationError": "series",
    "poly_on_series": "series",
    "InconsistentSystemError": "linalg", "SingularMatrixError": "linalg",
    "charpoly_exact": "linalg", "fraction_free_echelon": "linalg",
    "mat_identity": "linalg", "mat_mul": "linalg", "nullspace": "linalg",
    "rational_roots": "linalg", "solve_square_exact": "linalg",
    "solve_with_pins": "linalg", "trace": "linalg",
    "nearest_roots": "roots", "real_roots": "roots",
}

__all__ = ["MultiPoly", "Q", "eliminate_linear", *_LAZY]


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
