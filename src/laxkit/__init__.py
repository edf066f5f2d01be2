"""laxkit: desk-scale computations for finite-dimensional integrable
systems -- exact Laurent/Puiseux analysis of polynomial vector fields,
isospectral Lax flows with conservation diagnostics, and the spectral
apparatus of periodic Jacobi matrices.

Importing the package loads no submodule: `laxkit.<name>` imports one on
first use (PEP 562), so the exact half (exactalg, sysdsl, painleve,
builtins) starts without numpy, which laxflow, jacobispec and acceptance load.
"""
import importlib

__version__ = "0.1.0"

__all__ = ["exactalg", "sysdsl", "painleve", "laxflow", "jacobispec",
           "builtins", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
