"""Outside-in tracer: wraps laxkit's public functions without touching src/.

laxkit imports by name (`from .exactalg import rational_roots`), so a wrapper
on the defining module alone would miss every call made through another
module's binding.  `Tracer.install` therefore rebinds the wrapper at every
module global that holds the original object, and patches methods on their
class.  `uninstall` restores every original; with tracing off nothing is
patched at all.

Each call records one span (name, start, end, parent) in memory; spans are
summarised, and optionally written out, after the traced pass.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from typing import Dict, List, Tuple

# (layer, defining module, attribute path); the metric name is
# "<layer>.<attribute path>".
TARGETS: List[Tuple[str, str, str]] = [
    ("exactalg", "laxkit.exactalg.series", "poly_on_series"),
    ("exactalg", "laxkit.exactalg.linalg", "solve_square_exact"),
    ("exactalg", "laxkit.exactalg.linalg", "solve_with_pins"),
    ("exactalg", "laxkit.exactalg.linalg", "charpoly_exact"),
    ("exactalg", "laxkit.exactalg.roots", "real_roots"),
    ("exactalg", "laxkit.exactalg.linalg", "rational_roots"),
    ("exactalg", "laxkit.exactalg.poly", "MultiPoly.eval_num"),
    ("sysdsl", "laxkit.sysdsl", "parse_system"),
    ("builtins", "laxkit.builtins", "builtin_system"),
    ("painleve", "laxkit.painleve", "detect_weights"),
    ("painleve", "laxkit.painleve", "solve_poly_system"),
    ("painleve", "laxkit.painleve", "indicial_solve"),
    ("painleve", "laxkit.painleve", "kowalewski"),
    ("painleve", "laxkit.painleve", "propagate"),
    ("painleve", "laxkit.painleve", "family_residual"),
    ("painleve", "laxkit.painleve", "constraint_curve"),
    ("painleve", "laxkit.painleve", "analyze"),
    ("laxflow", "laxkit.laxflow", "integrate_lax"),
    ("laxflow", "laxkit.laxflow", "MatrixPencil.__init__"),
    ("laxflow", "laxkit.laxflow", "MatrixPencil.commutator"),
    ("laxflow", "laxkit.laxflow", "MatrixPencil.axpy"),
    ("laxflow", "laxkit.laxflow", "isospectral_drift"),
    ("laxflow", "laxkit.laxflow", "curve_drift"),
    ("laxflow", "laxkit.laxflow", "pencil_charpoly"),
    ("laxflow", "laxkit.laxflow", "integrate_system"),
    ("laxflow", "laxkit.laxflow", "invariant_drift"),
    ("jacobispec", "laxkit.jacobispec", "spectral_data"),
    ("jacobispec", "laxkit.jacobispec", "measure_decompose"),
    ("jacobispec", "laxkit.jacobispec", "StieltjesMeasure.integrate"),
    ("jacobispec", "laxkit.jacobispec", "StieltjesMeasure.cauchy_transform"),
    ("jacobispec", "laxkit.jacobispec", "gamma_fraction"),
    ("jacobispec", "laxkit.jacobispec", "toda_flow_jacobi"),
    ("jacobispec", "laxkit.jacobispec", "pade_series"),
    ("jacobispec", "laxkit.jacobispec", "moments"),
    ("cli", "laxkit.cli", "main"),
]

# integrators whose RK4 step count is read off their (t_end, dt) arguments
RK4_COUNTED = ("laxflow.integrate_lax", "laxflow.integrate_system")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{attr}" for layer, _mod, attr in TARGETS]
        # (name index, start, end, parent span index or -1), in call order
        self.spans: List[Tuple[int, float, float, int]] = []
        self.rk4_steps = 0
        self._stack: List[int] = []
        self._undo = []

    # -- patching ----------------------------------------------------------
    def install(self):
        import laxkit.cli  # noqa: F401  (load every module that binds a target)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "laxkit" or n.startswith("laxkit."))]
        for idx, (layer, modname, attr) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(idx, cls.__dict__[meth]))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(idx, fn)
            bound = 0
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = self.names[idx] in RK4_COUNTED
        sig = inspect.signature(fn) if counted else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                bound = sig.bind(*args, **kwargs).arguments
                self.rk4_steps += int(round(bound["t_end"] / bound["dt"]))
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)
        return wrapper

    # -- results -------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive seconds (outermost calls only, so
        recursion is not counted twice), self seconds (duration minus the
        time covered by child spans) and call count."""
        n = len(self.names)
        incl, self_s, calls = [0.0] * n, [0.0] * n, [0] * n
        child = [0.0] * len(self.spans)
        active = [0] * n
        open_stack: List[int] = []
        for i, (idx, t0, t1, parent) in enumerate(self.spans):
            while open_stack and open_stack[-1] != parent:
                active[self.spans[open_stack.pop()][0]] -= 1
            dur = t1 - t0
            if active[idx] == 0:
                incl[idx] += dur
            active[idx] += 1
            open_stack.append(i)
            calls[idx] += 1
            if parent >= 0:
                child[parent] += dur
        for i, (idx, t0, t1, _p) in enumerate(self.spans):
            self_s[idx] += (t1 - t0) - child[i]
        return {name: {"s": incl[k], "self_s": self_s[k], "calls": calls[k]}
                for k, name in enumerate(self.names)}

    def write(self, path):
        """All spans as gzipped JSON: names plus [name, start, end, parent] rows."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in self.spans]}, fh)
