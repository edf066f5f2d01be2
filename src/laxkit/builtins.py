"""Built-in systems.

Vector-field systems ship as .ivf sources under laxkit/systems/ and are
parsed on demand.  This module needs no numpy: the float pencil
factories live in laxflow, next to MatrixPencil, and builtin() imports
them only when asked for a pencil.

painleve_meta() carries the conventions that pin each built-in family to
its customary normalization: which weight vector is the principal one,
which balance symbol gets which name, and at which variable slot (and
with which scale) each resonance parameter enters.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

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
# dispatch
# ---------------------------------------------------------------------------

def builtin(name: str, **params):
    """Named constructor: vector-field systems return a
    VectorFieldSystem; Lax systems return (MatrixPencil, B factory)."""
    if name in _SYSTEM_FILES:
        return builtin_system(name)
    from . import laxflow as lf
    if name == "toda-periodic":
        if "x" in params:
            a, b = lf.flaschka(params["x"], params["y"])
        else:
            a, b = params["a"], params["b"]
        return lf.toda_periodic_pencil(a, b)
    if name == "toda-open":
        return lf.toda_open_pencil(params["a"], params["b"])
    if name == "euler-arnold":
        n = params.get("n", 4)
        al = params.get("alphas", list(range(1, n + 1)))
        be = params.get("betas", [v ** 2 for v in al])
        X0 = params.get("X0")
        if X0 is None:
            X0 = lf.random_skew(n, seed=params.get("seed", 0))
        return lf.euler_arnold_pencil(al, be, X0)
    if name == "manakov":
        n = params.get("n", 4)
        j_diag = params.get("j_diag", list(range(1, n + 1)))
        om = params.get("omega")
        if om is None:
            om = lf.random_skew(n, seed=params.get("seed", 0))
        return lf.manakov_pencil(j_diag, om)
    if name == "neumann":
        return lf.neumann_pencil(params["alphas"], params["x"], params["y"])
    if name == "jacobi-geodesic":
        return lf.jacobi_geodesic_pencil(params["alphas"], params["x"], params["y"])
    raise KeyError(f"unknown builtin '{name}'")
