"""Built-in systems.

Vector-field systems ship as .ivf sources under laxkit/systems/ and are
parsed on demand by builtin_system.  This module needs no numpy: the Lax
pairs live in laxflow, next to MatrixPencil (its pencil factories, and
LAX_FLOWS, the table of the Lax flows that `laxkit flow` runs).

PAINLEVE holds the conventions that pin each built-in family to its
customary normalization: which weight vector and balances are principal,
which balance symbol gets which name, at which variable slot (and with
which scale) each resonance parameter enters, and which solver label
names which sheet.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping, Optional, Tuple

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

# the largest order painleve.propagate takes, above every builtin's default
# order below: the cost grows steeply with it (rdg5, the slowest builtin,
# takes about 8 s at order 30 and 48 s at order 40 on a 2-vCPU x86-64
# host), so a larger order is refused at once
MAX_ORDER = 30


# eq=False: a record of lambdas and dicts has no useful value equality (or
# hash), and the class builds faster on every start
@dataclass(frozen=True, eq=False)
class PainleveConventions:
    """How painleve.analyze picks and names a system's Laurent families:
    the principal weight vector, a test on a painleve.Balance that keeps
    the principal balances, balance symbol -> parameter name, the
    resonance parameters' names in step order and their slots (step j ->
    (variable, scale): the parameter enters that variable's step-j
    coefficient as scale*name), the invariants whose t^0 terms cut out
    the constraint curve and the names of their values, and solver label
    -> sheet name.  The defaults are what `painleve --file` reports: every
    weight vector and balance, solver labels, order 6 and values b1, b2,
    ..."""
    order: int = 6
    weights: Optional[Tuple[Fraction, ...]] = None
    principal: Optional[Callable[..., bool]] = None
    rename: Mapping[str, str] = field(default_factory=dict)
    resonance_names: Optional[Tuple[str, ...]] = None
    resonance_slots: Optional[Mapping[int, Tuple[str, object]]] = None
    curve_invariants: Tuple[str, ...] = ()
    value_names: Optional[Tuple[str, ...]] = None
    sheets: Mapping[str, str] = field(default_factory=dict)


F = Fraction

PAINLEVE = {
    "kvm": PainleveConventions(
        order=7, weights=(F(1),) * 5,
        principal=lambda bal: sum(1 for z in bal.leading if z.is_zero) == 1),
    "henon-heiles": PainleveConventions(
        order=9, weights=(F(1, 2), F(2), F(3, 2), F(3)),
        principal=lambda bal: "y1" in bal.free_symbols,
        rename={"y1": "alpha"},
        resonance_names=("beta", "gamma"),
        resonance_slots={4: ("y1", 1), 12: ("y2", -1)},
        curve_invariants=("H1", "H2")),
    "hh5": PainleveConventions(
        order=8, weights=(F(1), F(2), F(3), F(2), F(3)),
        principal=lambda bal: "z1" in bal.free_symbols,
        rename={"z1": "alpha"}),
    "rdg": PainleveConventions(
        order=7, weights=(F(1, 2), F(1), F(3, 2), F(2)),
        principal=lambda bal: "q1" in bal.free_symbols,
        rename={"q1": "u"},
        resonance_names=("v", "w"),
        resonance_slots={4: ("q1", 1), 8: ("q2", 1)},
        curve_invariants=("H1", "H2"),
        sheets={"q2=1/2": "eps=+1", "q2=-1/2": "eps=-1"}),
    "rdg5": PainleveConventions(
        order=9, weights=(F(2), F(1), F(2), F(3), F(4)),
        principal=lambda bal: bal.label in ("z2=1/2", "z2=-1/2"),
        resonance_names=("alpha", "beta", "theta", "gamma"),
        resonance_slots={1: ("z1", 1), 3: ("z1", 1), 4: ("z2", 1),
                         5: ("z1", 1)},
        curve_invariants=("F1", "F2", "F3"),
        value_names=("c1", "c2", "c3"),
        sheets={"z2=1/2": "eps=+1", "z2=-1/2": "eps=-1"}),
    "harmonic": PainleveConventions(order=4),
}

