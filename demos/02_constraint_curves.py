"""Painlevé divisors: substitute a Laurent family into the first
integrals, demand the polar parts cancel (they must, exactly), and read
off the algebraic curve that the free parameters sweep out.

For the quartic five-variable system the engine reproduces the known
genus-7 curve relation exactly; for Henon-Heiles the exact relation is
printed together with the intermediate t^0 values of the invariants.
"""
from laxkit.builtins import PAINLEVE, builtin_system
from laxkit.painleve import (constraint_curve, invariant_series,
                             principal_balances, principal_family)

print("== quartic five-variable system ==")
system, conv = builtin_system("rdg5"), PAINLEVE["rdg5"]
for bal in principal_balances(system, conv):
    fam, _ = principal_family(system, bal, conv)
    cv = constraint_curve(system, fam, conv.curve_invariants,
                          value_names=conv.value_names)
    order = ["alpha", "beta", "gamma", "theta", "c1", "c2", "c3"]
    print(f"sheet {bal.label}:")
    for nm, rel in zip(("F1", "F2", "F3"), cv.relations):
        print(f"  {nm}(t^0) relation: {rel.to_str(order)} = 0")
    print("  eliminate", ", ".join(cv.eliminated), "->")
    print("  curve:", cv.curve.to_str(["alpha", "beta", "c1", "c2", "c3"]), "= 0")

print("\n== generalized Henon-Heiles ==")
system, conv = builtin_system("henon-heiles"), PAINLEVE["henon-heiles"]
fam, _ = principal_family(system, principal_balances(system, conv)[0], conv)
for nm in ("H1", "H2"):
    S = invariant_series(fam, nm)
    polar = [(e, c) for e, c in S.terms() if e < 0 and not c.is_zero]
    assert polar == [], "conserved quantities have no polar part"
    print(f"{nm}(t^0) =", S.coeff(0).to_str(["alpha", "beta", "gamma", "A"]))
cv = constraint_curve(system, fam, ["H1", "H2"], value_names=["b1", "b2"])
print("eliminating", cv.eliminated[0], "gives")
print("curve:", cv.curve.to_str(["alpha", "beta", "A", "b1", "b2"]), "= 0")
print("\n(both sheets of the five-variable system land on the same curve,")
print("as they must: they are two copies of one Riemann surface)")
