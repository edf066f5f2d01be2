"""Movable-singularity analysis of the generalized Henon-Heiles flow,
end to end: weight detection, dominant balance, Kowalewski spectrum,
and exact propagation of the Laurent family in t^(1/2).

Everything below is computed in exact rational arithmetic; the free
parameters alpha, beta, gamma and the coupling A stay symbolic.
"""
from laxkit.builtins import PAINLEVE, builtin_system
from laxkit.painleve import (detect_weights, kowalewski, principal_balances,
                             principal_family)

system = builtin_system("henon-heiles")
conv = PAINLEVE["henon-heiles"]

print("system:", system.name)
for i, (v, f) in enumerate(zip(system.variables, system.equations)):
    print(f"  {v}' = {f.to_str(list(system.variables) + ['A'])}")

print("\nadmissible weight vectors (positive, rational):")
wvs = detect_weights(system)
for wv in wvs:
    lower = sum(len(t) for t in wv.lower_terms)
    print(f"  {wv}   branching index {wv.ell}, {lower} lower-order monomials")

# the principal balance: the one with y1's leading coefficient free,
# renamed alpha
principal = principal_balances(system, conv, wvs)[0]
wv = principal.weight_vector
print(f"\nusing {wv}: the half-integer exponents force series in t^(1/2)")
print("principal balance (leading coefficients):")
for v, z in zip(system.variables, principal.leading):
    print(f"  {v}(0) = {z.to_str(['alpha'])}")

kd = kowalewski(system, principal)
print("\nKowalewski spectrum:", [str(r) for r, m in kd.rational_eigs
                                 for _ in range(m)])
print("(eigenvalues 0, 2, 6 sit at half-steps 0, 4, 12: one free parameter each)")

fam, _ = principal_family(system, principal, conv, 8)
print("\nLaurent family (free parameters", ", ".join(fam.free_parameters),
      "+ movable origin t0):")
for v in system.variables:
    print(f"  {v} = {fam.series[v]}")

explicit, with_t0 = fam.count_free_parameters()
print(f"\nparameter count: {explicit} explicit + t0 = {with_t0} = dim phase space")
print("note: the t^(5/2) coefficient of y1 is -alpha^3/18; the step")
print("equations force the cube (see the j=6 linear system).")
