"""The square-root branching of the Henon-Heiles and quartic families is
removable: quadratic changes of variables map them onto systems whose
families have integral exponents only.  The toolkit verifies both halves
of that claim exactly:

  (a) the chain rule: d/dt of each morphism component under the source
      flow equals the target equation composed with the morphism;
  (b) composing the morphism with the half-integer Laurent family kills
      every fractional power.
"""
from laxkit.builtins import PAINLEVE, builtin_system
from laxkit.exactalg import MultiPoly
from laxkit.painleve import (principal_balances, principal_family,
                             restoring_morphism_check)
from laxkit.sysdsl import parse_expression


def morphism(src, exprs):
    syms = {v: MultiPoly.var(v) for v in src.variables}
    return [parse_expression(e, syms) for e in exprs]


for src_name, dst_name, exprs in [
    ("henon-heiles", "hh5",
     ["y1^2", "y2", "x2", "y1*x1", "3*x1^2 + 2*y1^2*y2"]),
    ("rdg", "rdg5",
     ["q1^2", "q2", "p2", "q1*p1", "p1^2 - q1^2*q2^2"]),
]:
    src = builtin_system(src_name)
    dst = builtin_system(dst_name)
    phi = morphism(src, exprs)
    conv = PAINLEVE[src_name]
    fam, _ = principal_family(src, principal_balances(src, conv)[0], conv)
    rep = restoring_morphism_check(src, dst, phi, family=fam)
    print(f"{src_name} -> {dst_name}")
    for v, e in zip(dst.variables, exprs):
        print(f"  {v} = {e}")
    print("  chain rule holds:", rep.chain_rule_ok)
    print("  fractional powers cancel:", rep.fractional_restored)
    z1 = rep.composed[dst.variables[0]]
    print("  composed leading series:", dst.variables[0], "=",
          str(z1)[:100])
    print()

print("negative control: perturb one component and the check names it")
src = builtin_system("henon-heiles")
dst = builtin_system("hh5")
bad = morphism(src, ["y1^2", "y2", "x2", "y1*x1", "3*x1^2 + y1^2*y2"])
rep = restoring_morphism_check(src, dst, bad)
print("  chain rule holds:", rep.chain_rule_ok, "| failing components:",
      rep.failures)
