from fractions import Fraction as F

import pytest

from laxkit.acceptance import (GOLDEN_CURVE_HH, GOLDEN_CURVE_RDG,
                               GOLDEN_CURVE_RDG5, golden_poly)
from laxkit.builtins import PAINLEVE, builtin_system
from laxkit.exactalg import MultiPoly
from laxkit.exactalg.series import PuiseuxSeries
from laxkit.painleve import (LaurentFamily, constraint_curve, invariant_series,
                             principal_balances, principal_family,
                             restoring_morphism_check)
from laxkit.sysdsl import parse_expression, parse_system


def principal_families(name):
    """The system of a builtin and the families of its principal balances."""
    system, conv = builtin_system(name), PAINLEVE[name]
    return system, [principal_family(system, bal, conv)[0]
                    for bal in principal_balances(system, conv)]


def test_henon_heiles_t0_relations():
    system, fams = principal_families("henon-heiles")
    fam = fams[0]
    S1 = invariant_series(fam, "H1")
    # exact constant term of the Hamiltonian along the family
    want = golden_poly("5/32*alpha^4 + 4/3*A^3 - 21/4*gamma")
    assert S1.coeff(0) == want


def test_henon_heiles_curve_golden():
    system, fams = principal_families("henon-heiles")
    fam = fams[0]
    cv = constraint_curve(system, fam, ["H1", "H2"], value_names=["b1", "b2"])
    assert cv.eliminated == ["gamma"]
    assert cv.curve == golden_poly(GOLDEN_CURVE_HH).primitive()


def test_rdg5_curve_matches_both_sheets():
    system, fams = principal_families("rdg5")
    assert len(fams) == 2
    want = golden_poly(GOLDEN_CURVE_RDG5).primitive()
    for fam in fams:
        cv = constraint_curve(system, fam, ["F1", "F2", "F3"],
                              value_names=["c1", "c2", "c3"])
        assert sorted(cv.eliminated) == ["gamma", "theta"]
        assert cv.curve == want


def test_curve_takes_simplest_pivot_and_least_relation():
    # x, y, z are the constants p, q, r along the family, so the relations
    # are H_i(p, q, r) - b_i.  All three are linear in p, and q and r are
    # each squared in one, so only p is eliminated.  The pivot is the first whose p-coefficient is simplest
    # (2, not q), and the curve the remaining relation of least degree
    # (2, not 3); either choice made the other way gives another curve.
    system = parse_system("system pick\nvars x y z\n"
                          "eq x = 0\neq y = 0\neq z = 0\n"
                          "invariant H1 = 2*x + y^2\n"
                          "invariant H2 = x*y + z\n"
                          "invariant H3 = x + z^2\n")
    series = {v: PuiseuxSeries.constant(MultiPoly.var(p))
              for v, p in zip("xyz", "pqr")}
    fam = LaurentFamily(system, None, 1, series, ("p", "q", "r"), (), None)
    cv = constraint_curve(system, fam, ["H1", "H2", "H3"])
    assert cv.eliminated == ["p"]
    assert cv.curve == golden_poly("q^2 - 2*r^2 - b1 + 2*b3",
                                   extra=["q", "r", "b3"]).primitive()


def test_rdg_curve_golden():
    system, fams = principal_families("rdg")
    want = golden_poly(GOLDEN_CURVE_RDG).primitive()
    for fam in fams:
        cv = constraint_curve(system, fam, ["H1", "H2"],
                              value_names=["b1", "b2"])
        assert cv.eliminated == ["w"]
        assert cv.curve == want


def test_curve_scaling_invariance():
    # the canonical form is stable under rescaling a relation
    p = golden_poly(GOLDEN_CURVE_RDG5)
    assert (p * F(7, 3)).primitive() == p.primitive()
    assert (-p).primitive() == p.primitive()


def test_harmonic_has_empty_variety():
    from laxkit.painleve import detect_weights
    assert detect_weights(builtin_system("harmonic")) == []


def _morphism(sys_dst_vars, exprs, src):
    syms = {v: MultiPoly.var(v) for v in src.variables}
    return [parse_expression(e, syms) for e in exprs]


def test_morphism_henon_heiles_to_five_variables():
    src = builtin_system("henon-heiles")
    dst = builtin_system("hh5")
    phi = _morphism(dst.variables,
                    ["y1^2", "y2", "x2", "y1*x1", "3*x1^2 + 2*y1^2*y2"], src)
    _, fams = principal_families("henon-heiles")
    rep = restoring_morphism_check(src, dst, phi, family=fams[0])
    assert rep.chain_rule_ok, rep.failures
    assert rep.fractional_restored is True
    # composed leading behavior: z1 = alpha^2/t
    z1 = rep.composed["z1"]
    assert z1.coeff(-1) == MultiPoly.var("alpha") ** 2


def test_morphism_rdg_to_five_variables():
    src = builtin_system("rdg")
    dst = builtin_system("rdg5")
    phi = _morphism(dst.variables,
                    ["q1^2", "q2", "p2", "q1*p1", "p1^2 - q1^2*q2^2"], src)
    _, fams = principal_families("rdg")
    for fam in fams:
        rep = restoring_morphism_check(src, dst, phi, family=fam)
        assert rep.chain_rule_ok, rep.failures
        assert rep.fractional_restored is True


def test_identity_morphism_passes():
    src = builtin_system("kvm")
    phi = [MultiPoly.var(v) for v in src.variables]
    rep = restoring_morphism_check(src, src, phi)
    assert rep.chain_rule_ok


def test_broken_morphism_pinpoints_component():
    src = builtin_system("henon-heiles")
    dst = builtin_system("hh5")
    phi = _morphism(dst.variables,
                    ["y1^2", "y2", "x2", "y1*x1", "3*x1^2 + y1^2*y2"], src)
    rep = restoring_morphism_check(src, dst, phi)
    assert not rep.chain_rule_ok
    assert "z5" in rep.failures


def test_fractional_powers_survive_without_morphism():
    # directly composing an odd power of y1 keeps half-integer exponents
    src = builtin_system("henon-heiles")
    _, fams = principal_families("henon-heiles")
    fam = fams[0]
    from laxkit.exactalg import poly_on_series
    S = poly_on_series(MultiPoly.var("y1"), fam.series, fam.ell,
                       const_valid=10)
    assert any(e.denominator == 2 for e, c in S.terms() if not c.is_zero)


def test_composed_family_solves_target_system_exactly():
    # pushing the square-root family through the morphism must give a
    # genuine Laurent solution of the five-variable flow: the residual of
    # every target equation vanishes coefficient by coefficient
    from laxkit.exactalg import poly_on_series
    for src_name, dst_name, exprs in [
        ("henon-heiles", "hh5",
         ["y1^2", "y2", "x2", "y1*x1", "3*x1^2 + 2*y1^2*y2"]),
        ("rdg", "rdg5",
         ["q1^2", "q2", "p2", "q1*p1", "p1^2 - q1^2*q2^2"]),
    ]:
        src = builtin_system(src_name)
        dst = builtin_system(dst_name)
        phi = _morphism(dst.variables, exprs, src)
        _, fams = principal_families(src_name)
        fam = fams[0]
        rep = restoring_morphism_check(src, dst, phi, family=fam)
        series = rep.composed
        lowest_valid = min(s.valid for s in series.values())
        for k, v in enumerate(dst.variables):
            lhs = series[v].deriv()
            rhs = poly_on_series(dst.equations[k], series, fam.ell,
                                 const_valid=lhs.valid)
            diff = lhs - rhs
            assert all(c.is_zero for _e, c in diff.terms()), (dst_name, v)
