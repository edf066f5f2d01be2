import pytest

from laxkit.builtins import builtin_system
from laxkit.exactalg import MultiPoly
from laxkit.sysdsl import (ParseError, hamiltonian_vector_field,
                           parse_expression, parse_system)


def test_expression_parser_basics():
    syms = {n: MultiPoly.var(n) for n in ("x", "y")}
    assert parse_expression("x^2 - 2*x*y + y**2", syms) == \
        (MultiPoly.var("x") - MultiPoly.var("y")) ** 2
    assert parse_expression("1/2*(x + y)", syms) == \
        (MultiPoly.var("x") + MultiPoly.var("y")) / 2
    assert parse_expression("-x*(y - 3)", syms) == \
        -MultiPoly.var("x") * (MultiPoly.var("y") - 3)


def test_expression_errors_carry_position():
    syms = {"x": MultiPoly.var("x")}
    with pytest.raises(ParseError, match="undeclared symbol 'q'"):
        parse_expression("x + q", syms, line=7)
    with pytest.raises(ParseError, match="division only by nonzero"):
        parse_expression("x / x", syms)
    with pytest.raises(ParseError):
        parse_expression("x ^ y", syms)


def test_parse_kvm():
    sys_ = builtin_system("kvm")
    assert sys_.dim == 5
    assert len(sys_.invariants) == 3
    assert sys_.hamiltonian == "H2"
    assert sys_.poisson is not None
    # skew completion filled the lower triangle
    assert sys_.poisson[1][0] == -sys_.poisson[0][1]


def test_parse_harmonic():
    sys_ = parse_system("""
system osc
vars z1 z2
eq z1 = z2
eq z2 = -z1
invariant H = 1/2*(z1^2 + z2^2)
""")
    assert sys_.name == "osc"
    assert sys_.equations[0] == MultiPoly.var("z2")


def test_non_skew_poisson_rejected():
    with pytest.raises(ParseError, match="skew"):
        parse_system("""
system bad
vars z1 z2
eq z1 = z2
eq z2 = -z1
poisson 1 2 = z1
poisson 2 1 = z1
""")


def test_nonzero_diagonal_poisson_rejected():
    with pytest.raises(ParseError, match="diagonal"):
        parse_system("""
system bad
vars z1 z2
eq z1 = z2
eq z2 = -z1
poisson 1 1 = z1
""")


def test_undeclared_symbol_and_missing_equation():
    with pytest.raises(ParseError, match="undeclared symbol"):
        parse_system("system s\nvars x\neq x = x*w\n")
    with pytest.raises(ParseError, match="no equation"):
        parse_system("system s\nvars x y\neq x = y\n")


def test_unknown_hamiltonian_rejected():
    with pytest.raises(ParseError, match="hamiltonian"):
        parse_system("system s\nvars x\neq x = x\nhamiltonian H9\n")


def test_round_trip_is_fixpoint():
    for name in ("kvm", "henon-heiles", "hh5", "rdg", "rdg5", "harmonic"):
        sys_ = builtin_system(name)
        printed = sys_.pretty()
        again = parse_system(printed)
        assert again.pretty() == printed
        assert again.equations == sys_.equations
        assert again.invariants == sys_.invariants


@pytest.mark.parametrize("name", ["kvm", "henon-heiles", "hh5", "rdg", "rdg5",
                                  "harmonic"])
def test_declared_hamiltonian_generates_the_flow(name):
    sys_ = builtin_system(name)
    vf = hamiltonian_vector_field(sys_, sys_.hamiltonian)
    assert all((a - b).is_zero for a, b in zip(vf, sys_.equations))


def test_casimirs_of_five_variable_systems():
    for name in ("hh5", "rdg5"):
        sys_ = builtin_system(name)
        vf = hamiltonian_vector_field(sys_, "F3")
        assert all(x.is_zero for x in vf)


def test_hvf_errors():
    sys_ = builtin_system("kvm")
    with pytest.raises(KeyError):
        hamiltonian_vector_field(sys_, "nope")
    from dataclasses import replace
    bare = replace(sys_, poisson=None)
    with pytest.raises(ValueError):
        hamiltonian_vector_field(bare, "H1")


def test_source_files_ship():
    assert builtin_system("kvm").name == "kvm5"
