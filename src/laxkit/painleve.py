"""Laurent/Puiseux analysis of polynomial vector fields.

Pipeline: detect weight vectors (scaling symmetries of a dominant part),
solve the indicial system for dominant balances, assemble the Kowalewski
matrix and its resonances, then propagate Laurent coefficients exactly,
adjoining a fresh free-parameter symbol at every solvable resonance.
Substituting the resulting families into first integrals and collecting
constant terms yields the constraint varieties cut out by the values of
the invariants.

Fractional leading exponents are handled by working in steps of t^(1/ell)
with ell the lcm of the exponent denominators; the step-j linear system
is (j/ell I - L) z_j = psi_j with L the Kowalewski matrix, so resonances
sit at steps where j/ell is an eigenvalue of L.  Terms of lower weight
(such as coupling constants' monomials) feed psi_j at the step their
weight deficit dictates; nothing is ever dropped.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .builtins import MAX_ORDER, PainleveConventions
from .exactalg import (InconsistentSystemError, MultiPoly, PuiseuxSeries,
                       Q, SingularMatrixError, charpoly_exact,
                       eliminate_linear, nullspace, poly_on_series,
                       rational_roots, solve_square_exact, solve_with_pins)
from .exactalg.linalg import rref_extend, rref_solution
from .exactalg.poly import (LIMIT, SCALED_ONE, Scaled, pack, scaled, shift,
                             sum_products, unpack)
from .sysdsl import VectorFieldSystem

Key = Tuple[Tuple[str, int], ...]


class PainleveObstruction(RuntimeError):
    """A resonance failed its solvability condition."""

    def __init__(self, step: int, ell: int, certificate=None, pairing=None):
        super().__init__(
            f"resonance at level {Fraction(step, ell)} is not solvable")
        self.step = step
        self.ell = ell
        self.certificate = certificate
        self.pairing = pairing


class FamilyNotPolynomial(RuntimeError):
    """Series coefficients leave the polynomial ring in the balance's free
    symbols (they are rational functions on the parameter variety).
    Specializing the balance symbols to generic rationals restores
    polynomial coefficients in the remaining parameters."""

    def __init__(self, step: int, ell: int):
        super().__init__(
            f"coefficient at level {Fraction(step, ell)} is not polynomial "
            "in the balance's free symbols; propagate a specialization "
            "(see Balance.specialize)")
        self.step = step
        self.ell = ell


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    weights: Tuple[Fraction, ...]
    dominant_support: Tuple[Tuple[Key, ...], ...]   # per equation
    lower_terms: Tuple[Tuple[Key, ...], ...]        # recorded, never dropped

    @property
    def ell(self) -> int:
        return lcm(*[w.denominator for w in self.weights])

    def __str__(self):
        return "(" + ", ".join(str(w) for w in self.weights) + ")"


def _int_weights(names: Sequence[str], weights: Sequence[Fraction]
                 ) -> Tuple[int, List[Tuple[int, int]]]:
    """(L, [(shift(name), L*weight)]) with L the lcm of the weights'
    denominators."""
    L = lcm(*[w.denominator for w in weights])
    return L, [(shift(n), w.numerator * (L // w.denominator))
               for n, w in zip(names, weights)]


def _mono_weight(key: int, wint: Sequence[Tuple[int, int]]) -> int:
    # L times the monomial's weight; a constant symbol carries none
    return sum(((key >> s) & LIMIT) * w for s, w in wint)


def _canonical_support(sys: VectorFieldSystem, weights: Sequence[Fraction]):
    """Split every equation's monomials into dominant / lower for the given
    weights; None if some monomial overshoots (inconsistent ansatz)."""
    L, wint = _int_weights(sys.variables, weights)
    support, lower = [], []
    for (_, wv), f in zip(wint, sys.equations):
        target = wv + L
        dom, low = [], []
        for key in f.nums:
            w = _mono_weight(key, wint)
            if w == target:
                dom.append(key)
            elif w < target:
                low.append(key)
            else:
                return None
        if not dom:
            return None
        support.append(tuple(sorted(map(unpack, dom))))
        lower.append(tuple(sorted(map(unpack, low))))
    return tuple(support), tuple(lower)


def detect_weights(sys: VectorFieldSystem, max_patterns: int = 200000
                   ) -> List[WeightVector]:
    """All fully resolved rational weight vectors with positive weights.

    Dominant-support patterns whose linear weight constraints are
    underdetermined are resolved jointly with the indicial system; weight
    families that stay unresolved after that (no branch pins them to
    rationals) are dropped.
    """
    nvar = len(sys.variables)
    eq_keys = [sorted(map(unpack, f.nums)) for f in sys.equations]
    if any(not ks for ks in eq_keys):
        return []
    total = 1
    for ks in eq_keys:
        total *= (2 ** len(ks)) - 1
    if total > max_patterns:
        raise ValueError(f"{total} dominant-support patterns to enumerate, "
                         f"more than max_patterns={max_patterns}")

    def subsets(ks):
        for r in range(1, len(ks) + 1):
            yield from itertools.combinations(ks, r)

    def aug_row(i, key):
        # [exponents - e_i | 1]; a constant symbol carries no weight
        exps = dict(key)
        return [exps.get(v, 0) - (j == i)
                for j, v in enumerate(sys.variables)] + [1]

    levels = [[(s, [aug_row(i, key) for key in s]) for s in subsets(ks)]
              for i, ks in enumerate(eq_keys)]
    found: Dict[Tuple[Fraction, ...], WeightVector] = {}
    checked = set()   # positive candidates whose support has been split
    memo = SolverMemo()   # the family solves share their sub-systems

    def walk(pattern, rref):
        # patterns in itertools.product order; a prefix whose rows are
        # inconsistent is dropped with every pattern that extends it
        i = len(pattern)
        if i < nvar:
            for subset, rows in levels[i]:
                ext = rref_extend(rref, rows)
                if ext is not None:
                    walk(pattern + (subset,), ext)
            return
        part, basis = rref_solution(rref, nvar)
        if not basis:
            candidates = [tuple(part)]
        else:
            candidates = _resolve_weight_family(sys, pattern, part, basis, memo=memo)
        for w in candidates:
            if w in checked or any(x <= 0 for x in w):
                continue
            checked.add(w)
            cs = _canonical_support(sys, w)
            if cs is not None:
                found[w] = WeightVector(weights=tuple(w),
                                        dominant_support=cs[0],
                                        lower_terms=cs[1])

    walk((), {})
    return sorted(found.values(), key=lambda wv: (sorted(wv.weights), wv.weights))


def _resolve_weight_family(sys, pattern, part, basis, memo=None) -> List[Tuple[Fraction, ...]]:
    """Pin an underdetermined weight family by solving the indicial system
    jointly in (balance, family parameters); `memo` as solve_poly_system's."""
    svars = [f"_w{k}" for k in range(len(basis))]
    kexprs = [MultiPoly({(): part[i], **{((s, 1),): b[i] for s, b in zip(svars, basis)}})
              for i in range(len(sys.variables))]
    eqs = [kexprs[i] * MultiPoly.var(sys.variables[i])
           + MultiPoly.from_ints(f.den, {k: f.nums[k] for k in map(pack, subset)})
           for i, (subset, f) in enumerate(zip(pattern, sys.equations))]
    sols = solve_poly_system(eqs, list(sys.variables) + svars, memo=memo)
    out = []
    for sol, _ in sols:
        cs = [sol.get(s) for s in svars]
        if all(c is not None and c.is_constant for c in cs):
            # every parameter a constant: part_i + sum_k b_ki c_k
            cs = [c.const_value() for c in cs]
            vals = [p + sum(b[i] * c for b, c in zip(basis, cs) if b[i])
                    for i, p in enumerate(part)]
        else:
            # a polynomial value may cancel in the sum
            vals = [kexprs[i].subs({s: sol[s] for s in svars if s in sol})
                    for i in range(len(sys.variables))]
            if not all(v.is_constant for v in vals):
                continue
            vals = [v.const_value() for v in vals]
        if all(v in sol and sol[v].is_zero for v in sys.variables):
            continue
        out.append(tuple(vals))
    return out


# ---------------------------------------------------------------------------
# small exact polynomial-system solver (substitution + case splitting)
# ---------------------------------------------------------------------------

# past this many nodes a SolverMemo starts afresh, which bounds its memory
# (a node takes about 0.75 KiB on a dense 5-variable system)
MEMO_NODES = 10000


class _Node:
    """A solver state, its nonzero equations, their support masks and the
    (name, shift) of the unknowns in them, until the walk expands it into
    `alg`, a dropped irrational factor or None, and `edges`: per branch
    (x, shift, value, choice, pending, child), x = value bound on the way."""
    __slots__ = ("eqs", "masks", "unk", "alg", "edges")

    def __init__(self, eqs, masks, unk, edges=None):
        self.eqs, self.masks, self.unk, self.alg, self.edges = eqs, masks, unk, None, edges


_LEAF, _DEAD = _Node((), (), ()), _Node((), (), (), [])   # no equation; a nonzero constant


class SolverMemo:
    """The nodes of the solves that share it, keyed by their unknowns and
    equations in order, each interned to an int (an equation by its den
    and terms in dict order); past MEMO_NODES nodes it starts afresh."""

    def __init__(self):
        self.ids: Dict[tuple, int] = {}
        self.nodes: Dict[tuple, _Node] = {}

    def node(self, eqs: List[MultiPoly], unk) -> _Node:
        eqs = [e for e in eqs if e.nums]
        if not eqs or any(e.is_constant for e in eqs):
            return _DEAD if eqs else _LEAF
        masks = [e.support_mask() for e in eqs]
        if len(self.nodes) > MEMO_NODES:
            self.ids, self.nodes = {}, {}
        ids = self.ids
        unk = tuple(us for us in unk if any((m >> us[1]) & LIMIT for m in masks))
        key = (ids.setdefault(unk, len(ids)), *[ids.setdefault(
            (e.den, *itertools.chain.from_iterable(e.nums.items())), len(ids)) for e in eqs])
        return self.nodes.get(key) or self.nodes.setdefault(key, _Node(eqs, masks, unk))


def _subs_one(p: MultiPoly, x: str, s: int, val: MultiPoly) -> MultiPoly:
    # p.subs({x: val}) for an x of p, a constant val straight on the rational kernel
    return (p._subs_rational([(s, val.nums.get(0, 0), val.den)]) if val.is_constant
            else p.subs({x: val}))


def _expand(eqs, masks, unk, memo: SolverMemo):
    """(alg, edges) of a node: the first of solve_poly_system's four steps
    that applies, with the values it binds and its children."""
    occurs = [[us for us in unk if (m >> us[1]) & LIMIT] for m in masks]

    def assign(idx, x, s, val, choice=None):
        # eqs[idx] gives x = val: substitute it into the others
        rest = [_subs_one(q, x, s, val) if (masks[k] >> s) & LIMIT else q
                for k, q in enumerate(eqs) if k != idx]
        return (x, s, val, choice, None, memo.node(rest, unk))

    # 1. a linear unknown with a constant coefficient, later unknowns
    # first so that leading ones (positions rather than momenta) stay
    # free: x occurs only in the term c*x of e = c*x + rest
    for idx, e in enumerate(eqs):
        for x, s in reversed(occurs[idx]):
            xk = 1 << s
            if all(k == xk for k in e.nums if (k >> s) & LIMIT):
                rest = MultiPoly.from_ints(e.den, {k: n for k, n in e.nums.items()
                                                   if k != xk})
                return None, [assign(idx, x, s, -rest / Fraction(e.nums[xk], e.den))]

    # 2. univariate equation with rational coefficients
    for idx, e in enumerate(eqs):
        if len(occurs[idx]) != 1:
            continue
        (x, s), = occurs[idx]
        cfs = e.coeffs_in(x)
        if not all(c.is_constant for c in cfs.values()):
            continue
        roots, cof = rational_roots([cfs.get(k, MultiPoly.zero()).const_value()
                                     for k in range(max(cfs) + 1)])
        return ((x, cof) if len(cof) > 1 else None,
                [assign(idx, x, s, MultiPoly.const(r), (x, r) if len(roots) > 1 else None)
                 for r, _m in roots])

    # 3. an equation with a common variable factor: split x=0 / cofactor=0
    for idx, e in enumerate(eqs):
        mg = dict(e.monomial_gcd())
        fx = next((us for us in unk if mg.get(us[0], 0) > 0), None)
        if fx is not None:
            x, s = fx
            cofactor = e.exact_div(MultiPoly.var(x, mg[x]))
            others = [q for k, q in enumerate(eqs) if k != idx]
            return None, [assign(idx, x, s, MultiPoly.zero()),
                          (None, 0, None, None, None, memo.node([cofactor] + others, unk))]

    # 4. last resort: eliminate a variable appearing linearly with a
    # polynomial coefficient C: branch C = 0 (then D must also vanish),
    # and branch C != 0 with denominators cleared in the others
    for idx, e in enumerate(eqs):
        for x, s in occurs[idx]:
            if all((k >> s) & LIMIT < 2 for k in e.nums):
                cfs = e.coeffs_in(x)
                C, D = cfs[1], cfs.get(0, MultiPoly.zero())
                others = [q for k, q in enumerate(eqs) if k != idx]
                return None, [
                    (None, 0, None, None, None, memo.node([C, D] + others, unk)),
                    (None, 0, None, None, (x, s, C, D),
                     memo.node([eliminate_linear(q, x, C, D) for q in others], unk))]
    # nothing applicable: give up on this branch (not solvable by
    # substitution over Q)
    return None, []


def solve_poly_system(eqs: Sequence[MultiPoly], unknowns: Sequence[str],
                      max_branches: int = 4000, algebraic_out=None,
                      memo: Optional[SolverMemo] = None):
    """All solution branches of a small polynomial system over Q.

    Returns a list of (solution, choices): `solution` maps a subset of the
    unknowns to MultiPoly values (possibly involving the remaining, free,
    unknowns); `choices` records the (name, root) picks made at multi-root
    branch points, which callers use as sheet labels.  Branches that would
    need irrational algebraic numbers are dropped -- this toolkit's exact
    ring is Q plus free symbols -- but each dropped branch appends its
    (variable, defining polynomial coefficients) to `algebraic_out` when a
    list is supplied, so callers can report what was left behind.

    Each branch takes the first of four steps that applies: 1. an unknown
    linear with a constant coefficient is solved for; 2. a univariate
    equation splits on its rational roots; 3. a monomial factor x^k splits
    into x = 0 and its cofactor; 4. an unknown x of C*x + D, C a
    polynomial, splits into C = D = 0 and C != 0, where x is eliminated
    from the other equations and left pending until none is left, then
    back-substituted innermost first as x = -D/C (Cox, Little and O'Shea,
    "Ideals, Varieties, and Algorithms", ch. 3).  The step a node takes
    depends only on its equations and the unknowns in them (a bound or
    pending one is in none), so a node is expanded once (`_expand`) and
    shared: a walk binds the values along each path and back-substitutes
    the pending unknowns at each leaf.  The solves of one weight search
    share a `memo` of nodes (by default a solve has its own); `max_branches`
    bounds the nodes this solve's walk visits, shared or not.  Every
    returned branch is verified against the original equations.
    """
    memo = SolverMemo() if memo is None else memo
    results, counter = [], [0]

    def bind(sol, x, s, val):
        # the one place a value is bound: x = val enters every earlier value
        out = {k: _subs_one(v, x, s, val) if (v.support_mask() >> s) & LIMIT else v
               for k, v in sol.items()}
        out[x] = val
        return out

    def walk(node, sol, choices, pending):
        counter[0] += 1
        if counter[0] > max_branches:
            raise RuntimeError("polynomial system solver branch budget exceeded")
        if node is _LEAF:
            for x, s, C, D in reversed(pending):
                try:  # a zero C or an inexact division drops the branch
                    val = (-D.subs(sol)).exact_div(C.subs(sol))
                except (ValueError, ZeroDivisionError):
                    return
                sol = bind(sol, x, s, val)
            results.append((dict(sol), list(choices)))
            return
        if node.edges is None:
            node.alg, node.edges = _expand(node.eqs, node.masks, node.unk, memo)
            node.eqs = node.masks = node.unk = None   # the edges are all it needs
        if node.alg is not None and algebraic_out is not None:
            algebraic_out.append(node.alg)
        for x, s, val, choice, pend, child in node.edges:
            walk(child, sol if x is None else bind(sol, x, s, val),
                 choices if choice is None else choices + [choice],
                 pending if pend is None else pending + [pend])

    unk = [(u, shift(u)) for u in unknowns]
    walk(memo.node(list(eqs), unk), {}, [], [])

    # verify (at one rational point when every value is constant) and dedupe
    shifts, verified, seen = dict(unk), [], set()
    for sol, choices in results:
        if all(v.is_constant for v in sol.values()):
            point = [(shifts[k], v.nums.get(0, 0), v.den) for k, v in sol.items()]
            if any(e.nums and e._subs_rational(point).nums for e in eqs):
                continue
        elif not all(e.subs(sol).is_zero for e in eqs):
            continue
        sig = tuple(sorted((k, v) for k, v in sol.items()))
        if sig not in seen:
            seen.add(sig)
            verified.append((sol, choices))

    def subsumes(big, small):
        # `small` is a specialization of `big`: assigning some of big's
        # free unknowns reproduces every one of big's values
        sigma = {v: small[v] for v in small if v not in big}
        return all(big[v].subs(sigma) == small[v] for v in big)

    # a solution is dropped when it specializes another, which binds fewer
    bound = [set(sol) for sol, _ in verified]
    return [(sol, choices) for i, (sol, choices) in enumerate(verified)
            if not any(bound[j] < bound[i] and subsumes(other, sol)
                       for j, (other, _c) in enumerate(verified))]


# ---------------------------------------------------------------------------
# balances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Balance:
    """A dominant balance: the leading coefficients z^(0) of a Laurent
    family with weights `weight_vector`.

    `label` joins the `choices` of the solve that found it, the (name,
    root) picks solve_poly_system made at multi-root steps, as
    "x2=1,...".  It records the solver's path, not a property of the
    balance: of the five cyclic rotations of one kvm5.ivf balance, one is
    labelled "x2=1" and the other four "".  Only a builtin's
    PainleveConventions.sheets turns a label into a sheet name."""
    weight_vector: WeightVector
    leading: Tuple[MultiPoly, ...]          # z^(0), entries over free symbols
    free_symbols: Tuple[str, ...]
    label: str = ""
    choices: Tuple[Tuple[str, Fraction], ...] = ()

    @property
    def exponents(self) -> Tuple[Fraction, ...]:
        return self.weight_vector.weights

    def rename_free(self, mapping: Mapping[str, str]) -> "Balance":
        sub = {old: MultiPoly.var(new) for old, new in mapping.items()}
        return replace(self, leading=tuple(z.subs(sub) for z in self.leading),
                       free_symbols=tuple(mapping.get(s, s) for s in self.free_symbols))

    def specialize(self, values: Mapping[str, object]) -> "Balance":
        """Evaluate free symbols at rational points (generic members of the
        balance family); they stop being symbols of the propagated series."""
        sub = {k: MultiPoly.const(Q(v)) for k, v in values.items()}
        return replace(self, leading=tuple(z.subs(sub) for z in self.leading),
                       free_symbols=tuple(s for s in self.free_symbols if s not in values))


def dominant_part(sys: VectorFieldSystem, w: WeightVector) -> List[MultiPoly]:
    return [MultiPoly.from_ints(f.den, {k: f.nums[k] for k in map(pack, keys)})
            for f, keys in zip(sys.equations, w.dominant_support)]


def indicial_solve(sys: VectorFieldSystem, w: WeightVector,
                   algebraic_out=None) -> List[Balance]:
    """Nonzero solutions of k_i z_i + f_i(z) = 0 over the dominant part.

    Solutions may carry free symbols (named after their variable).  Each
    balance's `choices` (and the label joined from them) are the picks the
    solver made at multi-root steps on its way to that solution: a record
    of the solve, so balances related by a symmetry of the system may carry
    different labels, and sorting by label orders them by solve path.
    Balances living in algebraic extensions of Q are not representable
    here; pass `algebraic_out` (a list) to collect their defining
    polynomials.
    """
    fdom = dominant_part(sys, w)
    eqs = [MultiPoly.const(w.weights[i]) * MultiPoly.var(sys.variables[i]) + fdom[i]
           for i in range(sys.dim)]
    sols = solve_poly_system(eqs, sys.variables, algebraic_out=algebraic_out)
    out = []
    for sol, choices in sols:
        leading = tuple(MultiPoly.coerce(sol.get(v, MultiPoly.var(v)))
                        for v in sys.variables)
        if all(z.is_zero for z in leading):
            continue
        free = tuple(v for v in sys.variables if v not in sol)
        label = ",".join(f"{n}={r}" for n, r in choices)
        out.append(Balance(weight_vector=w, leading=leading,
                           free_symbols=free, label=label,
                           choices=tuple(choices)))
    out.sort(key=lambda b: b.label)
    return out


# ---------------------------------------------------------------------------
# Kowalewski matrix and resonances
# ---------------------------------------------------------------------------

@dataclass
class KowalewskiData:
    matrix: List[List[MultiPoly]]
    charpoly: List[Fraction]                     # ascending, monic
    rational_eigs: List[Tuple[Fraction, int]]
    nonrational_factor: List[Fraction]           # ascending; [] if fully rational

    def rational_spectrum(self) -> List[Fraction]:
        return sorted(r for r, _ in self.rational_eigs)


def kowalewski(sys: VectorFieldSystem, bal: Balance) -> KowalewskiData:
    w = bal.weight_vector
    fdom = dominant_part(sys, w)
    env = dict(zip(sys.variables, bal.leading))
    n = sys.dim
    L = [[fdom[i].diff(sys.variables[j]).subs(env) +
          (MultiPoly.const(w.weights[i]) if i == j else MultiPoly.zero())
          for j in range(n)] for i in range(n)]
    cp = charpoly_exact(L)
    if not all(c.is_constant for c in cp):
        raise ValueError(
            "Kowalewski characteristic polynomial depends on a free "
            "symbol; resonance analysis needs a generic-value split")
    consts = [c.const_value() for c in cp]
    rats, cof = rational_roots(consts)
    return KowalewskiData(matrix=L, charpoly=consts, rational_eigs=rats,
                          nonrational_factor=cof)


def invariant_weight(sys: VectorFieldSystem, name: str, w: WeightVector):
    """Weight of a declared invariant if weight-homogeneous, else None."""
    L, wint = _int_weights(sys.variables, w.weights)
    H = sys.invariants[name]
    ws = {_mono_weight(k, wint) for k in H.nums}
    return Fraction(ws.pop(), L) if len(ws) == 1 else None


# ---------------------------------------------------------------------------
# Laurent family propagation
# ---------------------------------------------------------------------------

@dataclass
class LaurentFamily:
    system: VectorFieldSystem
    balance: Balance
    ell: int
    series: Dict[str, PuiseuxSeries]
    free_parameters: Tuple[str, ...]            # explicit symbols, in order
    resonances: Tuple[Tuple[int, str], ...]     # (step j, parameter name)
    kowalewski: KowalewskiData

    def count_free_parameters(self):
        """(explicit symbol count, total including the movable origin t0)."""
        n = len(self.free_parameters)
        return n, n + 1


class _RelaxedSystem:
    """Relaxed (online) evaluation of a system's right-hand sides along a
    Laurent ansatz z_i = sum_k coef[i][k] t^((k - m_i)/ell).

    Each equation is compiled once into terms (scalar, factors, lag):
    `scalar` keeps the coefficient and every symbol that is not a
    variable, `factors` is the sorted tuple of variable indices of the
    monomial (with multiplicity) and `lag` = m_i + ell - sum(m_factors)
    places the term's contribution to psi_j at index j - lag of the
    factor product.  The coefficient list of every prefix product
    factors[:r] (r >= 2) is running state, one list shared by all terms
    and equations.  Step j reads psi_j with the step-j coefficients held
    at zero (`provisional`), and `extend` appends the solved z_j and adds
    to each prefix product the part of its index-j coefficient that
    involves z_j.  Everything that only enters products (the scalars, the
    prefix products, a scaled copy of each coefficient) is kept in the
    scaled form of `sum_products`, so each value is scaled once, and every
    sum of products is one kernel call.
    """

    def __init__(self, sys: VectorFieldSystem, m: Sequence[int], ell: int,
                 leading: Sequence[MultiPoly]):
        shifts = [shift(v) for v in sys.variables]
        self.coef: List[List[MultiPoly]] = [[z] for z in leading]
        self.scoef: List[List[Scaled]] = [[scaled(z)] for z in leading]
        self.terms = []
        prefixes = set()
        for i, f in enumerate(sys.equations):
            compiled = []
            for key, c in f.nums.items():
                factors = []
                for k, s in enumerate(shifts):
                    e = (key >> s) & LIMIT
                    factors += [k] * e
                    key -= e << s
                factors = tuple(factors)
                lag = m[i] + ell - sum(m[k] for k in factors)
                scalar = MultiPoly.from_ints(f.den, {key: c})
                compiled.append((scaled(scalar), factors, lag))
                prefixes.update(factors[:r] for r in range(2, len(factors) + 1))
            self.terms.append(compiled)
        self.prefixes = sorted(prefixes, key=lambda T: (len(T), T))
        self.prods: Dict[Tuple[int, ...], List[Scaled]] = {}
        for T in self.prefixes:
            first = sum_products([(self._coeffs(T[:-1])[0], self.scoef[T[-1]][0])])
            self.prods[T] = [scaled(first)]
        self._prov: Dict[Tuple[int, ...], MultiPoly] = {}

    def _coeffs(self, T: Tuple[int, ...]) -> List[Scaled]:
        return self.scoef[T[0]] if len(T) == 1 else self.prods[T]

    def provisional(self, j: int) -> List[MultiPoly]:
        """psi_j: the index-j right-hand sides with z_j = 0."""
        prov = self._prov = {}
        sprov: Dict[Tuple[int, ...], Scaled] = {}
        for T in self.prefixes:
            a, b = self._coeffs(T[:-1]), self.scoef[T[-1]]
            pairs = [(a[k], b[j - k]) for k in range(1, j)]
            if len(T) > 2:
                pairs.append((sprov[T[:-1]], b[0]))
            prov[T] = sum_products(pairs)
            sprov[T] = scaled(prov[T])
        psi = []
        for compiled in self.terms:
            pairs = []
            for scalar, factors, lag in compiled:
                k = j - lag
                if k < 0:
                    continue
                if not factors:
                    if k == 0:
                        pairs.append((scalar, SCALED_ONE))
                elif k < j:
                    pairs.append((self._coeffs(factors)[k], scalar))
                elif len(factors) > 1:
                    # k == j: a lone variable's index-j coefficient is z_j = 0
                    pairs.append((sprov[factors], scalar))
            psi.append(sum_products(pairs))
        return psi

    def extend(self, zj: Sequence[MultiPoly]):
        """Append the solved step-j coefficients z_j."""
        sz = [scaled(z) for z in zj]
        for i, z in enumerate(zj):
            self.coef[i].append(z)
            self.scoef[i].append(sz[i])
        delta: Dict[Tuple[int, ...], Scaled] = {}
        for T in self.prefixes:
            head, last = T[:-1], T[-1]
            dh = sz[head[0]] if len(head) == 1 else delta[head]
            d = sum_products([(self._coeffs(head)[0], sz[last]),
                              (dh, self.scoef[last][0])])
            delta[T] = scaled(d)
            self.prods[T].append(scaled(self._prov[T] + d))


def propagate(sys: VectorFieldSystem, bal: Balance, order: Optional[int] = None,
              resonances: Optional[Mapping[int, Tuple[str, str, object]]] = None
              ) -> LaurentFamily:
    """Compute the Laurent family seeded by a balance, exactly.

    `order` counts whole powers of t beyond the leading exponents and
    defaults to (largest resonance) + 4; it must reach past the last
    resonance, otherwise free parameters would silently go missing.  A
    fresh parameter symbol is adjoined at every solvable resonance;
    unsolvable ones raise PainleveObstruction with a left-null-vector
    certificate.  `resonances` maps a step j to (name, variable, scale):
    step j's first parameter is called name, and appears as exactly
    scale*name in that variable's step-j coefficient (this pins the
    normalization used in golden tests).

    The right-hand sides are evaluated relaxed (online; J. van der Hoeven,
    "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002): the
    coefficient lists of all monomial products are kept as running state
    (`_RelaxedSystem`), step j reads psi_j with z_j held at zero and then
    extends every product by its index-j coefficient.  With J = order*ell
    steps this costs O(J^2) coefficient products, where substituting the
    truncated series into every equation at every step cost O(J^3).
    The finished family is re-checked independently: `family_residual`
    substitutes the full series through `poly_on_series`.  An order above
    MAX_ORDER raises ValueError.
    """
    w = bal.weight_vector
    n = sys.dim
    kd = kowalewski(sys, bal)
    rational_eigs = {r for r, _ in kd.rational_eigs}
    ell, wint = _int_weights(sys.variables, w.weights)
    m = [wv for _, wv in wint]
    for i, f in enumerate(sys.equations):
        for key in f.nums:
            if _mono_weight(key, wint) > m[i] + ell:
                raise ValueError(
                    f"monomial in equation for {sys.variables[i]} exceeds the "
                    "dominant weight; weight vector inconsistent")

    max_res = max((r for r, _ in kd.rational_eigs
                   if r > 0 and (r * ell).denominator == 1), default=Fraction(0))
    if order is None:
        order = int(max_res) + 4
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above MAX_ORDER = {MAX_ORDER}")
    J = order * ell
    if J < int(max_res * ell) + 1:
        raise ValueError(
            f"order {order} stops before the last resonance at level {max_res}; "
            f"need order >= {int(max_res) + 1}")
    rhs = _RelaxedSystem(sys, m, ell, bal.leading)
    L = kd.matrix
    declared = resonances or {}
    params: List[str] = list(bal.free_symbols)
    met: List[Tuple[int, str]] = []
    taken = set(params) | set(sys.variables) | set(sys.constants)
    # c1, c2, ..., skipping a name taken when it comes up
    fresh = (nm for nm in (f"c{i}" for i in itertools.count(1)) if nm not in taken)

    for j in range(1, J + 1):
        psi = rhs.provisional(j)
        c = Fraction(j, ell)
        M = [[MultiPoly.const(c if i == jj else 0) - L[i][jj] for jj in range(n)]
             for i in range(n)]
        if c not in rational_eigs:
            try:
                zj = solve_square_exact(M, psi)
            except ValueError as exc:
                raise FamilyNotPolynomial(j, ell) from exc
        else:
            # each kernel vector is normalized to 1 at its free column and 0
            # at the others, or to `scale` at the slot column when the kernel
            # is one-dimensional and nonzero there
            free, basis = nullspace(M)
            spec = declared.get(j)
            names = iter(spec[:1] if spec else ())
            slot = sys.variables.index(spec[1]) if spec else None
            if (slot is not None and len(basis) == 1
                    and not basis[0][slot].is_zero):
                pins = {slot: MultiPoly.coerce(spec[2])}
            else:
                pins = {f: MultiPoly.const(1) for f in free}
            try:
                part = solve_with_pins(M, psi, {f: MultiPoly.zero() for f in pins})
            except InconsistentSystemError:
                # certificate: the left null vector, 1 at its first free
                # column, when the left kernel is one-dimensional
                lfree, lbasis = nullspace(list(zip(*M)))
                wvec = pairing = None
                if len(lbasis) == 1:
                    wvec = [x.exact_div(lbasis[0][lfree[0]]) for x in lbasis[0]]
                    pairing = sum((wvec[i] * psi[i] for i in range(n)),
                                  MultiPoly.zero())
                raise PainleveObstruction(j, ell, certificate=wvec,
                                          pairing=pairing)
            except (SingularMatrixError, ValueError) as exc:
                raise FamilyNotPolynomial(j, ell) from exc
            zj = list(part)
            for (f, scale), v in zip(pins.items(), basis):
                try:
                    kvec = [(x * scale).exact_div(v[f]) for x in v]
                except ValueError as exc:
                    raise FamilyNotPolynomial(j, ell) from exc
                name = next(names, None) or next(fresh)
                taken.add(name)
                s = MultiPoly.var(name)
                zj = [zj[i] + s * kvec[i] for i in range(n)]
                params.append(name)
                met.append((j, name))
        rhs.extend(zj)

    series = {
        sys.variables[i]: PuiseuxSeries(ell, -m[i], rhs.coef[i], -m[i] + J + 1)
        for i in range(n)
    }
    fam = LaurentFamily(system=sys, balance=bal, ell=ell, series=series,
                        free_parameters=tuple(params),
                        resonances=tuple(met), kowalewski=kd)
    bad = family_residual(fam)
    if bad:
        raise AssertionError(f"nonzero residual coefficients: {bad[:3]}")
    return fam


def family_residual(fam: LaurentFamily):
    """Exact residual z_i' - f_i(z) of a family; returns the list of
    (variable, exponent) positions with nonzero coefficients (empty for a
    genuine solution)."""
    sys = fam.system
    bad = []
    for i, v in enumerate(sys.variables):
        lhs = fam.series[v].deriv()
        rhs = poly_on_series(sys.equations[i], fam.series, fam.ell,
                             const_valid=lhs.valid)
        diff = lhs - rhs
        for e, cc in diff.terms():
            if not cc.is_zero:
                bad.append((v, e))
    return bad


# ---------------------------------------------------------------------------
# constraint varieties (Painlevé divisors)
# ---------------------------------------------------------------------------

@dataclass
class ConstraintVariety:
    relations: List[MultiPoly]          # H_i(t^0 coefficient) - value symbol
    value_names: List[str]
    eliminated: List[str]
    curve: Optional[MultiPoly]          # canonical reduced relation


class PolarPartError(ValueError):
    """A declared invariant fails to be constant along the family."""


def invariant_series(fam: LaurentFamily, name: str) -> PuiseuxSeries:
    H = fam.system.invariants[name]
    lowest = min((s.valid for s in fam.series.values()))
    return poly_on_series(H, fam.series, fam.ell, const_valid=lowest)


def _invariant_t0_window(fam: LaurentFamily, name: str) -> PuiseuxSeries:
    """`invariant_series` cut down to the exponents constraint_curve reads.

    With P the largest pole order (in units of 1/ell) of a monomial of H
    along the family, each series is truncated to k0 + P + 1 before it is
    substituted.  Every monomial product then stays exact below index 1,
    so the result equals invariant_series(fam, name) truncated to a window
    that is >= 1 whenever the full one is > 0 and equal to it otherwise:
    the polar part, the t^0 coefficient and the too-low-order test read
    the same values."""
    H = fam.system.invariants[name]
    k0s = [(shift(v), s.k0) for v, s in fam.series.items()]
    P = max([0] + [-sum(((key >> sh) & LIMIT) * k0 for sh, k0 in k0s)
                   for key in H.nums])
    env = {v: s.truncate(s.k0 + P + 1) for v, s in fam.series.items()}
    lowest = min(s.valid for s in fam.series.values())
    return poly_on_series(H, env, fam.ell, const_valid=min(lowest, P + 1))


def constraint_curve(sys: VectorFieldSystem, fam: LaurentFamily,
                     invariant_names: Sequence[str],
                     value_names: Optional[Sequence[str]] = None,
                     eliminate: Optional[Sequence[str]] = None
                     ) -> ConstraintVariety:
    """Substitute the family into invariants, demand polar parts vanish,
    collect the t^0 relations H_i = b_i, and eliminate the parameters that
    appear to degree exactly one (matching the linear eliminations of the
    source analyses).  The final relation is canonicalized by clearing
    denominators, stripping the common monomial, and fixing the lead sign.
    """
    if value_names is None:
        value_names = [f"b{i+1}" for i in range(len(invariant_names))]
    relations = []
    for nm, val in zip(invariant_names, value_names):
        S = _invariant_t0_window(fam, nm)
        if S.valid <= 0:
            raise ValueError(
                f"series order too low to stabilize the constant term of {nm}")
        for e, cc in S.terms():
            if e < 0 and not cc.is_zero:
                raise PolarPartError(
                    f"invariant {nm} has a nonzero coefficient at t^{e}: "
                    f"not conserved along the family")
        relations.append(S.coeff(0) - MultiPoly.var(val))

    if eliminate is None:
        eliminate = sorted(p for p in fam.free_parameters
                           if any(r.degree_in(p) > 0 for r in relations)
                           and all(r.degree_in(p) <= 1 for r in relations))
    def rank(C):
        return (0 if C.is_constant else 1, C.total_degree(), len(C.nums))

    work = list(relations)
    for p in list(eliminate):
        # the pivot: the first relation linear in p with the simplest coefficient
        pivots = [idx for idx, r in enumerate(work) if r.degree_in(p) == 1]
        if not pivots:
            continue
        cfs = work.pop(min(pivots, key=lambda idx: rank(work[idx].coeffs_in(p)[1]))).coeffs_in(p)
        work = [eliminate_linear(s, p, cfs[1], cfs.get(0, MultiPoly.zero())) for s in work]
    # the canonical relation: the first of least degree and fewest terms
    curve = min(work, key=lambda q: (q.total_degree(), len(q.nums))).primitive() if work else None
    return ConstraintVariety(relations=relations, value_names=list(value_names),
                             eliminated=list(eliminate), curve=curve)


# ---------------------------------------------------------------------------
# restoring morphisms
# ---------------------------------------------------------------------------

@dataclass
class MorphismReport:
    chain_rule_ok: bool
    failures: List[str]
    fractional_restored: Optional[bool] = None
    composed: Optional[Dict[str, PuiseuxSeries]] = None


def restoring_morphism_check(sys_src: VectorFieldSystem,
                             sys_dst: VectorFieldSystem,
                             morphism: Sequence[MultiPoly],
                             family: Optional[LaurentFamily] = None
                             ) -> MorphismReport:
    """Verify a polynomial map src -> dst intertwines the two flows, and
    (given a source family) that composing it kills fractional powers."""
    if len(morphism) != sys_dst.dim:
        raise ValueError("morphism component count must match target dimension")
    failures = []
    subs_map = dict(zip(sys_dst.variables, morphism))
    for k, phi in enumerate(morphism):
        dphi = sum((phi.diff(v) * f for v, f in zip(sys_src.variables, sys_src.equations)),
                   MultiPoly.zero())
        target = sys_dst.equations[k].subs(subs_map)
        if dphi != target:
            failures.append(sys_dst.variables[k])
    report = MorphismReport(chain_rule_ok=not failures, failures=failures)
    if family is not None:
        composed = {}
        ok = True
        lowest_valid = min(s.valid for s in family.series.values())
        for k, phi in enumerate(morphism):
            S = poly_on_series(phi, family.series, family.ell,
                               const_valid=lowest_valid)
            composed[sys_dst.variables[k]] = S
            for e, cc in S.terms():
                if e.denominator != 1 and not cc.is_zero:
                    ok = False
        report.fractional_restored = ok
        report.composed = composed
    return report


# ---------------------------------------------------------------------------
# report assembly (JSON-friendly)
# ---------------------------------------------------------------------------

def series_dict(s: PuiseuxSeries, order: Sequence[str]) -> Dict[str, str]:
    return {str(e): c.to_str(order) for e, c in s.terms()}


def principal_balances(sys: VectorFieldSystem, conv: PainleveConventions,
                       wvs: Optional[Sequence[WeightVector]] = None
                       ) -> List[Balance]:
    """The balances on conv.weights (on every one of `wvs`, by default
    detect_weights(sys), when None) that conv.principal keeps (all when
    None), renamed by conv.rename."""
    if wvs is None:
        wvs = detect_weights(sys)
    return [bal.rename_free(conv.rename)
            for wv in wvs
            if conv.weights is None or wv.weights == conv.weights
            for bal in indicial_solve(sys, wv)
            if conv.principal is None or conv.principal(bal)]


def principal_family(sys: VectorFieldSystem, bal: Balance,
                     conv: PainleveConventions, order: Optional[int] = None
                     ) -> Tuple[LaurentFamily, Dict[str, object]]:
    """(family, specialization): the family of `bal` at `order` (conv.order
    by default) with conv's resonances.  A family that is
    not polynomial in the balance symbols (hh5's, rational in alpha) is
    propagated again with every free symbol at 1, and those values are
    returned; otherwise the specialization is {}."""
    order = conv.order if order is None else order
    try:
        return propagate(sys, bal, order, conv.resonances), {}
    except FamilyNotPolynomial:
        values = {s: 1 for s in bal.free_symbols}
        return propagate(sys, bal.specialize(values), order, conv.resonances), values


def analyze(sys: VectorFieldSystem, order: int,
            conventions: Optional[PainleveConventions] = None) -> dict:
    """Full Painlevé report for a system: weights, the principal balances
    of `conventions` (the defaults keep every balance), resonances,
    series, parameter counts, constraint relations."""
    conv = conventions or PainleveConventions()
    sym_order = list(sys.variables) + list(sys.constants)
    report: dict = {"system": sys.name, "variables": list(sys.variables),
                    "weights": [], "balances": []}
    wvs = detect_weights(sys)
    for wv in wvs:
        report["weights"].append({
            "weights": [str(x) for x in wv.weights],
            "branching_index": wv.ell,
            "dominant_counts": [len(s) for s in wv.dominant_support],
            "lower_counts": [len(s) for s in wv.lower_terms],
        })
    for bal in principal_balances(sys, conv, wvs):
        entry = {
            "weights": [str(x) for x in bal.weight_vector.weights],
            "leading": {v: z.to_str(sym_order + list(bal.free_symbols))
                        for v, z in zip(sys.variables, bal.leading)},
            "label": conv.sheets.get(bal.label, bal.label),
        }
        report["balances"].append(entry)
        try:
            fam, specialized = principal_family(sys, bal, conv, order)
        except PainleveObstruction as exc:
            entry["obstruction"] = {
                "level": str(Fraction(exc.step, exc.ell)),
                "pairing": str(exc.pairing) if exc.pairing is not None else None,
            }
            continue
        except (ValueError, RuntimeError) as exc:
            entry["error"] = str(exc)
            continue
        if specialized:
            entry["specialized"] = {k: str(v) for k, v in specialized.items()}
        kd = fam.kowalewski
        porder = list(sym_order) + list(fam.free_parameters)
        explicit, with_t0 = fam.count_free_parameters()
        explicit += len(specialized)
        with_t0 += len(specialized)
        entry.update({
            "branching_index": fam.ell,
            "kowalewski_spectrum": [str(r) for r, _m in kd.rational_eigs
                                    for _ in range(_m)],
            "resonance_steps": [[j, nm] for j, nm in fam.resonances],
            "free_parameters": list(fam.free_parameters),
            "parameter_count": {"explicit": explicit,
                                "with_time_origin": with_t0},
            "series": {v: series_dict(s, porder)
                       for v, s in fam.series.items()},
        })
        if conv.curve_invariants:
            try:
                cv = constraint_curve(sys, fam, conv.curve_invariants,
                                      value_names=conv.value_names)
                entry["constraint"] = {
                    "relations": [r.to_str(porder + cv.value_names)
                                  for r in cv.relations],
                    "eliminated": cv.eliminated,
                    "curve": cv.curve.to_str(porder + cv.value_names)
                    if cv.curve is not None else None,
                }
            except (PolarPartError, ValueError) as exc:
                entry["constraint"] = {"error": str(exc)}
    return report
