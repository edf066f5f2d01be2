"""Sparse multivariate polynomials over arbitrary-precision rationals.

A term is keyed by a tuple of (symbol, exponent) pairs sorted by symbol
name; the constant term has the empty key.  Coefficients are
fractions.Fraction and every stored coefficient is nonzero, so equality
of polynomials is equality of dicts.  All arithmetic is exact.

Printing uses graded lexicographic order (total degree first, then lex
over alphabetically ordered symbols), which keeps string output stable
enough to diff golden files against.

The arithmetic normalises each output coefficient once.  One kernel,
`sum_products`, computes every exact sum of products a1*b1 + a2*b2 + ...:
each operand comes in its scaled form `(L, [(key, int)])`, L the lcm of
its denominators (`scaled`), every pair is put over one common
denominator, the products are summed as Python ints, and only the end
result is divided, once per key, by that denominator and multiplied by
an optional rational scale (the common-denominator technique; Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2).  A
product `a * b` is the kernel's one-pair case, and series products,
Bareiss elimination, matrix products and back substitution hand it whole
sums.  Sums insert a new key as it is and add only onto a key already
present.  A running sum that reaches zero drops its key, so it is
re-inserted at the end of the dict if it comes back; each pair's product
is summed on its own before it joins the running total.  So the values
and the dict order are those of `acc = acc + a * b` over the pairs, one
Fraction term at a time.  Results built this way are wrapped by
`MultiPoly._wrap` without validation; it relies on the invariant that
every key is canonical (a tuple of (symbol, exponent) pairs, sorted by
symbol, every exponent positive) and that no coefficient is zero.  The
public constructor checks and coerces its input.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Key = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]


def Q(x) -> Fraction:
    """Coerce ints, floats (exactly), strings like '3/4' and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _mul_key(a: Key, b: Key) -> Key:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _div_key(a: Key, b: Key):
    """a / b as a monomial, or None if some exponent would go negative."""
    exps = dict(a)
    for name, e in b:
        r = exps.get(name, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(name, None)
        else:
            exps[name] = r
    return tuple(sorted(exps.items()))


def _merge(out: Dict[Key, object], items) -> None:
    """Add (key, coefficient) pairs into out, in order.  A new key is
    inserted as it is, an existing one summed, and a key whose sum cancels
    is dropped.  Works on Fraction and on int coefficients alike."""
    for k, c in items:
        if k in out:
            s = out[k] + c
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c


Scaled = Tuple[int, List[Tuple[Key, int]]]
# the scaled form of the constant 1, the partner of a lone summand
SCALED_ONE: Scaled = (1, [((), 1)])


def scaled(p: "MultiPoly") -> Scaled:
    """(L, [(key, c * L)]) with L the lcm of the denominators of p, so every
    scaled coefficient is an int: the operand form of `sum_products`."""
    terms = p.terms
    if len(terms) == 1:
        (k, c), = terms.items()
        return c.denominator, [(k, c.numerator)]
    L = lcm(*[c.denominator for c in terms.values()])
    if L == 1:
        return 1, [(k, c.numerator) for k, c in terms.items()]
    return L, [(k, c.numerator * (L // c.denominator)) for k, c in terms.items()]


def sum_products(pairs: Iterable[Tuple[Scaled, Scaled]], scale: Scalar | None = None) -> "MultiPoly":
    """scale * (a1*b1 + a2*b2 + ...) for pairs of scaled operands, with the
    values and dict order of `acc = acc + a * b` summed pair by pair.

    The products are summed as ints over D, the lcm of the pairs'
    denominators (the sum so far is rescaled when a pair widens D), and
    each output coefficient becomes one Fraction, n * scale / D.  Each
    pair's product is summed on its own before it joins the sum, so that
    its cancellations happen where the pairwise sum has them (a product
    with a one-term operand has distinct keys and cancels nothing)."""
    out: Dict[Key, int] = {}
    D = 0
    for (La, sa), (Lb, sb) in pairs:
        if not sa or not sb:
            continue
        d = La * Lb
        if not D:
            D, f = d, 1
        elif D % d:
            g = lcm(D, d)
            out = {k: n * (g // D) for k, n in out.items()}
            D, f = g, g // d
        else:
            f = D // d
        if len(sa) == 1:
            (k1, n1), = sa
            n1 *= f
            prod = {_mul_key(k1, k2): n1 * n2 for k2, n2 in sb}
        elif len(sb) == 1:
            (k2, n2), = sb
            n2 *= f
            prod = {_mul_key(k1, k2): n1 * n2 for k1, n1 in sa}
        else:
            prod = {}
            for k1, n1 in sa:
                n1 *= f
                _merge(prod, [(_mul_key(k1, k2), n1 * n2) for k2, n2 in sb])
        if out:
            _merge(out, prod.items())
        else:
            out = prod
    if not out:
        return MultiPoly()
    if scale is not None:
        scale = Q(scale)
        if not scale:
            return MultiPoly()
        D *= scale.denominator
        if scale.numerator != 1:
            out = {k: n * scale.numerator for k, n in out.items()}
    if D == 1:
        return MultiPoly._wrap({k: Fraction(n) for k, n in out.items()})
    return MultiPoly._wrap({k: Fraction(n, D) for k, n in out.items()})


def _key_deg(k: Key) -> int:
    return sum(e for _, e in k)


def _grlex_sort_key(k: Key):
    # Ascending sort by this key prints monomials in descending graded-lex
    # order (alphabetically earlier symbols rank higher).
    return (-_key_deg(k), tuple((name, -e) for name, e in k))


class MultiPoly:
    """Immutable sparse polynomial in named symbols over Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        clean: Dict[Key, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = Q(c) if not isinstance(c, Fraction) else c
                if c:
                    clean[k] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _wrap(terms: Dict[Key, Fraction]) -> "MultiPoly":
        """A MultiPoly that owns terms, a dict the kernel built itself:
        canonical keys, nonzero Fraction coefficients.  Not validated."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly({(): Q(c)})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return MultiPoly.const(1)
        return MultiPoly({((name, exp),): Fraction(1)})

    @staticmethod
    def monomial(coeff, **exps) -> "MultiPoly":
        key = tuple(sorted((n, e) for n, e in exps.items() if e))
        return MultiPoly({key: Q(coeff)})

    @staticmethod
    def coerce(x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(x)

    # -- predicates / views -------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((), Fraction(0))

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for k in self.terms:
            for n, _ in k:
                names.add(n)
        return tuple(sorted(names))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_key_deg(k) for k in self.terms)

    def degree_in(self, name: str) -> int:
        d = 0
        for k in self.terms:
            for n, e in k:
                if n == name and e > d:
                    d = e
        return d

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        other = MultiPoly.coerce(other)
        out = dict(self.terms)
        _merge(out, other.terms.items())
        return MultiPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            a, b = self.terms, other.terms
            if not a or not b:
                return MultiPoly()
            # a constant factor is a scalar; any other product is the
            # one-pair case of the kernel
            if len(b) == 1 and () in b:
                other = b[()]
            elif len(a) == 1 and () in a:
                self, other = other, a[()]
            else:
                return sum_products(((scaled(self), scaled(other)),))
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Q(other)
        if not c:
            return MultiPoly()
        return MultiPoly._wrap({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Q(other))
        if isinstance(other, MultiPoly) and other.is_constant:
            return self * (Fraction(1) / other.const_value())
        raise TypeError("use exact_div for polynomial division")

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n == 1:
            return self
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus / substitution ---------------------------------------
    def diff(self, name: str) -> "MultiPoly":
        out: Dict[Key, Fraction] = {}
        for k, c in self.terms.items():
            exps = dict(k)
            e = exps.get(name, 0)
            if not e:
                continue
            if e == 1:
                exps.pop(name)
            else:
                exps[name] = e - 1
            _merge(out, [(tuple(sorted(exps.items())), c * e)])
        return MultiPoly._wrap(out)

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Substitute symbols by polynomials/rationals; exact."""
        if not any(n in mapping for k in self.terms for n, _ in k):
            return self
        # each term is c times its unmapped symbols, as one monomial, times
        # the mapped powers in key order; a monomial factor moves neither a
        # value nor a dict position of a product, so this is the term
        # multiplied out factor by factor
        out: Dict[Key, Fraction] = {}
        cache: Dict[Tuple[str, int], MultiPoly] = {}
        for k, c in self.terms.items():
            term = MultiPoly._wrap({tuple(p for p in k if p[0] not in mapping): c})
            for name, e in k:
                if name in mapping:
                    key = (name, e)
                    if key not in cache:
                        cache[key] = MultiPoly.coerce(mapping[name]) ** e
                    term = term * cache[key]
            _merge(out, term.terms.items())
        return MultiPoly._wrap(out)

    def eval_exact(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; every symbol must be assigned."""
        total = Fraction(0)
        for k, c in self.terms.items():
            v = c
            for name, e in k:
                if name not in assignment:
                    raise KeyError(f"no value supplied for symbol '{name}'")
                v *= Q(assignment[name]) ** e
            total += v
        return total

    def eval_num(self, assignment: Mapping[str, complex]):
        """Floating-point (or complex) evaluation; symbols must be assigned."""
        total = 0.0
        for k, c in self.terms.items():
            v = float(c.numerator) / float(c.denominator)
            for name, e in k:
                if name not in assignment:
                    raise KeyError(f"no value supplied for symbol '{name}'")
                v *= assignment[name] ** e
            total += v
        return total

    # -- structure helpers ----------------------------------------------
    def coeffs_in(self, name: str) -> Dict[int, "MultiPoly"]:
        """Decompose as sum_e coeff_e * name**e; returns {e: coeff_e}."""
        out: Dict[int, Dict[Key, Fraction]] = {}
        for k, c in self.terms.items():
            exps = dict(k)
            e = exps.pop(name, 0)
            kk = tuple(sorted(exps.items()))
            out.setdefault(e, {})[kk] = c
        return {e: MultiPoly._wrap(d) for e, d in out.items()}

    def lead(self) -> Tuple[Key, Fraction]:
        """Graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = min(self.terms, key=_grlex_sort_key)
        return k, self.terms[k]

    def exact_div(self, d: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact polynomial quotient self/d; raises if not divisible."""
        d = MultiPoly.coerce(d)
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_constant:
            return self / d.const_value()
        dk, dc = d.lead()
        rem = dict(self.terms)
        quot: Dict[Key, Fraction] = {}
        while rem:
            rk = min(rem, key=_grlex_sort_key)
            rc = rem[rk]
            mk = _div_key(rk, dk)
            if mk is None:
                raise ValueError("not exactly divisible")
            mc = rc / dc
            _merge(quot, [(mk, mc)])
            _merge(rem, [(_mul_key(mk, k2), -(mc * c2)) for k2, c2 in d.terms.items()])
        return MultiPoly._wrap(quot)

    def monomial_gcd(self) -> Key:
        """Largest monomial dividing every term."""
        if not self.terms:
            return ()
        common: Dict[str, int] | None = None
        for k in self.terms:
            exps = dict(k)
            if common is None:
                common = exps
            else:
                common = {n: min(e, exps[n]) for n, e in common.items() if n in exps}
            if not common:
                return ()
        return tuple(sorted((n, e) for n, e in common.items() if e > 0))

    def primitive(self) -> "MultiPoly":
        """Clear denominators, divide out integer content and the common
        monomial factor, and normalize the graded-lex lead sign to +."""
        if self.is_zero:
            return self
        from math import gcd, lcm
        den = lcm(*[c.denominator for c in self.terms.values()])
        num = gcd(*[c.numerator for c in self.terms.values()])
        scale = Fraction(den, num if num else 1)
        p = self * scale
        mg = self.monomial_gcd()
        if mg:
            p = p.exact_div(MultiPoly({mg: Fraction(1)}))
        _, lc = p.lead()
        if lc < 0:
            p = -p
        return p

    # -- printing --------------------------------------------------------
    def to_str(self, order: Iterable[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if order is not None:
            rank = {n: i for i, n in enumerate(order)}

            def keyfun(k: Key):
                return (-_key_deg(k),
                        tuple((rank.get(n, len(rank)), n, -e) for n, e in
                              sorted(k, key=lambda p: (rank.get(p[0], len(rank)), p[0]))))
        else:
            keyfun = _grlex_sort_key
        parts = []
        for k in sorted(self.terms, key=keyfun):
            c = self.terms[k]
            factors = []
            if order is not None:
                rank = {n: i for i, n in enumerate(order)}
                items = sorted(k, key=lambda p: (rank.get(p[0], len(rank)), p[0]))
            else:
                items = k
            for name, e in items:
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                ac = abs(c)
                body = mono if ac == 1 else f"{ac}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        s = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            s += f" {sign} {body}"
        return s

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MultiPoly({self.to_str()})"


def eliminate_linear(q: MultiPoly, x: str, C: MultiPoly, D: MultiPoly) -> MultiPoly:
    """Eliminate x from q with C*x + D = 0: the polynomial C^d * q(-D/C),
    d the degree of q in x, that is sum_k q_k (-D)^k C^(d-k)."""
    qc = q.coeffs_in(x)
    d = max(qc) if qc else 0
    acc = MultiPoly.zero()
    for k, ck in qc.items():
        acc = acc + ck * ((-D) ** k) * (C ** (d - k))
    return acc

