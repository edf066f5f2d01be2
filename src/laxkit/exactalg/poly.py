"""Sparse multivariate polynomials over arbitrary-precision rationals.

A term is keyed by a tuple of (symbol, exponent) pairs sorted by symbol
name; the constant term has the empty key.  Coefficients are
fractions.Fraction and every stored coefficient is nonzero, so equality
of polynomials is equality of dicts.  All arithmetic is exact.

Printing uses graded lexicographic order (total degree first, then lex
over alphabetically ordered symbols), which keeps string output stable
enough to diff golden files against.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

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
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Q(other)
            if not c:
                return MultiPoly()
            return MultiPoly({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: Dict[Key, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _mul_key(k1, k2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return MultiPoly(out)

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
            kk = tuple(sorted(exps.items()))
            s = out.get(kk, Fraction(0)) + c * e
            if s:
                out[kk] = s
            else:
                out.pop(kk, None)
        return MultiPoly(out)

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Substitute symbols by polynomials/rationals; exact."""
        out = MultiPoly.zero()
        cache: Dict[Tuple[str, int], MultiPoly] = {}
        for k, c in self.terms.items():
            term = MultiPoly.const(c)
            for name, e in k:
                if name in mapping:
                    key = (name, e)
                    if key not in cache:
                        cache[key] = MultiPoly.coerce(mapping[name]) ** e
                    term = term * cache[key]
                else:
                    term = term * MultiPoly.var(name, e)
            out = out + term
        return out

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
        return {e: MultiPoly(d) for e, d in out.items()}

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
            quot[mk] = quot.get(mk, Fraction(0)) + mc
            for k2, c2 in d.terms.items():
                k = _mul_key(mk, k2)
                s = rem.get(k, Fraction(0)) - mc * c2
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return MultiPoly(quot)

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

