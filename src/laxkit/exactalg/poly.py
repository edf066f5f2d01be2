"""Sparse multivariate polynomials over arbitrary-precision rationals.

A term is keyed by a tuple of (symbol, exponent) pairs sorted by symbol
name; the constant term has the empty key.  A polynomial is stored in
content/primitive-part form, as integer numerators over one denominator
(Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992,
ch. 2): `den` is a positive int, the lcm of the coefficient
denominators, and `nums` a {key: int} dict of the numerators over den,
none of them zero, with gcd(den, *nums.values()) == 1.  The form is
canonical, so equality of polynomials is equality of (den, nums).  All
arithmetic is exact and runs on the ints: each operation puts its
operands over one common denominator, computes integer numerators and
normalises once, with one gcd(D, *values) (`from_ints`).  Fractions
appear only at the edges: the public constructor, `const_value`, `lead`,
`eval_exact`, printing, and `terms`, a fresh {key: Fraction} dict for
readers outside the kernel.

Printing uses graded lexicographic order (total degree first, then lex
over alphabetically ordered symbols), which keeps string output stable
enough to diff golden files against.

One kernel, `sum_products`, computes every exact sum of products
a1*b1 + a2*b2 + ...: each operand comes in its scaled form
`(L, [(key, int)])`, for a polynomial its own `(den, nums.items())`
(`scaled`); every pair is put over one common denominator, the products
are summed as Python ints, and the end result, times an optional
rational scale, is normalised once.  A product `a * b` of two
non-constant polynomials is the kernel's one-pair case (two one-term
factors skip it), and series products, Bareiss elimination, matrix
products, back substitution and substitution of polynomials hand it
whole sums.  `subs` at rational points evaluates each term on ints.

Dict order.  Sums insert a new key as it is and add only onto a key
already present.  A running sum that reaches zero drops its key, so it
is re-inserted at the end of the dict if it comes back; each pair's
product is summed on its own before it joins the running total.  So the
values and the dict order are those of `acc = acc + a * b` over the
pairs, one Fraction term at a time; an int numerator over a common
denominator is zero exactly when the Fraction is.  Kernel results skip
the validating constructor (`from_ints`, `_wrap`): they rely on every
key being canonical (a tuple of (symbol, exponent) pairs, sorted by
symbol, every exponent positive) and no numerator being zero.  The
public constructor checks and coerces its input.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _merge(out: Dict[Key, int], items) -> None:
    """Add (key, numerator) pairs into out, in order.  A new key is
    inserted as it is, an existing one summed, and a key whose sum cancels
    is dropped."""
    for k, c in items:
        if k in out:
            s = out[k] + c
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c


Scaled = Tuple[int, Iterable[Tuple[Key, int]]]
# the scaled form of the constant 1, the partner of a lone summand
SCALED_ONE: Scaled = (1, [((), 1)])


def scaled(p: "MultiPoly") -> Scaled:
    """(den, [(key, numerator)]): the operand form of `sum_products`."""
    return p.den, p.nums.items()


def sum_products(pairs: Iterable[Tuple[Scaled, Scaled]], scale: Scalar | None = None) -> "MultiPoly":
    """scale * (a1*b1 + a2*b2 + ...) for pairs of scaled operands, with the
    values and dict order of `acc = acc + a * b` summed pair by pair.

    An operand (L, [(key, n)]) is the polynomial with coefficients n / L;
    L need not be the least denominator.  The products are summed as ints
    over D, the lcm of the pairs' denominators (the sum so far is
    rescaled when a pair widens D), and the result is normalised once.
    Each pair's product is summed on its own before it joins the sum, so
    that its cancellations happen where the pairwise sum has them (a
    product with a one-term operand has distinct keys and cancels
    nothing)."""
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
    if out and scale is not None:
        scale = Q(scale)
        if not scale:
            return MultiPoly.zero()
        D *= scale.denominator
        if scale.numerator != 1:
            out = {k: n * scale.numerator for k, n in out.items()}
    return MultiPoly.from_ints(D, out)


def _key_deg(k: Key) -> int:
    return sum(e for _, e in k)


def _grlex_sort_key(k: Key):
    # Ascending sort by this key prints monomials in descending graded-lex
    # order (alphabetically earlier symbols rank higher).
    return (-_key_deg(k), tuple((name, -e) for name, e in k))


class MultiPoly:
    """Immutable sparse polynomial in named symbols over Q, stored as
    integer numerators `nums` over one denominator `den`."""

    __slots__ = ("den", "nums", "_floats")

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        clean: Dict[Key, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = Q(c) if not isinstance(c, Fraction) else c
                if c:
                    clean[k] = c
        den = lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", {k: c.numerator * (den // c.denominator)
                                          for k, c in clean.items()})

    @staticmethod
    def _wrap(den: int, nums: Dict[Key, int]) -> "MultiPoly":
        """A MultiPoly that owns nums, a dict the kernel built itself:
        canonical keys, nonzero numerators, already normalised over den.
        Not validated."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "den", den)
        object.__setattr__(p, "nums", nums)
        return p

    @staticmethod
    def from_ints(den: int, nums: Dict[Key, int]) -> "MultiPoly":
        """The polynomial with coefficients n / den, for a positive int den
        and a dict it owns of canonical keys to nonzero ints: one
        gcd(den, *nums.values()) puts it in normal form."""
        if not nums:
            return MultiPoly._wrap(1, {})
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: n // g for k, n in nums.items()}
        return MultiPoly._wrap(den, nums)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._wrap(1, {})

    @staticmethod
    def const(c) -> "MultiPoly":
        c = Q(c)
        return MultiPoly._wrap(c.denominator, {(): c.numerator} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return MultiPoly.const(1)
        return MultiPoly._wrap(1, {((name, exp),): 1})

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
    def terms(self) -> Dict[Key, Fraction]:
        """{key: Fraction coefficient} in term order, a fresh dict."""
        D = self.den
        return {k: Fraction(n, D) for k, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and () in nums)

    def const_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.nums.get((), 0), self.den)

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for k in self.nums:
            for n, _ in k:
                names.add(n)
        return tuple(sorted(names))

    def total_degree(self) -> int:
        if not self.nums:
            return 0
        return max(_key_deg(k) for k in self.nums)

    def degree_in(self, name: str) -> int:
        d = 0
        for k in self.nums:
            for n, e in k:
                if n == name and e > d:
                    d = e
        return d

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        other = MultiPoly.coerce(other)
        D = lcm(self.den, other.den)
        fa, fb = D // self.den, D // other.den
        out = {k: n * fa for k, n in self.nums.items()} if fa != 1 else dict(self.nums)
        _merge(out, [(k, n * fb) for k, n in other.nums.items()]
               if fb != 1 else other.nums.items())
        return MultiPoly.from_ints(D, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._wrap(self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            a, b = self.nums, other.nums
            if not a or not b:
                return MultiPoly.zero()
            # a constant factor is a scalar, a product of two one-term
            # factors one term; any other product is the one-pair case of
            # the kernel
            if len(b) == 1:
                (kb, nb), = b.items()
                if not kb:
                    return self._scale(nb, other.den)
                if len(a) == 1:
                    (ka, na), = a.items()
                    return MultiPoly.from_ints(self.den * other.den,
                                               {_mul_key(ka, kb): na * nb})
            if len(a) == 1 and () in a:
                return other._scale(a[()], self.den)
            return sum_products((((self.den, a.items()), (other.den, b.items())),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._scale(other.numerator, other.denominator)

    __rmul__ = __mul__

    def _scale(self, a: int, b: int) -> "MultiPoly":
        """self * a / b for ints a and b > 0."""
        if a == 1 and b == 1:
            return self
        return MultiPoly.from_ints(self.den * b, {k: n * a for k, n in self.nums.items()}
                                   if a else {})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
        elif isinstance(other, MultiPoly) and other.is_constant:
            n, d = other.nums.get((), 0), other.den
        else:
            raise TypeError("use exact_div for polynomial division")
        if not n:
            raise ZeroDivisionError("division by zero")
        return self._scale(d if n > 0 else -d, abs(n))

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
        # lowering one exponent maps distinct keys to distinct keys
        out: Dict[Key, int] = {}
        for k, n in self.nums.items():
            for i, (s, e) in enumerate(k):
                if s == name:
                    rest = k[i + 1:] if e == 1 else ((s, e - 1),) + k[i + 1:]
                    out[k[:i] + rest] = n * e
                    break
        return MultiPoly.from_ints(self.den, out)

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Substitute symbols by polynomials/rationals; exact.

        Each term is c times its unmapped symbols, as one monomial, times
        the mapped powers in key order; a monomial factor moves neither a
        value nor a dict position of a product, so this is the term
        multiplied out factor by factor and summed term by term.  When
        every mapped symbol of self takes a rational value p/q, a term is
        one monomial with coefficient c * p^e / q^e, computed on ints over
        one denominator; otherwise the terms are the pairs of one
        `sum_products` call."""
        nums = self.nums
        names = {n for k in nums for n, _ in k if n in mapping}
        if not names:
            return self
        vals = {n: MultiPoly.coerce(mapping[n]) for n in names}
        if all(v.is_constant for v in vals.values()):
            return self._subs_rational({n: (v.nums.get((), 0), v.den)
                                        for n, v in vals.items()})
        powers: Dict[Tuple[str, int], MultiPoly] = {}
        pairs = []
        for k, n in nums.items():
            mono, factor = [], None
            for name, e in k:
                if name in names:
                    pw = powers.get((name, e))
                    if pw is None:
                        pw = powers[(name, e)] = vals[name] ** e
                    factor = pw if factor is None else factor * pw
                else:
                    mono.append((name, e))
            pairs.append(((self.den, [(tuple(mono), n)]),
                          SCALED_ONE if factor is None else scaled(factor)))
        return sum_products(pairs)

    def _subs_rational(self, vals: Mapping[str, Tuple[int, int]]) -> "MultiPoly":
        """subs at rational values p/q: each term's numerator n * p^e *
        (M / q^e) over den * M, M the product of q^top, top the largest
        exponent of each mapped symbol, merged in term order."""
        top: Dict[str, int] = {}
        for k in self.nums:
            for name, e in k:
                if name in vals and e > top.get(name, 0):
                    top[name] = e
        M = 1
        for name, e in top.items():
            M *= vals[name][1] ** e
        out: Dict[Key, int] = {}
        for k, n in self.nums.items():
            rest, qe = [], 1
            for name, e in k:
                pq = vals.get(name)
                if pq is None:
                    rest.append((name, e))
                    continue
                p, q = pq
                if not p:
                    break
                n *= p ** e
                if q != 1:
                    qe *= q ** e
            else:
                if M != 1:
                    n *= M // qe
                _merge(out, ((tuple(rest), n),))
        return MultiPoly.from_ints(self.den * M, out)

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
        """Floating-point (or complex) evaluation; symbols must be assigned.

        Each coefficient is float(numerator) / float(denominator) of its
        reduced Fraction, converted once per polynomial."""
        try:
            floats = self._floats
        except AttributeError:
            floats = [(k, float(c.numerator) / float(c.denominator))
                      for k, c in self.terms.items()]
            object.__setattr__(self, "_floats", floats)
        total = 0.0
        for k, v in floats:
            for name, e in k:
                if name not in assignment:
                    raise KeyError(f"no value supplied for symbol '{name}'")
                v *= assignment[name] ** e
            total += v
        return total

    # -- structure helpers ----------------------------------------------
    def coeffs_in(self, name: str) -> Dict[int, "MultiPoly"]:
        """Decompose as sum_e coeff_e * name**e; returns {e: coeff_e}."""
        out: Dict[int, Dict[Key, int]] = {}
        for k, n in self.nums.items():
            e, rest = 0, k
            for i, (s, es) in enumerate(k):
                if s == name:
                    e, rest = es, k[:i] + k[i + 1:]
                    break
            out.setdefault(e, {})[rest] = n
        return {e: MultiPoly.from_ints(self.den, d) for e, d in out.items()}

    def lead(self) -> Tuple[Key, Fraction]:
        """Graded-lex leading term."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        k = min(self.nums, key=_grlex_sort_key)
        return k, Fraction(self.nums[k], self.den)

    def exact_div(self, d: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact polynomial quotient self/d; raises if not divisible.

        Runs on the numerators: with self = S / Ds and d = N / Dd, the
        quotient is (Dd / Ds) * S / N.  The remainder R / r is kept as
        ints over r, which grows by |lc| / gcd(lc, rc) when the next
        quotient coefficient rc / (r * lc) would not be an int over r."""
        d = MultiPoly.coerce(d)
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_constant:
            return self / d
        dnums = d.nums
        dk = min(dnums, key=_grlex_sort_key)
        dc = dnums[dk]
        rem = dict(self.nums)
        r = 1
        quot: List[Tuple[Key, int, int]] = []
        while rem:
            rk = min(rem, key=_grlex_sort_key)
            mk = _div_key(rk, dk)
            if mk is None:
                raise ValueError("not exactly divisible")
            rc = rem[rk]
            s = abs(dc) // gcd(rc, dc)
            if s != 1:
                rem = {k: n * s for k, n in rem.items()}
                r *= s
                rc *= s
            mc = rc // dc
            quot.append((mk, mc, r))
            _merge(rem, [(_mul_key(mk, k2), -mc * n2) for k2, n2 in dnums.items()])
        # every quotient term over the last r, times Dd / Ds
        f = d.den
        return MultiPoly.from_ints(r * self.den,
                                   {mk: mc * (r // rt) * f for mk, mc, rt in quot})

    def monomial_gcd(self) -> Key:
        """Largest monomial dividing every term."""
        if not self.nums:
            return ()
        common: Dict[str, int] | None = None
        for k in self.nums:
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
        g = gcd(*self.nums.values())
        p = MultiPoly._wrap(1, {k: n // g for k, n in self.nums.items()})
        mg = self.monomial_gcd()
        if mg:
            p = p.exact_div(MultiPoly._wrap(1, {mg: 1}))
        _, lc = p.lead()
        if lc < 0:
            p = -p
        return p

    # -- printing --------------------------------------------------------
    def to_str(self, order: Iterable[str] | None = None) -> str:
        terms = self.terms
        if not terms:
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
        for k in sorted(terms, key=keyfun):
            c = terms[k]
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
