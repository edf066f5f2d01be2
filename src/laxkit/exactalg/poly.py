"""Sparse multivariate polynomials over arbitrary-precision rationals.

A term's key is its monomial packed into one int (S. C. Johnson, 1974;
M. Monagan and R. Pearce, CASC 2007).  A process-wide, grow-only symbol
table gives a symbol, the first time it is seen, a 16-bit field at bit
offset `shift(name)`; the constant term has key 0.  An exponent is at
most LIMIT = 2**15 - 1, so the top bit of each field is a guard: a key
product is the int sum a + b, overflowed where it sets a guard bit, and
a / b is the monomial a - b when (a | guards) - b keeps every guard bit.
An exponent over LIMIT raises OverflowError naming the symbol and the
limit, never a wrong key.  Fields are in first-seen order, so ints do not
sort as monomials do: every sort of keys sorts the tuple form `unpack(k)`,
(symbol, exponent) pairs sorted by symbol.  The public constructor and
`monomial` pack tuple keys; `terms`, printing, `lead`, `variables` and
`monomial_gcd` unpack.

A polynomial is integer numerators over one denominator (Geddes, Czapor
and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2): `den` is a
positive int, the lcm of the coefficient denominators, and `nums` a
{key: int} dict of nonzero numerators over den, with gcd(den,
*nums.values()) == 1.  The form is canonical, so equality is equality of
(den, nums).  Fractions appear only at the edges: the public
constructor, `const_value`, `lead`, `eval_exact`, printing and `terms`.
Printing uses graded lexicographic order (total degree first, then lex
over alphabetically ordered symbols).

One kernel, `sum_products`, computes every exact sum of products
a1*b1 + a2*b2 + ... as ints over one common denominator: products,
series products, Bareiss elimination, back substitution and `subs`.

Dict order.  Sums insert a new key as it is and add only onto a key
already present; a running sum that reaches zero drops its key, which
is re-inserted at the end if it comes back.  So the values and the dict
order are those of `acc = acc + a * b` over the pairs, one Fraction term
at a time.  Kernel results skip the validating constructor (`from_ints`,
`_wrap`): every key is packed and no numerator is zero.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Key = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

_W = 16                          # bits per field
LIMIT = (1 << (_W - 1)) - 1      # the largest exponent, and a field's mask
_SHIFT: Dict[str, int] = {}      # symbol -> bit offset of its field
_NAMES: List[str] = []           # field index -> symbol
_GUARD = 0                       # the guard bit of every field in use
_FIELD = (1 << _W) - 1           # a whole field, guard bit included


def Q(x) -> Fraction:
    """Coerce ints, floats (exactly), strings like '3/4' and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def shift(name: str) -> int:
    """The bit offset of name's field; a new symbol gets the next field.
    The exponent of name in key k is (k >> shift(name)) & LIMIT."""
    s = _SHIFT.get(name)
    if s is None:
        global _GUARD
        s = _SHIFT[name] = _W * len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (s + _W - 1)
    return s


def _field(name: str, e: int) -> int:
    if e < 0:
        raise ValueError("negative exponent")
    if e > LIMIT:
        raise OverflowError(f"exponent {e} of {name!r} is over the limit "
                            f"{LIMIT} of a monomial key field")
    return e << shift(name)


def pack(key: Key) -> int:
    """The int key of a tuple of (symbol, exponent) pairs."""
    k = sum(_field(n, e) for n, e in key)
    _checked((k,))      # a symbol given twice adds its exponents
    return k


def unpack(k: int) -> Key:
    """The tuple key of an int key, pairs sorted by symbol name."""
    out = []
    while k:
        s = ((k & -k).bit_length() - 1) // _W * _W
        e = (k >> s) & _FIELD
        out.append((_NAMES[s // _W], e))
        k -= e << s
    out.sort()
    return tuple(out)


def _checked(nums: Dict[int, int]) -> Dict[int, int]:
    """nums, whose keys are sums of keys, if no field overflowed: a sum past
    a guard bit is still its exponent vector, so one that cancelled was
    exact; one that is left raises."""
    for k in nums:
        g = k & _GUARD
        if g:
            s = (g & -g).bit_length() - _W
            _field(_NAMES[s // _W], (k >> s) & _FIELD)
    return nums


def _merge(out: Dict[int, int], items) -> None:
    """Add (key, numerator) pairs into out, in order: a new key is
    inserted, an existing one summed, and one whose sum cancels dropped."""
    for k, c in items:
        if k in out:
            s = out[k] + c
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c


Scaled = Tuple[int, Iterable[Tuple[int, int]]]
# the scaled form of the constant 1, the partner of a lone summand
SCALED_ONE: Scaled = (1, [(0, 1)])


def scaled(p: "MultiPoly") -> Scaled:
    """(den, [(key, numerator)]): the operand form of `sum_products`."""
    return p.den, p.nums.items()


def sum_products(pairs: Iterable[Tuple[Scaled, Scaled]], scale: Scalar | None = None) -> "MultiPoly":
    """scale * (a1*b1 + a2*b2 + ...) for pairs of scaled operands, with the
    values and dict order of `acc = acc + a * b` summed pair by pair.

    An operand (L, [(key, n)]) is the polynomial with coefficients n / L.
    The products are summed as ints over D, the lcm of the pairs'
    denominators (the sum so far is rescaled when a pair widens D).  Each
    pair's product is summed on its own before it joins the sum, so that
    its cancellations happen where the pairwise sum has them."""
    out: Dict[int, int] = {}
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
            prod = {k1 + k2: n1 * n2 for k2, n2 in sb}
        elif len(sb) == 1:
            (k2, n2), = sb
            n2 *= f
            prod = {k1 + k2: n1 * n2 for k1, n1 in sa}
        else:
            prod = {}
            for k1, n1 in sa:
                n1 *= f
                _merge(prod, [(k1 + k2, n1 * n2) for k2, n2 in sb])
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
    return MultiPoly.from_ints(D, _checked(out))


def _key_deg(k: Key) -> int:
    return sum(e for _, e in k)


def _grlex_sort_key(k: int):
    # Ascending sort by this key puts monomials in descending graded-lex
    # order (alphabetically earlier symbols rank higher): on the tuple form
    t = unpack(k)
    return (-_key_deg(t), tuple((name, -e) for name, e in t))


class MultiPoly:
    """Immutable sparse polynomial in named symbols over Q, stored as
    integer numerators `nums` over one denominator `den`."""

    __slots__ = ("den", "nums", "_floats")

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        clean: Dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = Q(c) if not isinstance(c, Fraction) else c
                if c:
                    clean[pack(k)] = c
        den = lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", {k: c.numerator * (den // c.denominator)
                                          for k, c in clean.items()})

    @staticmethod
    def _wrap(den: int, nums: Dict[int, int]) -> "MultiPoly":
        """A MultiPoly that owns nums, a dict the kernel built itself:
        packed keys, nonzero numerators, normalised over den; unchecked."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "den", den)
        object.__setattr__(p, "nums", nums)
        return p

    @staticmethod
    def from_ints(den: int, nums: Dict[int, int]) -> "MultiPoly":
        """The polynomial with coefficients n / den, for a positive int den
        and a dict it owns of packed keys to nonzero ints, normalised."""
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
        return MultiPoly._wrap(c.denominator, {0: c.numerator} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        if exp == 0:
            return MultiPoly.const(1)
        return MultiPoly._wrap(1, {_field(name, exp): 1})

    @staticmethod
    def monomial(coeff, **exps) -> "MultiPoly":
        return MultiPoly({tuple(exps.items()): Q(coeff)})

    @staticmethod
    def coerce(x) -> "MultiPoly":
        return x if isinstance(x, MultiPoly) else MultiPoly.const(x)

    # -- predicates / views -------------------------------------------
    @property
    def terms(self) -> Dict[Key, Fraction]:
        """{tuple key: Fraction coefficient} in term order, a fresh dict."""
        D = self.den
        return {unpack(k): Fraction(n, D) for k, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def const_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.nums.get(0, 0), self.den)

    def support_mask(self) -> int:
        """The OR of the keys: a symbol occurs iff its field here is nonzero."""
        m = 0
        for k in self.nums:
            m |= k
        return m

    def variables(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in unpack(self.support_mask()))

    def total_degree(self) -> int:
        return max((_key_deg(unpack(k)) for k in self.nums), default=0)

    def degree_in(self, name: str) -> int:
        s = _SHIFT.get(name)
        return 0 if s is None else max(((k >> s) & LIMIT for k in self.nums), default=0)

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
                                               _checked({ka + kb: na * nb}))
            if len(a) == 1 and 0 in a:
                return other._scale(a[0], self.den)
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
            n, d = other.nums.get(0, 0), other.den
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
        s = _SHIFT.get(name)
        out: Dict[int, int] = {}
        if s is not None:
            one = 1 << s
            for k, n in self.nums.items():
                e = (k >> s) & LIMIT
                if e:
                    out[k - one] = n * e
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
        m = self.support_mask()
        mapped = []
        for name in mapping:
            s = _SHIFT.get(name)
            if s is not None and (m >> s) & LIMIT:
                mapped.append((name, s))
        if not mapped:
            return self
        mapped.sort()
        vals = {n: MultiPoly.coerce(mapping[n]) for n, _ in mapped}
        if all(v.is_constant for v in vals.values()):
            return self._subs_rational([(s, vals[n].nums.get(0, 0), vals[n].den)
                                        for n, s in mapped])
        powers: Dict[Tuple[str, int], MultiPoly] = {}
        pairs = []
        for k, n in nums.items():
            mono, factor = k, None
            for name, s in mapped:
                e = (k >> s) & LIMIT
                if e:
                    mono -= e << s
                    pw = powers.get((name, e))
                    if pw is None:
                        pw = powers[(name, e)] = vals[name] ** e
                    factor = pw if factor is None else factor * pw
            pairs.append(((self.den, [(mono, n)]),
                          SCALED_ONE if factor is None else scaled(factor)))
        return sum_products(pairs)

    def _subs_rational(self, vals: List[Tuple[int, int, int]]) -> "MultiPoly":
        """subs at rational values p/q, given as (shift, p, q): each term's
        numerator n * p^e * (M / q^e) over den * M, M the product of q^top,
        top the largest exponent of each mapped symbol, merged in term
        order."""
        M = 1
        for s, _, q in vals:
            if q != 1:
                M *= q ** max((k >> s) & LIMIT for k in self.nums)
        out: Dict[int, int] = {}
        for k, n in self.nums.items():
            rest, qe = k, 1
            for s, p, q in vals:
                e = (k >> s) & LIMIT
                if not e:
                    continue
                if not p:
                    break
                rest -= e << s
                n *= p ** e
                if q != 1:
                    qe *= q ** e
            else:
                if M != 1:
                    n *= M // qe
                _merge(out, ((rest, n),))
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

        Each coefficient is float(c) of its Fraction, rounded once and
        converted once per polynomial."""
        try:
            floats = self._floats
        except AttributeError:
            floats = [(k, float(c)) for k, c in self.terms.items()]
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
        s = _SHIFT.get(name)
        if s is None:
            return {0: self} if self.nums else {}
        out: Dict[int, Dict[int, int]] = {}
        for k, n in self.nums.items():
            e = (k >> s) & LIMIT
            out.setdefault(e, {})[k - (e << s)] = n
        return {e: MultiPoly.from_ints(self.den, d) for e, d in out.items()}

    def lead(self) -> Tuple[Key, Fraction]:
        """Graded-lex leading term."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        k = min(self.nums, key=_grlex_sort_key)
        return unpack(k), Fraction(self.nums[k], self.den)

    def exact_div(self, d: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact polynomial quotient self/d; raises if not divisible.

        Runs on the numerators: with self = S / Ds and d = N / Dd, the
        quotient is (Dd / Ds) * S / N.  The remainder R / r is kept as
        ints over r, which grows by |lc| / gcd(lc, rc) when the next
        quotient coefficient rc / (r * lc) would not be an int over r.
        Were the division exact, every remainder key would divide a key
        of self, so one past a field's limit means it is not."""
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
        quot: List[Tuple[int, int, int]] = []
        rank: Dict[int, tuple] = {}     # this call's grlex sort keys
        G = _GUARD
        while rem:
            rk = min(rem, key=lambda k: rank.get(k) or rank.setdefault(k, _grlex_sort_key(k)))
            if ((rk | G) - dk) & G != G:
                raise ValueError("not exactly divisible")
            mk = rk - dk
            rc = rem[rk]
            s = abs(dc) // gcd(rc, dc)
            if s != 1:
                rem = {k: n * s for k, n in rem.items()}
                r *= s
                rc *= s
            mc = rc // dc
            quot.append((mk, mc, r))
            prods = [(mk + k2, -mc * n2) for k2, n2 in dnums.items()]
            if any(k & G for k, _ in prods):
                raise ValueError("not exactly divisible")
            _merge(rem, prods)
        # every quotient term over the last r, times Dd / Ds
        f = d.den
        return MultiPoly.from_ints(r * self.den,
                                   {mk: mc * (r // rt) * f for mk, mc, rt in quot})

    def monomial_gcd(self) -> Key:
        """Largest monomial dividing every term: the fieldwise min of the
        keys, taking k's field where g's is at least as large (its guard
        bit is kept in (g | guards) - k)."""
        G, keys = _GUARD, iter(self.nums)
        g = next(keys, 0)
        for k in keys:
            t = ((g | G) - k) & G
            sel = t - (t >> (_W - 1))
            g = (k & sel) | (g & ~sel)
            if not g:
                break
        return unpack(g)

    def primitive(self) -> "MultiPoly":
        """Clear denominators, divide out integer content and the common
        monomial factor, and normalize the graded-lex lead sign to +."""
        if self.is_zero:
            return self
        g = gcd(*self.nums.values())
        p = MultiPoly._wrap(1, {k: n // g for k, n in self.nums.items()})
        mg = pack(self.monomial_gcd())
        if mg:
            p = p.exact_div(MultiPoly._wrap(1, {mg: 1}))
        _, lc = p.lead()
        if lc < 0:
            p = -p
        return p

    # -- printing --------------------------------------------------------
    def to_str(self, order: Iterable[str] | None = None) -> str:
        """Terms in graded-lex order; symbols listed in `order` rank first,
        in that order, within a term and between terms."""
        terms = self.terms
        if not terms:
            return "0"
        rank = {n: i for i, n in enumerate(order or ())}
        tail = len(rank)
        placed = {k: sorted(k, key=lambda p: (rank.get(p[0], tail), p[0])) for k in terms}
        s = ""
        for k in sorted(terms, key=lambda k: (-_key_deg(k), tuple(
                (rank.get(n, tail), n, -e) for n, e in placed[k]))):
            c, ac = terms[k], abs(terms[k])
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in placed[k])
            s += (" - " if c < 0 else " + ") if s else ("-" if c < 0 else "")
            s += (mono if ac == 1 else f"{ac}*{mono}") if mono else str(ac)
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
