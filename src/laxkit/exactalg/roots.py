"""Real and rational roots of univariate polynomials.

Two routes, both exact.  The Sturm route (real_roots, rational_roots)
takes any polynomial.  Yun's square-free decomposition gives the
multiplicities.  Each square-free factor is cleared to an integer
polynomial f, and its real roots are isolated once, by bisection on a
Sturm chain whose members are primitive integer polynomials (each a
positive multiple of the classical chain f, f', -rem, ..., so every
sign count is the same).  Signs are taken at rational points n/d with a
homogenised integer Horner step, the sign of d^deg p(n/d); no Fraction
arithmetic runs inside the evaluations.

Rational roots are read off the isolating intervals.  A rational root of
f is k/lc(f) for an integer k, so once an interval is narrower than
1/lc(f) it holds at most one candidate, and one exact evaluation decides
it.  An irrational root is bisected further on the same interval until
its ends round to the same or to adjacent doubles, and is rounded to the
nearest double by the sign of f at their midpoint: every float root is
correctly rounded, whatever the polynomial's conditioning.

Cost: one pseudo-remainder chain per factor, then about
log2(cauchy_bound * lc(f)) bisection steps per rational test and about
log2(cauchy_bound / ulp(x)) more per irrational root x, each a few
integer Horner steps.  That is polynomial in the bit size of the
coefficients; the trial division of the constant term used before was
exponential in it (x10 time per two digits, and a period-3 Jacobi
discriminant never finished).  Both loops are capped by this count: a
bisection that has not settled after (B + 2) + min(B + 54, 1074) + 2
halvings, B the largest coefficient bit length, or a midpoint still a
root after deg f nudges, raises RuntimeError naming the cap.

The seeded route (nearest_roots) takes a polynomial together with one
double near each root, as the float eigenvalues of a matrix give for its
characteristic polynomial, and returns exactly what real_roots would,
each root as a double.  It works on the whole primitive integer
polynomial f of degree d, before any square-free decomposition, and on
doubles only, in their integer order (adjacent doubles one apart).
From each seed it steps out by 1, 2, 4, ... doubles until f changes
sign, or is 0, taking each sign exactly at a double with the same Horner
step; it halves that bracket on the order of the doubles down to two
adjacent doubles, and the sign of f at their midpoint picks the nearer.
The certificate (S. M. Rump, Acta Numerica 19, 2010): d disjoint
brackets, each a sign change or a zero, hold d roots, so every root of
f is real and simple and each bracket holds exactly one.  Anything else
-- a seed count that is not d, a seed that is not finite, a walk that
has not changed sign within 64 doublings (which span every finite
double), brackets that overlap (a double root, a cluster within
roundoff) or a midpoint that is a root -- sends that polynomial down the
Sturm route instead.  The cost is about log2 of each seed's distance
from its root in doubles, plus 64 halvings at most, per root: no Sturm
chain, no Fraction midpoints, no square-free decomposition.

Every coefficient is coerced with Q, so a float coefficient is read as
the rational it stores; there is no floating-point root finder.

Polynomials are dense ascending coefficient lists.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, frexp, gcd, inf, isfinite, lcm, ldexp, nextafter
from typing import List, Sequence, Tuple

from .poly import Q


def _strip(p: List) -> List:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


# -- Fraction polynomials: square-free decomposition --------------------------

def poly_deriv_frac(p: Sequence[Fraction]) -> List[Fraction]:
    return [c * i for i, c in enumerate(p)][1:]


def _divmod_frac(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = _strip(list(a))
    b = _strip(list(b))
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and _strip(r):
        r = _strip(r)
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r = r[:-1]
    return _strip(q), _strip(r)


def _gcd_frac(a, b):
    a, b = _strip(a), _strip(b)
    while b:
        _, r = _divmod_frac(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def square_free_decomposition(p: Sequence[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Yun-style decomposition: [(factor, multiplicity), ...]."""
    p = _strip([Q(c) for c in p])
    if len(p) <= 1:
        return []
    out = []
    g = _gcd_frac(p, poly_deriv_frac(p))
    w, _ = _divmod_frac(p, g)
    m = 1
    while len(w) > 1:
        y = _gcd_frac(w, g)
        f, _ = _divmod_frac(w, y)
        if len(f) > 1:
            out.append((f, m))
        w = y
        g, _ = _divmod_frac(g, y)
        m += 1
    return out


# -- integer kernel -------------------------------------------------------------

def _cleared(p: Sequence[Fraction]) -> List[int]:
    """den * p as integers, den the lcm of the denominators."""
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p]


def _primitive(p: Sequence[int]) -> List[int]:
    """p divided by the gcd of its coefficients: a positive multiple."""
    p = _strip(p)
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a: List[int], b: List[int]) -> List[int]:
    """A positive multiple of the remainder of a on division by b."""
    if b[-1] < 0:
        b = [-c for c in b]
    lb, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        c, k = r[-1], len(r) - 1 - db
        r = [lb * x for x in r]
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r = _strip(r[:-1])
    return r


def _quo(a: List[int], b: List[int]) -> List[int]:
    """Exact quotient of integer polynomials when b is primitive and divides a."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] // b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
    return q


def _chain(f: List[int]) -> List[List[int]]:
    """Sturm chain of primitive integer polynomials; it ends at gcd(f, f')."""
    chain = [f]
    if len(f) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(f)][1:]))
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _powers(d: int, k: int) -> List[int]:
    pw = [1]
    for _ in range(k):
        pw.append(pw[-1] * d)
    return pw


def _sign(p: List[int], n: int, pw: List[int]) -> int:
    """Sign of p(n/d), d > 0, with pw[i] = d^i: homogenised Horner on
    the integer d^deg p(n/d)."""
    deg = len(p) - 1
    v = p[deg]
    for i in range(1, deg + 1):
        v = v * n + p[deg - i] * pw[i]
    return (v > 0) - (v < 0)


def _sign_at(p: List[int], x: Fraction) -> int:
    return _sign(p, x.numerator, _powers(x.denominator, len(p) - 1))


def _variations(chain: List[List[int]], x: Fraction) -> int:
    pw = _powers(x.denominator, len(chain[0]) - 1)
    count, prev = 0, 0
    for p in chain:
        s = _sign(p, x.numerator, pw)
        if s:
            count += prev == -s
            prev = s
    return count


def _nudge_cap(f: List[int]) -> int:
    """Nudges of a midpoint off a root of f: f has at most deg f roots, so
    deg f nudges to distinct points always reach a nonzero value."""
    return len(f) - 1


def _bisection_cap(f: List[int]) -> int:
    """Halvings that take an isolating interval of f, f(0) != 0, to ends
    that round to the same or to adjacent doubles.  With B the largest
    coefficient bit length, the Cauchy bounds put every root x at
    2^-(B+1) < |x| < 2^(B+1), so the interval is narrower than 2^(B+2), and
    doubles near x lie at least 2^-(B+54) apart, never closer than 2^-1074;
    two more steps leave room at the binade edges.  The same count covers
    the 1/lc(f) of the rational test, which needs only B + 2."""
    bits = max(abs(c).bit_length() for c in f)
    return (bits + 2) + min(bits + 54, 1074) + 2


def _isolate(f: List[int], chain: List[List[int]]) -> List[Tuple[Fraction, Fraction]]:
    """Sorted disjoint intervals (lo, hi), one root of the square-free f
    in each, f(lo) f(hi) != 0, by bisection of the Cauchy bound."""
    b = 1 + Fraction(max(abs(c) for c in f[:-1]), abs(f[-1]))
    seen = {}

    def var(x):
        if x not in seen:
            seen[x] = _variations(chain, x)
        return seen[x]

    out = []
    stack = [(-b, b)]
    cap = _nudge_cap(f)
    while stack:
        a, b = stack.pop()
        n = var(a) - var(b)
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        nudges = 0
        while _sign_at(f, mid) == 0:
            if nudges == cap:
                raise RuntimeError(f"root isolation: the midpoint is still a root "
                                   f"after {cap} nudges")
            nudges += 1
            mid += (b - a) / 1024
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out


def _bisect(f: List[int], lo: Fraction, hi: Fraction, done):
    """Halve the bracket (lo, hi) of the one root of f in it until
    done(lo, hi); a midpoint that is the root comes back as (mid, mid)."""
    s_lo = _sign_at(f, lo)
    cap, halvings = _bisection_cap(f), 0
    while not done(lo, hi):
        if halvings == cap:
            raise RuntimeError(f"root refinement: no root settled within {cap} "
                               f"bisection steps")
        halvings += 1
        mid = (lo + hi) / 2
        s = _sign_at(f, mid)
        if s == 0:
            return mid, mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _settle(f: List[int], lo: Fraction, hi: Fraction):
    """The root of f isolated in (lo, hi): a Fraction when it is rational,
    otherwise its bracket halved to a width below 1/lc(f)."""
    lc = abs(f[-1])
    lo, hi = _bisect(f, lo, hi, lambda lo, hi: (hi - lo) * lc < 1)
    x = Fraction(ceil(lo * lc), lc)
    if x <= hi and _sign_at(f, x) == 0:
        return x
    return lo, hi


def _nearest_double(f: List[int], lo: Fraction, hi: Fraction) -> float:
    """The double nearest the irrational root of f in (lo, hi).  The bracket
    is halved until its ends round to the same or to adjacent doubles a <= b;
    the root then rounds to b exactly when it lies above their midpoint,
    which, dyadic, is never the root."""
    lo, hi = _bisect(f, lo, hi,
                     lambda lo, hi: nextafter(float(lo), inf) >= float(hi))
    a, b = float(lo), float(hi)
    mid = (Fraction(a) + Fraction(b)) / 2
    return b if _sign_at(f, mid) == _sign_at(f, lo) else a


def _split(f: Sequence[int]):
    """Distinct rational roots of the integer polynomial f (sorted), and a
    bracket narrower than 1/lc(f) around each irrational real root."""
    f = _primitive(f)
    if len(f) < 2:
        return [], []
    chain = _chain(f)
    if len(chain[-1]) > 1:
        f = _quo(f, chain[-1])
        chain = _chain(f)
    rational, brackets = [], []
    for lo, hi in _isolate(f, chain):
        r = _settle(f, lo, hi)
        if isinstance(r, Fraction):
            rational.append(r)
        else:
            brackets.append(r)
    return rational, brackets


def _deflate(p: List[Fraction], r: Fraction) -> Tuple[List[Fraction], Fraction]:
    """Synthetic division by (x - r): (quotient, remainder p(r)), exact."""
    out = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    out.reverse()
    return out[1:], out[0]


def _leading_zeros(cs: List[Fraction]) -> int:
    m = 0
    while cs[m] == 0:
        m += 1
    return m


def _factor_roots(factor: List[Fraction]) -> List[object]:
    """Real roots of a square-free factor: Fractions for the rational ones,
    the nearest doubles for the rest."""
    cs = _strip(factor)
    m = _leading_zeros(cs)
    f = _primitive(_cleared(cs[m:]))
    rational, brackets = _split(f)
    return ([Fraction(0)] * m + rational +
            [_nearest_double(f, lo, hi) for lo, hi in brackets])


# -- seeded roots ----------------------------------------------------------------

# A double's order: its place among all doubles, adjacent doubles one apart
# and +-0.0 at 0 (the IEEE bit pattern, sign and magnitude folded into one
# integer).  A walk of _WALK_STEPS doublings covers 2^64 places, more than
# the 2 * _MAX_ORDER + 1 finite doubles, so longer walks never close.
_MAX_ORDER = (2046 << 52) | ((1 << 52) - 1)
_WALK_STEPS = 64


def _order(x: float) -> int:
    ax = abs(x)
    if ax < 2.0 ** -1021:
        k = int(ldexp(ax, 1074))
    else:
        m, e = frexp(ax)
        k = int(ldexp(m, 53)) + ((e + 1021) << 52)
    return k if x > 0 else -k


def _double(k: int) -> float:
    ak = abs(k)
    if ak < 1 << 53:
        x = ldexp(ak, -1074)
    else:
        x = ldexp(ak & ((1 << 52) - 1) | 1 << 52, (ak >> 52) - 1075)
    return x if k >= 0 else -x


def _sign_order(f: List[int], k: int) -> int:
    n, d = _double(k).as_integer_ratio()
    return _sign(f, n, _powers(d, len(f) - 1))


def _walk(f: List[int], k: int):
    """Orders (lo, hi) around a root of f, stepping out from order k by 1, 2,
    4, ... places on each side: f changes sign from lo to hi, or lo == hi
    and f is 0 there.  None if no sign change shows among the finite
    doubles within _WALK_STEPS steps."""
    s = _sign_order(f, k)
    if s == 0:
        return k, k
    lo = hi = k
    for i in range(_WALK_STEPS):
        for end in (k + (1 << i), k - (1 << i)):
            if abs(end) > _MAX_ORDER:
                return None
            t = _sign_order(f, end)
            if t == 0:
                return end, end
            if t != s:
                return (hi, end) if end > k else (end, lo)
        lo, hi = k - (1 << i), k + (1 << i)
    return None


def _rounded(f: List[int], lo: int, hi: int):
    """The double nearest the one root of f in the order bracket (lo, hi):
    halve on orders to adjacent doubles a < b, then take b exactly when the
    root lies above their midpoint.  None if that midpoint is the root."""
    if lo == hi:
        return _double(lo)
    s = _sign_order(f, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = _sign_order(f, mid)
        if t == 0:
            return _double(mid)
        if t == s:
            lo = mid
        else:
            hi = mid
    a, b = _double(lo), _double(hi)
    t = _sign_at(f, (Fraction(a) + Fraction(b)) / 2)
    if t == 0:
        return None
    return b if t == s else a


def _seeded(f: List[int], near: Sequence[float]):
    """The real roots of the primitive integer f, each the nearest double,
    when one walk per seed certifies deg f simple real roots: deg f disjoint
    brackets, each a sign change (an odd number of roots) or a zero, leave
    room for one simple root in each and no other.  None otherwise."""
    near = [float(x) for x in near]
    if len(near) != len(f) - 1 or not all(map(isfinite, near)):
        return None
    brackets = []
    for x in near:
        b = _walk(f, _order(x))
        if b is None:
            return None
        brackets.append(b)
    brackets.sort()
    if any(hi >= lo for (_, hi), (lo, _) in zip(brackets, brackets[1:])):
        return None
    roots = [_rounded(f, lo, hi) for lo, hi in brackets]
    return None if None in roots else roots


# -- public API -----------------------------------------------------------------

def rational_roots(coeffs: Sequence[Fraction]) -> Tuple[List[Tuple[Fraction, int]], List[Fraction]]:
    """All rational roots (with multiplicity) of a univariate polynomial
    given by ascending rational coefficients, sorted; also returns the
    rational-root-free cofactor: den * p / prod (x - r)^m, den the lcm of
    the denominators of p after the factor x^m(0) is removed."""
    cs = _strip([Q(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial")
    m = _leading_zeros(cs)
    ints = _cleared(cs[m:])
    roots: List[Tuple[Fraction, int]] = [(Fraction(0), m)] if m else []
    work = [Fraction(c) for c in ints]
    for r in _split(ints)[0]:
        mult = 0
        while len(work) > 1:
            q, rem = _deflate(work, r)
            if rem:
                break
            work, mult = q, mult + 1
        roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


def real_roots(coeffs) -> List[Tuple[object, int]]:
    """Sorted real roots, with multiplicities, of a polynomial given by
    ascending coefficients, each coerced with Q (floats exactly): rational
    roots come back as Fraction, irrational ones as the nearest double."""
    p = [Q(c) for c in coeffs]
    if not any(p):
        raise ValueError("zero polynomial has no well-defined roots")
    results: List[Tuple[object, int]] = []
    for factor, mult in square_free_decomposition(p):
        results.extend((x, mult) for x in _factor_roots(factor))
    results.sort(key=lambda rm: float(rm[0]))
    return results


def nearest_roots(coeffs, near: Sequence[float]) -> List[Tuple[float, int]]:
    """[(float(r), m) for r, m in real_roots(coeffs)], found from `near`, one
    double near each root (as eigenvalues of a matrix whose characteristic
    polynomial this is).  The seeds are certified on the whole polynomial;
    when they do not certify it, real_roots runs instead."""
    cs = _strip([Q(c) for c in coeffs])
    roots = _seeded(_primitive(_cleared(cs)), near) if len(cs) > 1 else None
    if roots is None:
        return [(float(r), m) for r, m in real_roots(coeffs)]
    return [(x, 1) for x in roots]
