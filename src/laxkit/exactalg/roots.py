"""Real and rational roots of univariate polynomials.

One integer kernel, two ways to bracket a root, one rounding.  Every
coefficient is coerced with Q (a float is the rational it stores) and the
polynomial is cleared to a primitive integer f; there is no floating-point
root finder.  Signs are taken at rational points n/d with a homogenised
integer Horner step, the sign of d^deg p(n/d).

Square-free decomposition (real_roots).  The Sturm chain of f holds
primitive integer polynomials, each a positive multiple of the classical
chain f, f', -rem, ..., so every sign count is the same; it ends at
+-gcd(f, f').  Yun's loop (D. Y. Y. Yun, SYMSAC 1976) starts there and
takes integer gcds by primitive pseudo-remainders; the factors come out
in increasing multiplicity, and a square-free f keeps its one chain.

Sturm isolation (real_roots, rational_roots).  The real roots of each
square-free factor are isolated by bisection of its Cauchy bound.  A
rational root of f is k/lc(f) for an integer k, so once an interval is
narrower than 1/lc(f) it holds at most one candidate, and one exact
evaluation decides it.

Seeded walks (nearest_roots).  Given one double near each root, as the
float eigenvalues of a matrix give for its characteristic polynomial,
the walk from each seed steps out by 1, 2, 4, ... doubles until the
whole f of degree d changes sign, or is 0.  The certificate (S. M. Rump,
Acta Numerica 19, 2010): d disjoint brackets, each a sign change or a
zero, hold d roots, so every root is real and simple and each bracket
holds exactly one.  Anything else -- a seed count that is not d, a seed
that is not finite, a walk that has not changed sign within 64 doublings
(which span every finite double), brackets that overlap (a double root,
a cluster within roundoff) or a midpoint that is a root -- sends f down
the Sturm route, so nearest_roots returns exactly what real_roots would.

Rounding on orders (both routes).  A double's order is its place among
all doubles, adjacent doubles one apart.  A bracket -- a seeded walk, or
a Sturm interval widened to the doubles just outside it -- is halved on
orders down to two adjacent doubles, every halving point inside the
bracket, and the sign of f at their midpoint picks the nearer: every
irrational root is correctly rounded, whatever the conditioning.

Cost: one pseudo-remainder chain and a few gcds per polynomial, about
log2(cauchy_bound * lc(f)) halvings per rational test, and at most 64
per irrational root (the finite doubles span fewer than 2^64 orders),
each a few integer Horner steps; a seeded root adds about log2 of its
seed's distance in doubles.  That is polynomial in the bit size of the
coefficients.  A rational test that has not settled after (B + 2) + 2
halvings, B the largest coefficient bit length, or an isolation midpoint
still a root after deg f nudges, raises RuntimeError naming the cap.

Polynomials are dense ascending coefficient lists.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, frexp, gcd, isfinite, lcm, ldexp
from typing import List, Sequence, Tuple

from .poly import Q


def _strip(p: List) -> List:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


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


def _gcd(a: List[int], b: List[int]) -> List[int]:
    """+-gcd(a, b) of integer polynomials, primitive, by primitive
    pseudo-remainders."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def _square_free(f: List[int]):
    """Yun's square-free decomposition of the primitive integer f:
    [(factor, multiplicity, Sturm chain of factor)], each factor primitive
    and of positive degree, in increasing multiplicity.  It starts from the
    last member of f's chain, +-gcd(f, f'); a square-free f comes back
    whole, with that one chain."""
    chain = _chain(f)
    g = chain[-1]
    if len(g) == 1:
        return [(f, 1, chain)]
    w, out, m = _quo(f, g), [], 1
    while len(w) > 1:
        y = _gcd(w, g)
        z = _quo(w, y)
        if len(z) > 1:
            out.append((z, m, _chain(z)))
        w, g, m = y, _quo(g, y), m + 1
    return out


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
    """Halvings that take an isolating interval of f to a width below
    1/lc(f), for the rational test.  With B the largest coefficient bit
    length, the interval lies within the Cauchy bound (-b, b),
    b = 1 + max|c| / |lc|, so width * |lc| < 2 (|lc| + max|c|) < 2^(B+2):
    B + 2 halvings, and two more leave room."""
    bits = max(abs(c).bit_length() for c in f)
    return (bits + 2) + 2


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


def _settle(f: List[int], lo: Fraction, hi: Fraction):
    """The root of f isolated in (lo, hi): a Fraction when it is rational,
    otherwise its bracket halved to a width below 1/lc(f)."""
    lc = abs(f[-1])
    s_lo = _sign_at(f, lo)
    cap, halvings = _bisection_cap(f), 0
    while (hi - lo) * lc >= 1:
        if halvings == cap:
            raise RuntimeError(f"root refinement: no root settled within {cap} "
                               f"bisection steps")
        halvings += 1
        mid = (lo + hi) / 2
        s = _sign_at(f, mid)
        if s == 0:
            return mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    x = Fraction(ceil(lo * lc), lc)
    if x <= hi and _sign_at(f, x) == 0:
        return x
    return lo, hi


def _split(f: List[int], chain: List[List[int]]):
    """Distinct rational roots of the square-free primitive integer f (sorted),
    given its Sturm chain, and a bracket narrower than 1/lc(f) around each
    irrational real root."""
    rational, brackets = [], []
    if len(f) < 2:
        return rational, brackets
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


# -- doubles in their integer order ---------------------------------------------

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


def _outside(lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """Orders of the largest double <= lo and of the smallest double >= hi."""
    a, b = float(lo), float(hi)
    return _order(a) - (a > lo), _order(b) + (b < hi)


def _rounded(f: List[int], a: int, b: int, lo=None, hi=None):
    """The double nearest the one root of f between the doubles of orders
    a <= b, halved on orders to adjacent doubles: the upper one exactly when
    the root lies above their midpoint; None if the midpoint is the root.
    Given a Sturm bracket (lo, hi), a and b are the orders just outside it
    (another root may share those doubles): signs are compared with f(lo),
    and a midpoint at or below lo lies below the root, at or above hi above."""
    if a == b:
        return _double(a)
    s = _sign_order(f, a) if lo is None else _sign_at(f, lo)
    while b - a > 1:
        mid = (a + b) // 2
        t = _sign_order(f, mid)
        if t == 0:
            return _double(mid)
        if t == s:
            a = mid
        else:
            b = mid
    # order 0 is +-0.0, and a root just below it rounds to -0.0
    x, y = _double(a), _double(b) if b else -0.0
    mid = (Fraction(x) + Fraction(y)) / 2
    if lo is not None and mid <= lo:
        return y
    if hi is not None and mid >= hi:
        return x
    t = _sign_at(f, mid)
    if t == 0:
        return None
    return y if t == s else x


# -- seeded roots ----------------------------------------------------------------

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
    # sign-change brackets that share an end order are disjoint (f is not
    # 0 there); zero brackets (e, e) on the same order are not
    brackets.sort()
    if any(p == q or p[1] > q[0] for p, q in zip(brackets, brackets[1:])):
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
    f = _primitive(ints)
    chain = _chain(f)
    if len(chain[-1]) > 1:
        f = _quo(f, chain[-1])
        chain = _chain(f)
    for r in _split(f, chain)[0]:
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
    cs = _strip([Q(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial has no well-defined roots")
    m = _leading_zeros(cs)
    results: List[Tuple[object, int]] = [(Fraction(0), m)] if m else []
    for f, mult, chain in _square_free(_primitive(_cleared(cs[m:]))):
        rational, brackets = _split(f, chain)
        results += [(x, mult) for x in rational]
        results += [(_rounded(f, *_outside(lo, hi), lo, hi), mult)
                    for lo, hi in brackets]
    # ties in value keep the multiplicity order, 0 first among its own
    results.sort(key=lambda rm: (float(rm[0]), rm[1]))
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
