"""Real and rational roots of univariate polynomials.

Every input takes one route, in exact arithmetic.  Yun's square-free
decomposition gives the multiplicities.  Each square-free factor is
cleared to an integer polynomial f, and its real roots are isolated
once, by bisection on a Sturm chain whose members are primitive integer
polynomials (each a positive multiple of the classical chain f, f',
-rem, ..., so every sign count is the same).  Signs are taken at
rational points n/d with a homogenised integer Horner step, the sign of
d^deg p(n/d); no Fraction arithmetic runs inside the evaluations.

Rational roots are read off the isolating intervals.  A rational root of
f is k/lc(f) for an integer k, so once an interval is narrower than
1/lc(f) it holds at most one candidate, and one exact evaluation decides
it.  An irrational root is bisected further on the same interval to the
requested tolerance and polished by Newton's method in floats.

Cost: one pseudo-remainder chain per factor, then about
log2(cauchy_bound * lc(f)) + log2(1/tol) bisection steps per root, each a
few integer Horner steps.  That is polynomial in the bit size of the
coefficients; the trial division of the constant term used before was
exponential in it (x10 time per two digits, and a period-3 Jacobi
discriminant never finished).  Both loops are capped by this count: a
bisection that has not settled after (largest coefficient bit length + 3
+ log2(1/tol)) halvings, or a midpoint still a root after deg f nudges,
raises RuntimeError naming the cap.

Every coefficient is coerced with Q, so a float coefficient is read as
the rational it stores; there is no floating-point root finder.  Float
spectra of periodic Jacobi matrices are symmetric eigenvalue problems
and are solved as such in jacobispec.

Polynomials are dense ascending coefficient lists.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm, log2
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


def _bisection_cap(f: List[int], eps: Optional[float]) -> int:
    """Halvings that take an isolating interval of f below 1/lc(f) and below
    eps.  Such an interval lies in the Cauchy bound (-b, b), and with B the
    largest coefficient bit length both 2b and 2b |lc| are below 2^(B+2);
    one more step covers the float rounding of the width test."""
    cap = max(abs(c).bit_length() for c in f) + 3
    if eps is not None:
        cap += max(0, ceil(-log2(eps)))
    return cap


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


def _settle(f: List[int], lo: Fraction, hi: Fraction, eps: Optional[float]):
    """The root of f isolated in (lo, hi): a Fraction when it is rational;
    otherwise the first bisection bracket no wider than eps (None when eps
    is None)."""
    lc = abs(f[-1])
    s_lo = _sign_at(f, lo)
    tested, bracket = False, None
    cap, halvings = _bisection_cap(f, eps), 0
    while True:
        w = hi - lo
        if not tested and w * lc < 1:
            tested = True
            x = Fraction(ceil(lo * lc), lc)
            if x < hi and _sign_at(f, x) == 0:
                return x
        if bracket is None and eps is not None and float(w) <= eps:
            bracket = (lo, hi)
        if tested and (eps is None or bracket is not None):
            return bracket
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


def _split(f: Sequence[int], eps: Optional[float]):
    """Distinct rational roots of the integer polynomial f (sorted), and a
    bracket no wider than eps around each irrational real root."""
    f = _primitive(f)
    if len(f) < 2:
        return [], []
    chain = _chain(f)
    if len(chain[-1]) > 1:
        f = _quo(f, chain[-1])
        chain = _chain(f)
    rational, brackets = [], []
    for lo, hi in _isolate(f, chain):
        r = _settle(f, lo, hi, eps)
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


def _polish(pf: List[float], lo: Fraction, hi: Fraction) -> float:
    """Newton polishing in floats from the midpoint of the bracket."""
    x = float((lo + hi) / 2)
    dpf = [i * c for i, c in enumerate(pf)][1:]
    for _ in range(8):
        fx = np.polyval(pf[::-1], x)
        dfx = np.polyval(dpf[::-1], x)
        if dfx == 0:
            break
        step = fx / dfx
        if not np.isfinite(step):
            break
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    if float(lo) - 1e-9 <= x <= float(hi) + 1e-9:
        return x
    return float((lo + hi) / 2)


def _factor_roots(factor: List[Fraction], tol: float) -> List[object]:
    """Real roots of a square-free factor: Fractions for the rational ones,
    floats bracketed to tol for the rest."""
    cs = _strip(factor)
    m = _leading_zeros(cs)
    ints = _cleared(cs[m:])
    eps = max(tol, 1e-14)
    rational, brackets = _split(ints, eps)
    cof = [Fraction(c) for c in ints]
    for r in rational:
        cof, _ = _deflate(cof, r)
    if rational and brackets:
        # Newton's last digit depends on the polynomial and the bracket it
        # starts from.  Polishing on the rational-root-free cofactor, from
        # brackets of its own isolation, keeps the floats of every report
        # stable; from the factor's brackets about one mixed factor in five
        # moves in the last digit.
        brackets = _split(_cleared(cof), eps)[1]
    pf = [float(c) for c in cof]
    return ([Fraction(0)] * m + rational +
            [_polish(pf, lo, hi) for lo, hi in brackets])


# -- public API -----------------------------------------------------------------

def sturm_chain(p: Sequence) -> List[List[int]]:
    """Sturm chain of a rational polynomial, as primitive integer
    polynomials (positive multiples of p, p', -rem(p, p'), ...)."""
    return _chain(_primitive(_cleared(_strip([Q(c) for c in p]))))


def count_roots_between(chain, lo, hi) -> int:
    """Distinct roots in (lo, hi] of the first member of a Sturm chain."""
    return _variations(chain, Q(lo)) - _variations(chain, Q(hi))


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
    for r in _split(ints, None)[0]:
        mult = 0
        while len(work) > 1:
            q, rem = _deflate(work, r)
            if rem:
                break
            work, mult = q, mult + 1
        roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


def real_roots(coeffs, tol: float = 1e-12) -> List[Tuple[object, int]]:
    """Sorted real roots, with multiplicities, of a polynomial given by
    ascending coefficients, each coerced with Q (floats exactly): rational
    roots come back as Fraction, irrational ones as floats bracketed to
    tol and polished."""
    p = [Q(c) for c in coeffs]
    if not any(p):
        raise ValueError("zero polynomial has no well-defined roots")
    results: List[Tuple[object, int]] = []
    for factor, mult in square_free_decomposition(p):
        results.extend((x, mult) for x in _factor_roots(factor, tol))
    results.sort(key=lambda rm: float(rm[0]))
    return results
