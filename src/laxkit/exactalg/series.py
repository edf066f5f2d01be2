"""Truncated Puiseux/Laurent series with MultiPoly coefficients.

A series is  sum_{e=k0}^{valid-1} c[e-k0] * t^(e/ell) + O(t^(valid/ell)).

`ell` is the branching index, `k0` the lowest stored exponent and
`valid` the first exponent NOT covered by the truncation window (all in
units of 1/ell).  Binary operations propagate the minimum valid window,
so precision is never silently overstated.  The zero series is stored
with an empty coefficient list and k0 == valid.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from .poly import MultiPoly, Q, scaled, sum_products


class TruncationError(ValueError):
    """Requested coefficient lies beyond the valid window."""


class PuiseuxSeries:
    __slots__ = ("ell", "k0", "coeffs", "valid")

    def __init__(self, ell: int, k0: int, coeffs: Sequence, valid: int):
        if ell < 1:
            raise ValueError("branching index must be a positive integer")
        cs: List[MultiPoly] = [MultiPoly.coerce(c) for c in coeffs]
        # trim leading zeros (they carry no information) and anything at
        # or past the validity boundary
        if k0 + len(cs) > valid:
            cs = cs[: valid - k0]
        while cs and cs[0].is_zero:
            cs.pop(0)
            k0 += 1
        while cs and cs[-1].is_zero:
            cs.pop()
        if not cs:
            k0 = valid
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "valid", valid)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(ell: int = 1, valid: int = 0) -> "PuiseuxSeries":
        return PuiseuxSeries(ell, valid, [], valid)

    @staticmethod
    def monomial(coeff, num: int, den: int = 1, valid_extra: int = 40) -> "PuiseuxSeries":
        """coeff * t^(num/den), valid for valid_extra further steps."""
        return PuiseuxSeries(den, num, [MultiPoly.coerce(coeff)],
                             num + valid_extra)

    @staticmethod
    def constant(c, ell: int = 1, valid: int = 40) -> "PuiseuxSeries":
        return PuiseuxSeries(ell, 0, [MultiPoly.coerce(c)], valid)

    # -- views ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent) -> MultiPoly:
        """Coefficient of t^exponent (a Fraction or int)."""
        e = Q(exponent) * self.ell
        if e.denominator != 1:
            return MultiPoly.zero()
        e = int(e)
        if e >= self.valid:
            raise TruncationError(
                f"coefficient of t^{exponent} is beyond O(t^{Fraction(self.valid, self.ell)})")
        i = e - self.k0
        if i < 0 or i >= len(self.coeffs):
            return MultiPoly.zero()
        return self.coeffs[i]

    def terms(self):
        """Yield (exponent as Fraction, coefficient) for stored nonzero terms."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                yield Fraction(self.k0 + i, self.ell), c

    # -- rescaling / alignment ---------------------------------------------
    def rescale(self, ell_new: int) -> "PuiseuxSeries":
        if ell_new == self.ell:
            return self
        if ell_new % self.ell:
            raise ValueError("can only rescale to a multiple of the branching index")
        m = ell_new // self.ell
        cs: List[MultiPoly] = []
        for i, c in enumerate(self.coeffs):
            cs.append(c)
            if i != len(self.coeffs) - 1:
                cs.extend([MultiPoly.zero()] * (m - 1))
        return PuiseuxSeries(ell_new, self.k0 * m, cs, self.valid * m)

    @staticmethod
    def _aligned(a: "PuiseuxSeries", b: "PuiseuxSeries"):
        ell = lcm(a.ell, b.ell)
        return a.rescale(ell), b.rescale(ell)

    def _eff_k0(self) -> int:
        return self.k0 if self.coeffs else self.valid

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = PuiseuxSeries.constant(other, self.ell, valid=self.valid)
        a, b = PuiseuxSeries._aligned(self, other)
        valid = min(a.valid, b.valid)
        if a.is_zero and b.is_zero:
            return PuiseuxSeries.zero(a.ell, valid)
        k0 = min(a._eff_k0(), b._eff_k0())
        n = valid - k0
        cs = [MultiPoly.zero()] * max(n, 0)
        for s in (a, b):
            for i, c in enumerate(s.coeffs):
                j = s.k0 + i - k0
                if 0 <= j < n:
                    cs[j] = cs[j] + c
        return PuiseuxSeries(a.ell, k0, cs, valid)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.ell, self.k0, [-c for c in self.coeffs], self.valid)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = PuiseuxSeries.constant(other, self.ell, valid=self.valid)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            c = MultiPoly.coerce(other)
            return PuiseuxSeries(self.ell, self.k0,
                                 [ci * c for ci in self.coeffs], self.valid)
        a, b = PuiseuxSeries._aligned(self, other)
        ka, kb = a._eff_k0(), b._eff_k0()
        valid = min(a.valid + kb, b.valid + ka)
        if a.is_zero or b.is_zero:
            return PuiseuxSeries.zero(a.ell, valid)
        k0 = ka + kb
        n = valid - k0
        if n <= 0:
            return PuiseuxSeries.zero(a.ell, valid)
        # every coefficient is scaled once; each index sums its products
        # in one kernel call, in the order i = 0, 1, ... of a's coefficients
        sb = [(j, scaled(c)) for j, c in enumerate(b.coeffs[:n]) if c]
        pairs: List[list] = [[] for _ in range(n)]
        for i, ci in enumerate(a.coeffs[:n]):
            if ci:
                A = scaled(ci)
                for j, B in sb:
                    if i + j >= n:
                        break
                    pairs[i + j].append((A, B))
        return PuiseuxSeries(a.ell, k0, [sum_products(p) for p in pairs], valid)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power not supported")
        if n == 0:
            return PuiseuxSeries.constant(1, self.ell, valid=self.valid - self._eff_k0())
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def deriv(self) -> "PuiseuxSeries":
        """d/dt, exact on the coefficient ring."""
        cs = [c * Fraction(self.k0 + i, self.ell) for i, c in enumerate(self.coeffs)]
        return PuiseuxSeries(self.ell, self.k0 - self.ell, cs, self.valid - self.ell)

    def truncate(self, valid: int) -> "PuiseuxSeries":
        return PuiseuxSeries(self.ell, self.k0, self.coeffs, min(valid, self.valid))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = PuiseuxSeries._aligned(self, other)
        return (a.k0 == b.k0 and a.coeffs == b.coeffs and a.valid == b.valid)

    def __str__(self):
        if self.is_zero:
            return f"O(t^{Fraction(self.valid, self.ell)})"
        parts = []
        for e, c in self.terms():
            cs = str(c)
            if not c.is_constant or len(c.nums) > 1:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                parts.append(f"{cs}*t^{e}" if e.denominator > 1 or e < 0 or e > 1
                             else (f"{cs}*t" if e == 1 else cs))
        return " + ".join(parts) + f" + O(t^{Fraction(self.valid, self.ell)})"

    __repr__ = __str__


def poly_on_series(p: MultiPoly, env: Mapping[str, PuiseuxSeries],
                   ell: int, const_valid: int) -> PuiseuxSeries:
    """Substitute series for symbols of p; unmapped symbols stay symbolic
    inside the coefficients.  Constant terms get the window [0, const_valid).
    Each power env[name]**e is computed once per call, from the power
    below it: s**e is the left-to-right product (s**(e-1)) * s, as
    PuiseuxSeries.__pow__ forms it, so the values are the same.
    """
    total = PuiseuxSeries.zero(ell, const_valid)
    powers: Dict[Tuple[str, int], PuiseuxSeries] = {}
    for key, c in p.nums.items():
        symbols = []
        factor: PuiseuxSeries | None = None
        for name, e in key:
            if name in env:
                s = powers.get((name, e))
                if s is None:
                    base = powers.get((name, 1))
                    if base is None:
                        base = powers[(name, 1)] = env[name].rescale(ell)
                    s = base
                    for k in range(2, e + 1):    # key exponents are >= 1
                        up = powers.get((name, k))
                        if up is None:
                            up = powers[(name, k)] = s * base
                        s = up
                factor = s if factor is None else factor * s
            else:
                symbols.append((name, e))
        scalar = MultiPoly.from_ints(p.den, {tuple(symbols): c})
        if factor is None:
            factor = PuiseuxSeries.constant(scalar, ell, valid=const_valid)
        else:
            factor = factor * scalar
        total = total + factor
    return total
