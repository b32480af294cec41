"""Dense univariate polynomials over the rationals, with exact root isolation.

Roots are reported either exactly (rational roots) or as open isolating
intervals with rational endpoints that can be refined by sign-change
bisection to any requested width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Q = Fraction


def _as_q(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


@dataclass(frozen=True)
class Poly:
    """Polynomial given by coefficients, constant term first; () is zero."""

    coeffs: tuple[Q, ...]

    @staticmethod
    def make(values: Iterable) -> "Poly":
        cs = [_as_q(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def const(v) -> "Poly":
        return Poly.make([v])

    @staticmethod
    def x() -> "Poly":
        return Poly.make([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Q:
        return self.coeffs[0] if self.coeffs else Q(0)

    def __call__(self, x) -> Q:
        x = _as_q(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Q(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Q(0)] * (n - len(other.coeffs))
        return Poly.make(x + y for x, y in zip(a, b))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    def scale(self, k) -> "Poly":
        k = _as_q(k)
        if k == 0:
            return Poly(())
        return Poly(tuple(c * k for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly.make(c * i for i, c in enumerate(self.coeffs) if i >= 1)

    def divmod_(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = other.degree
        lead = div[-1]
        quot = [Q(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            q = rem[-1] / lead
            quot[k] = q
            for i, c in enumerate(div):
                rem[k + i] -= q * c
            rem.pop()
        return Poly.make(quot), Poly.make(rem)

    def rem(self, other: "Poly") -> "Poly":
        return self.divmod_(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.rem(b)
        return a.monic() if not a.is_zero() else a

    def square_free(self) -> "Poly":
        if self.degree <= 1:
            return self.monic() if not self.is_zero() else self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return self.divmod_(g)[0].monic()

    def to_text(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = _q_text(mag)
            else:
                xs = var if i == 1 else f"{var}^{i}"
                body = xs if mag == 1 else f"{_q_text(mag)}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _q_text(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- root isolation -------------------------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2].rem(chain[-1])))
    chain.pop()
    return chain


def _sign_variations(values: Iterable[Q]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Q, hi: Q) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = sturm_chain(p.square_free())
    va = _sign_variations(q(lo) for q in chain)
    vb = _sign_variations(q(hi) for q in chain)
    return va - vb


def root_bound(p: Poly) -> Q:
    """All real roots lie in (-B, B)."""
    if p.degree < 1:
        return Q(1)
    lead = abs(p.coeffs[-1])
    return Q(1) + max(abs(c) / lead for c in p.coeffs[:-1])


def _int_divisors(n: int, cap: int = 3000) -> list[int] | None:
    """Positive divisors of |n|, or None when enumeration would be too costly."""
    n = abs(n)
    if n == 0:
        return [0]
    if n > 10**12:
        return None
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
            if len(out) > cap:
                return None
        d += 1
    return out


def _rational_roots(p: Poly) -> list[Q]:
    """All rational roots of p (each listed once)."""
    if p.degree < 1:
        return []
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ic = [int(c * denom_lcm) for c in p.coeffs]
    while ic and ic[0] == 0:
        ic.pop(0)
    roots = []
    if len(ic) < len(p.coeffs):
        roots.append(Q(0))
    if len(ic) <= 1:
        return roots
    ps = _int_divisors(ic[0])
    qs = _int_divisors(ic[-1])
    if ps is None or qs is None:
        return roots  # enclosures still isolate these roots soundly
    seen = set(roots)
    for a in ps:
        for b in qs:
            for cand in (Q(a, b), Q(-a, b)):
                if cand not in seen and p(cand) == 0:
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


RootLocation = Union[Q, tuple[Q, Q]]


def isolate_roots(p: Poly) -> list[RootLocation]:
    """Locations of the distinct real roots of p, sorted.

    Rational roots appear as exact Fractions; the rest as open intervals
    (lo, hi) containing exactly one root, with p(lo) != 0 != p(hi).
    """
    sf = p.square_free()
    if sf.degree < 1:
        return []
    rational = _rational_roots(sf)
    rest = sf
    for r in rational:
        rest = rest.divmod_(Poly.make([-r, 1]))[0]
    locations: list[RootLocation] = list(rational)
    if rest.degree >= 1:
        bound = root_bound(rest)
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            n = count_roots(rest, lo, hi)
            if n == 0:
                continue
            if n == 1 and rest(lo) != 0 and rest(hi) != 0:
                # shrink until no extracted rational root touches the interval
                while any(lo <= r <= hi for r in rational):
                    lo, hi = refine_root(rest, lo, hi, (hi - lo) / 2)
                locations.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if rest(mid) == 0:  # cannot happen: rational roots removed
                raise AssertionError("unexpected rational root in residual factor")
            stack.append((lo, mid))
            stack.append((mid, hi))

    def _key(loc):
        return loc if isinstance(loc, Q) else (loc[0] + loc[1]) / 2

    return sorted(locations, key=_key)


def refine_root(p: Poly, lo: Q, hi: Q, width: Q) -> tuple[Q, Q]:
    """Shrink an isolating interval by bisection until hi - lo <= width."""
    sf = p.square_free()
    flo = sf(lo)
    if flo == 0:
        raise ValueError("interval endpoint is a root")
    sign_lo = 1 if flo > 0 else -1
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = sf(mid)
        if fm == 0:
            # landed exactly on the (rational) root: return a tight bracket
            quarter = min(width, hi - lo) / 4
            return (mid - quarter, mid + quarter)
        if (1 if fm > 0 else -1) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi
