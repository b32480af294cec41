"""Dense univariate polynomials over the rationals, with exact root isolation.

Every rational root is reported exactly, whatever the size of the
coefficients; every irrational root as an open isolating interval with
rational endpoints that `refine_root` narrows by sign-change bisection to any
requested width.  The root layer clears denominators once and works on the
primitive integer form of the polynomial:

- degree 1: the root itself;
- degree 2: the discriminant and `math.isqrt` decide between no real root, a
  double root, two rational roots and two irrational ones;
- degree 3 and up: one Sturm chain of the square-free part counts roots on a
  bisection grid; each isolated root is narrowed below 1/a^2, a the leading
  coefficient, where `limit_denominator(a)` of the midpoint is its only
  possible rational value, tested exactly.

Irrational roots are then isolated on the bisection grid of (-B, B), B the
root bound of the square-free part with its rational roots divided out.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import Iterable, Union

from ._record import record
from .errors import RangeError

Q = Fraction


def _as_q(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


@record
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
        return self.evaluator()(x)

    def evaluator(self) -> Callable[[Q], Q]:
        """Exact evaluation, with the coefficients over their common
        denominator built once for all the points it is called on."""
        if self.is_constant():
            v = self.constant_value()
            return lambda x: v
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        deg = self.degree

        def value(x) -> Q:
            x = _as_q(x)
            return Q(_value(ints, x.numerator, x.denominator), den * x.denominator**deg)

        return value

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

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = rat_text(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{rat_text(mag)}*{xs}"
            parts.append((c, body))
        return signed_text(parts)


def signed_text(parts: Iterable[tuple[Q, str]]) -> str:
    """The bodies as one sum, each with the sign of its coefficient:
    "a - b + c", or "-a + b" when the first is negative."""
    text = " ".join(f"{'+' if c > 0 else '-'} {body}" for c, body in parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def rat_text(q: Q) -> str:
    """q as DSL text: an integer or n/d."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # Python writes no integer of more than 4300 digits
        raise RangeError("a numeral of the result is longer than 4300 digits") from None


# --- root isolation -------------------------------------------------------
#
# Roots are found on a primitive integer form of the polynomial: coprime
# integer coefficients, constant first, equal to the polynomial times a
# positive rational, so that every sign is kept.  Signs at a rational point
# n/d (d > 0) come from the homogeneous value d^deg · c(n/d), an integer.
# Points on a bisection grid are carried as numerators over one shared
# denominator, so no Fraction is built until a result is returned.

IntPoly = list[int]


def _int_form(p: Poly) -> IntPoly:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _primitive(c: IntPoly) -> IntPoly:
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _value(c: IntPoly, n: int, d: int) -> int:
    """d^deg · c(n/d): an integer with the sign of c(n/d) when d > 0."""
    acc = c[-1]
    dp = 1
    for ci in c[-2::-1]:
        dp *= d
        acc = acc * n + ci * dp
    return acc


def _pdivmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(q, r) with m·a = q·b + r for some integer m > 0 and deg r < deg b."""
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - db, 1)
    while len(rem) > db:
        top = rem.pop()
        if top:
            k = len(rem) - db
            f = sign * top
            if scale != 1:
                rem = [scale * x for x in rem]
                quot = [scale * x for x in quot]
            for i in range(db):
                rem[k + i] -= f * b[i]
            quot[k] += f
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _derivative(c: IntPoly) -> IntPoly:
    return _primitive([i * c[i] for i in range(1, len(c))])


def _square_free(c: IntPoly) -> IntPoly:
    a, b = c, _derivative(c)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return c if len(a) <= 1 else _primitive(_pdivmod(c, a)[0])


def _sturm(c: IntPoly) -> list[IntPoly]:
    chain = [c]
    nxt = _derivative(c)
    while nxt:
        chain.append(nxt)
        nxt = _primitive([-x for x in _pdivmod(chain[-2], chain[-1])[1]])
    return chain


def _variations(chain: list[IntPoly], n: int, d: int) -> int:
    count = 0
    last = 0
    for c in chain:
        v = _value(c, n, d)
        if v:
            if (v > 0) != (last > 0) and last:
                count += 1
            last = v
    return count


def _root_bound(c: IntPoly) -> Q:
    """All real roots lie in (-B, B)."""
    return 1 + Q(max(abs(x) for x in c[:-1]), abs(c[-1]))


def _bisect(chain: list[IntPoly], skip: list[Q], bound: Q) -> list[tuple[int, int, int]]:
    """Cells (a, b, d) of the dyadic grid on (-bound, bound) such that
    (a/d, b/d] holds exactly one root of chain[0] that is not in skip."""
    d = bound.denominator
    lo, hi = -bound.numerator, bound.numerator
    stack = [(lo, hi, d, _variations(chain, lo, d), _variations(chain, hi, d))]
    cells = []
    while stack:
        a, b, d, va, vb = stack.pop()
        n = va - vb - sum(1 for r in skip if a * r.denominator < r.numerator * d <= b * r.denominator)
        if n == 1:
            cells.append((a, b, d))
        elif n > 1:
            m = a + b
            vm = _variations(chain, m, 2 * d)
            stack.append((2 * a, m, 2 * d, va, vm))
            stack.append((m, 2 * b, 2 * d, vm, vb))
    return cells


def _rational_roots(sf: IntPoly, chain: list[IntPoly]) -> list[Q]:
    """Rational roots of the square-free sf.  Each has a denominator dividing
    the leading coefficient a, and two such numbers are at least 1/a^2 apart,
    so a cell narrower than that holds one candidate at most."""
    lead = abs(sf[-1])
    roots = []
    for a, b, d in _bisect(chain, [], _root_bound(sf)):
        v_hi = _value(sf, b, d)
        if v_hi == 0:
            roots.append(Q(b, d))
            continue
        while (b - a) * lead * lead >= d:
            m = a + b
            d *= 2
            v = _value(sf, m, d)
            if v == 0:
                roots.append(Q(m, d))
                break
            a, b = (2 * a, m) if (v > 0) == (v_hi > 0) else (m, 2 * b)
        else:
            r = Q(a + b, 2 * d).limit_denominator(lead)
            if a * r.denominator < r.numerator * d < b * r.denominator and _value(sf, r.numerator, r.denominator) == 0:
                roots.append(r)
    return roots


def _quadratic_roots(c: IntPoly) -> list[Q] | None:
    """Real roots of a quadratic, or None when they are irrational."""
    c0, c1, c2 = c
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    return sorted({Q(-c1 - s, 2 * c2), Q(-c1 + s, 2 * c2)})


RootLocation = Union[Q, tuple[Q, Q]]


def isolate_roots(p: Poly) -> list[RootLocation]:
    """Locations of the distinct real roots of p, sorted.

    Rational roots appear as exact Fractions; the rest as open intervals
    (lo, hi) containing exactly one root, with p(lo) != 0 != p(hi).  The
    intervals are cells of the bisection grid on (-B, B), B the root bound of
    the square-free part with its rational roots divided out, each halved
    further until it is clear of every rational root.
    """
    c = _int_form(p)
    sf = c if len(c) <= 3 else _square_free(c)
    if len(sf) <= 1:
        return []
    if len(sf) == 2:
        return [Q(-sf[0], sf[1])]
    if len(sf) == 3:
        rational = _quadratic_roots(sf)
        if rational is not None:
            return rational
    chain = _sturm(sf)
    rational = [] if len(sf) == 3 else _rational_roots(sf, chain)
    rest = sf
    for r in rational:
        rest = _primitive(_pdivmod(rest, [-r.numerator, r.denominator])[0])
    locations: list[RootLocation] = list(rational)
    if len(rest) >= 2:
        for a, b, d in _bisect(chain, rational, _root_bound(rest)):
            if rational:
                s_lo = _value(rest, a, d) > 0
                while any(a * r.denominator <= r.numerator * d <= b * r.denominator for r in rational):
                    m = a + b
                    d *= 2
                    a, b = (m, 2 * b) if (_value(rest, m, d) > 0) == s_lo else (2 * a, m)
            locations.append((Q(a, d), Q(b, d)))

    def _key(loc):
        return loc if isinstance(loc, Q) else (loc[0] + loc[1]) / 2

    return sorted(locations, key=_key)


def refine_root(p: Poly, lo: Q, hi: Q, width: Q) -> tuple[Q, Q]:
    """Shrink an isolating interval by bisection until hi - lo <= width.

    Bisection follows the sign of p when p changes sign across the interval,
    and of its square-free part when the root has even multiplicity."""
    c = _int_form(p)
    lo, hi, width = _as_q(lo), _as_q(hi), _as_q(width)
    if width <= 0:
        raise ValueError("width must be positive")
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    v_lo = _value(c, a, d)
    if v_lo == 0:
        raise ValueError("interval endpoint is a root")
    if v_lo * _value(c, b, d) >= 0:
        c = _square_free(c)
        v_lo = _value(c, a, d)
    s_lo = v_lo > 0
    while (b - a) * width.denominator > width.numerator * d:
        m = a + b
        v = _value(c, m, 2 * d)
        if v == 0:
            # landed exactly on the (rational) root: return a tight bracket
            mid = Q(m, 2 * d)
            quarter = min(width, Q(b - a, d)) / 4
            return (mid - quarter, mid + quarter)
        a, b = (m, 2 * b) if (v > 0) == s_lo else (2 * a, m)
        d *= 2
    return Q(a, d), Q(b, d)
