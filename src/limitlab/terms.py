"""Closed-form integer-indexed sequences: c + sum of c*r^n and c/(n+s)^k.

Every value is exactly evaluable at any index, and the sign of a term for
all large n is decidable: the power part is a rational function of n (exact
polynomial analysis) and the geometric part is enveloped by its largest
ratio.  The integer shift s never appears in user input; it arises when a
term is compared against its own successor t(n+1).  Only this module reads
a term's parts: its value and bounds, eventual sign, dominant part, tail
sums and crossings are all asked of Term.

A positive, strictly decreasing term with limit 0, such as a tail's
distance term, compiles once into integer form (_compile gives a _Dist),
and a distance a/b is kept as a pair of integers.  Each search asks for the
first index n with term(n) < a/b (or <= a/b).  For one power monomial
c/(n+s)^k that index is an integer k-th root; for one geometric part c*r^n
it is estimated from logarithms and confirmed by exact integer comparisons.
Any other term, or an estimate that is not confirmed, gallops over exact
comparisons.  No estimate decides an answer by itself, and a search past
start + 2^62 refuses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from ._record import record
from .errors import RangeError, UndecidableDensity, UnsupportedIntersection
from .poly import Poly, rat_text, signed_text

Q = Fraction

# Geometric factors r**n are never expanded exactly beyond this exponent;
# past it the (valid, weaker) bound r**_EXP_CAP is used instead.  Keeps
# deviation bounds cheap when indices reach the billions.
_EXP_CAP = 8192

_MAX_TAIL_TERMS = 4096  # exact rational prefix sums grow superlinearly in size

# Index searches stop at start + 2^62, and exact values and comparisons
# expand a geometric part's r^n only while n times the bit length of r's
# denominator stays within _EXACT_BITS; past either bound a lookup refuses.
_INDEX_BOUND = 1 << 62
_EXACT_BITS = 1 << 20


@record
class Term:
    const: Q
    geo: tuple[tuple[Q, Q], ...]  # (ratio, coeff), 0 < ratio < 1, sorted by ratio desc
    pw: tuple[tuple[int, int, Q], ...]  # (power k >= 1, shift s >= 0, coeff), sorted

    @staticmethod
    def make(const=0, geo=(), pw=()) -> "Term":
        gmap: dict[Q, Q] = {}
        for r, c in geo:
            r, c = Q(r), Q(c)
            if not 0 < r < 1:
                raise RangeError(f"geometric ratio {r} outside (0, 1)")
            gmap[r] = gmap.get(r, Q(0)) + c
        pmap: dict[tuple[int, int], Q] = {}
        for k, s, c in pw:
            if k < 1 or s < 0:
                raise RangeError(f"power monomial needs k >= 1, s >= 0 (got {k}, {s})")
            pmap[(k, s)] = pmap.get((k, s), Q(0)) + Q(c)
        return Term(
            Q(const),
            tuple(sorted(((r, c) for r, c in gmap.items() if c != 0), key=lambda t: -t[0])),
            tuple(sorted(((k, s, c) for (k, s), c in pmap.items() if c != 0))),
        )

    @staticmethod
    def constant(c) -> "Term":
        return Term.make(const=c)

    @staticmethod
    def geometric(c, r) -> "Term":
        return Term.make(geo=[(r, c)])

    @staticmethod
    def power(c, k) -> "Term":
        return Term.make(pw=[(k, 0, c)])

    def __add__(self, other: "Term") -> "Term":
        return Term.make(
            self.const + other.const,
            self.geo + other.geo,
            self.pw + other.pw,
        )

    def __neg__(self) -> "Term":
        return Term(
            -self.const,
            tuple((r, -c) for r, c in self.geo),
            tuple((k, s, -c) for k, s, c in self.pw),
        )

    def __sub__(self, other: "Term") -> "Term":
        return self + (-other)

    def scale(self, k) -> "Term":
        k = Q(k)
        if k == 0:
            return Term.make()
        return Term(
            self.const * k,
            tuple((r, c * k) for r, c in self.geo),
            tuple((kk, s, c * k) for kk, s, c in self.pw),
        )

    def shifted(self) -> "Term":
        """The sequence n -> t(n + 1)."""
        return Term(
            self.const,
            tuple((r, c * r) for r, c in self.geo),
            tuple((k, s + 1, c) for k, s, c in self.pw),
        )

    def eval(self, n: int) -> Q:
        if n < 1:
            raise ValueError("terms are indexed from 1")
        acc = self.const
        for r, c in self.geo:
            if n * r.denominator.bit_length() > _EXACT_BITS:
                raise _exact_refusal()
            acc += c * r**n
        for k, s, c in self.pw:
            acc += c / Q(n + s) ** k
        return acc

    def is_constant(self) -> bool:
        return not self.geo and not self.pw

    @property
    def limit(self) -> Q:
        return self.const

    # --- certified asymptotics -------------------------------------------

    def _geo_envelope(self, n: int) -> Q:
        """sum |c| * r^min(n, _EXP_CAP): at least |geometric part| at every m >= n."""
        acc = Q(0)
        for r, c in self.geo:
            acc += abs(c) * r ** min(n, _EXP_CAP)
        return acc

    def deviation_bound(self, n: int) -> Q:
        """B(n) >= |t(m) - limit| for every m >= n; nonincreasing in n."""
        acc = self._geo_envelope(n)
        for k, s, c in self.pw:
            acc += abs(c) / Q(n + s) ** k
        return acc

    def eval_bounds(self, n: int) -> tuple[Q, Q]:
        """(low, high) enclosing t(n): const plus the power monomials exactly,
        widened by the geometric envelope, which is never expanded past the
        exponent cap; the width shrinks with n."""
        v = self.const
        for k, s, c in self.pw:
            v += c / Q(n + s) ** k
        g = self._geo_envelope(n)
        return v - g, v + g

    def _power_rational_function(self) -> tuple[Poly, Poly]:
        """The power part as P(n)/Q(n) with Q = prod (n+s)^k_max(s) > 0."""
        kmax: dict[int, int] = {}
        for k, s, _ in self.pw:
            kmax[s] = max(kmax.get(s, 0), k)

        def times_powers(p: Poly, exps: dict[int, int]) -> Poly:  # p * prod (n+s)^e
            for s, e in sorted(exps.items()):
                factor = Poly.make([s, 1])
                for _ in range(e):
                    p = p * factor
            return p

        num = Poly(())
        for k, s, c in self.pw:
            num = num + times_powers(Poly.const(c), {**kmax, s: kmax[s] - k})
        return num, times_powers(Poly.const(1), kmax)

    def eventual_sign(self) -> tuple[int, int]:
        """(sign, N): sign of t(n) is constant for all n >= N.

        Sign 0 means the term is identically zero from N on (which, for this
        representation, means identically zero).
        """
        if self.const != 0:
            n = 1
            while self.deviation_bound(n) >= abs(self.const):
                n *= 2
                if n > 1 << 62:
                    raise RangeError("the sign of a term is not certified before index 2^62")
            return (1 if self.const > 0 else -1), n
        if self.pw:
            num, den = self._power_rational_function()
            if num.is_zero():
                raise AssertionError("independent power monomials cannot cancel")
            lead = num.coeffs[-1]
            sign = 1 if lead > 0 else -1
            dp, dq = num.degree, den.degree
            drop = dq - dp  # >= 1: every power monomial vanishes at infinity
            lower_coeff = abs(lead) / (2 * Q(2) ** dq)
            spread = sum(abs(c) for c in num.coeffs[:-1])
            n = max(1, int(2 * spread / abs(lead)) + 1, max(s for _, s, _ in self.pw))
            if self.geo:
                rmax = self.geo[0][0]
                while True:
                    gb = sum(abs(c) * r**n for r, c in self.geo)
                    ratio_ok = (Q(n) / Q(n + 1)) ** drop >= rmax
                    if ratio_ok and gb < lower_coeff / Q(n) ** drop:
                        break
                    n *= 2
                    if n > 1 << 62:
                        raise RangeError("the sign of a term is not certified before index 2^62")
            return sign, n
        if self.geo:
            rstar, cstar = self.geo[0]
            sign = 1 if cstar > 0 else -1
            n = 1
            while sum(abs(c) * (r / rstar) ** n for r, c in self.geo[1:]) >= abs(cstar):
                n *= 2
            return sign, n
        return 0, 1

    def tail_sum_bounds(self, start: int) -> tuple[Q, Q]:
        """Certified (low, high) for sum_{n >= start} t(n); needs limit 0.

        Exact (low == high) when the term is purely geometric.  Power
        monomials with k == 1 diverge and are rejected.
        """
        if self.const != 0:
            raise ValueError("tail sums require a term with limit 0")
        lo = hi = Q(0)
        for r, c in self.geo:
            if start > _EXP_CAP:
                # avoid gigantic exact powers: bracket by [0, tail at the cap]
                cap_tail = abs(c) * r**_EXP_CAP / (1 - r)
                if c >= 0:
                    hi += cap_tail
                else:
                    lo -= cap_tail
                continue
            exact = c * r**start / (1 - r)
            lo += exact
            hi += exact
        for k, s, c in self.pw:
            if k == 1:
                raise ValueError("harmonic-order tails diverge")
            # integral bracket for sum_{n>=N} 1/(n+s)^k, k >= 2
            below = Q(1, (k - 1) * (start + s) ** (k - 1))
            above = below + Q(1, (start + s) ** k)
            if c >= 0:
                lo += c * below
                hi += c * above
            else:
                lo += c * above
                hi += c * below
        return lo, hi

    def tail_sum(self, start: int, target_gap: Q) -> tuple[Q, Q]:
        """tail_sum_bounds(start) refined by exact prefix sums; the gap halves
        roughly once a round until it is at most 2 * target_gap or
        _MAX_TAIL_TERMS terms are summed."""
        prefix, end, chunk = Q(0), start + _MAX_TAIL_TERMS, 8
        lo, hi = self.tail_sum_bounds(start)
        while hi - lo > 2 * target_gap and start < end:
            stop = min(start + chunk, end)
            prefix += sum(self.eval(n) for n in range(start, stop))
            start, chunk = stop, min(chunk * 2, 1024)
            lo, hi = self.tail_sum_bounds(start)
        return prefix + lo, prefix + hi

    # --- dominant parts, for the density rule table -----------------------

    def dominant(self) -> tuple[str, object, Q]:
        """Dominating monomial of a term with limit 0 and eventually > 0.

        Returns ('pow', k, coeff_sum) or ('geo', ratio, coeff); coefficient must
        be positive, otherwise the dominant order cancels and the rule table
        does not apply.
        """
        if self.pw:
            k_min = min(k for k, _, _ in self.pw)
            coeff = sum(c for k, _, c in self.pw if k == k_min)
            if coeff <= 0:
                raise UndecidableDensity("dominant power coefficient cancels")
            return "pow", k_min, coeff
        if self.geo:
            r, c = self.geo[0]
            if c <= 0:
                raise UndecidableDensity("dominant geometric coefficient cancels")
            return "geo", r, c
        raise UndecidableDensity("width term is identically zero")

    def abs_coeff_sum(self) -> Q:
        return sum(abs(c) for _, c in self.geo) + sum(abs(c) for _, _, c in self.pw)

    def half_dominant_holds(self) -> bool:
        """Certify t(n) >= half its dominant monomial for all large n."""
        kind, key, coeff = self.dominant()
        half = Term.power(coeff / 2, key) if kind == "pow" else Term.geometric(coeff / 2, key)
        return (self - half).eventual_sign()[0] >= 0

    def to_text(self) -> str:
        parts = []
        if self.const != 0 or self.is_constant():
            parts.append((self.const or 1, rat_text(abs(self.const))))
        for r, c in self.geo:
            coeff = "" if abs(c) == 1 else f"{rat_text(abs(c))}*"
            parts.append((c, f"{coeff}({rat_text(r)})^n"))
        for k, s, c in self.pw:
            if s != 0:
                raise ValueError("shifted power monomials have no surface syntax")
            suffix = "/n" if k == 1 else f"/n^{k}"
            parts.append((c, f"{rat_text(abs(c))}{suffix}"))
        return signed_text(parts)


# --- crossings: the first index below a distance ---------------------------


def _index_refusal() -> UnsupportedIntersection:
    return UnsupportedIntersection("tail index search passed 2^62")


def _exact_refusal() -> UnsupportedIntersection:
    return UnsupportedIntersection("tail comparison needs a geometric power past 2^20 bits")


def _iroot(t: int, k: int) -> int:
    """floor(t^(1/k)) for t >= 0: Newton steps from above, from a power of
    two past the root (Brent & Zimmermann, Modern Computer Arithmetic, 1.5)."""
    if k == 1 or t < 2:
        return t
    if k == 2:
        return math.isqrt(t)
    r = 1 << -(-t.bit_length() // k)
    while True:
        y = ((k - 1) * r + t // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


class _Dist:
    """A tail's distance term compiled once to integers: positive and
    strictly decreasing from the tail's start.  A distance a/b is a pair of
    integers with b > 0.  sign(n, a, b) is the exact sign of term(n) - a/b,
    and first(start, a, b, strict) the first n >= start with term(n) < a/b
    (term(n) <= a/b when not strict).  This general form gallops over exact
    comparisons; one power monomial or one geometric part solve for the
    crossing directly (_PowerDist, _GeoDist)."""

    def __init__(self, term: Term):
        self.term = term

    def sign(self, n: int, a: int, b: int) -> int:
        x = Q(a, b)
        lo, hi = self.term.eval_bounds(n)
        if lo > x:
            return 1
        if hi < x:
            return -1
        v = self.term.eval(n)
        return (v > x) - (v < x)

    def first(self, start: int, a: int, b: int, strict: bool) -> int:
        return _gallop(self.sign, start, a, b, strict)


class _PowerDist(_Dist):
    """p/(q*(n+s)^k): term(n) < a/b exactly when (n+s)^k > p*b/(a*q), so the
    crossing is an integer k-th root."""

    def __init__(self, term: Term):
        super().__init__(term)
        ((self.k, self.s, c),) = term.pw
        self.p, self.q = c.numerator, c.denominator

    def sign(self, n: int, a: int, b: int) -> int:
        v = self.p * b - a * self.q * (n + self.s) ** self.k
        return (v > 0) - (v < 0)

    def first(self, start: int, a: int, b: int, strict: bool) -> int:
        if a <= 0:
            raise _index_refusal()
        num, den = self.p * b, a * self.q
        t = num // den + 1 if strict else -(-num // den)  # the least m^k that crosses
        m = _iroot(t, self.k)
        if m**self.k < t:
            m += 1
        n = max(start, m - self.s)
        if n - start > _INDEX_BOUND:
            raise _index_refusal()
        return n


class _GeoDist(_Dist):
    """(p/q)*(u/v)^n: term(n) < a/b exactly when (v/u)^n > p*b/(a*q).  The
    crossing is estimated from logarithms (math.log reads an integer's bit
    length and leading bits) and confirmed by exact integer comparisons; an
    estimate that three steps do not confirm falls back to galloping."""

    def __init__(self, term: Term):
        super().__init__(term)
        ((r, c),) = term.geo
        self.u, self.v = r.numerator, r.denominator
        self.p, self.q = c.numerator, c.denominator
        self.log_step = math.log1p((self.v - self.u) / self.u)  # log(1/r) > 0

    def sign(self, n: int, a: int, b: int) -> int:
        if n * self.v.bit_length() > _EXACT_BITS:
            raise _exact_refusal()
        v = self.p * b * self.u**n - a * self.q * self.v**n
        return (v > 0) - (v < 0)

    def first(self, start: int, a: int, b: int, strict: bool) -> int:
        if a <= 0:
            raise _index_refusal()
        bound = 0 if strict else 1
        est = (math.log(self.p * b) - math.log(a * self.q)) / self.log_step if self.log_step else math.inf
        if not est < start + _INDEX_BOUND:
            return _gallop(self.sign, start, a, b, strict)
        n = max(start, math.floor(est) + 1)
        for _ in range(3):  # the estimate is within a step or two of the crossing
            if self.sign(n, a, b) >= bound:
                n += 1
            elif n > start and self.sign(n - 1, a, b) < bound:
                n -= 1
            else:
                return n
        return _gallop(self.sign, start, a, b, strict)


def _compile(term: Term) -> _Dist:
    """The integer form of a tail's distance term (limit 0, positive)."""
    if not term.geo and len(term.pw) == 1:
        return _PowerDist(term)
    if not term.pw and len(term.geo) == 1:
        return _GeoDist(term)
    return _Dist(term)


def _gallop(sign: Callable[[int, int, int], int], start: int, a: int, b: int, strict: bool) -> int:
    """First n >= start with sign(n, a, b) < 0 (<= 0 when not strict), by
    galloping and then bisecting, for a decreasing term."""
    bound = 0 if strict else 1
    if sign(start, a, b) < bound:
        return start
    span = 1
    lo = start
    while True:
        hi = start + span
        if sign(hi, a, b) < bound:
            break
        lo = hi
        span *= 2
        if span > _INDEX_BOUND:
            raise _index_refusal()
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if sign(mid, a, b) < bound:
            hi = mid
        else:
            lo = mid
    return hi
