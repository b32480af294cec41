"""Closed-form integer-indexed sequences: c + sum of c*r^n and c/(n+s)^k.

Every value is exactly evaluable at any index, and the sign of a term for
all large n is decidable: the power part is a rational function of n (exact
polynomial analysis) and the geometric part is enveloped by its largest
ratio.  The integer shift s never appears in user input; it arises when a
term is compared against its own successor t(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError
from .poly import Poly, rat_text

Q = Fraction

# Geometric factors r**n are never expanded exactly beyond this exponent;
# past it the (valid, weaker) bound r**_EXP_CAP is used instead.  Keeps
# deviation bounds cheap when indices reach the billions.
_EXP_CAP = 8192


@dataclass(frozen=True)
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

    def deviation_bound(self, n: int) -> Q:
        """B(n) >= |t(m) - limit| for every m >= n; nonincreasing in n."""
        acc = Q(0)
        for r, c in self.geo:
            acc += abs(c) * r ** min(n, _EXP_CAP)
        for k, s, c in self.pw:
            acc += abs(c) / Q(n + s) ** k
        return acc

    def power_part_value(self, n: int) -> Q:
        """const plus the power monomials, exactly; cheap at any index."""
        acc = self.const
        for k, s, c in self.pw:
            acc += c / Q(n + s) ** k
        return acc

    def eval_bounds(self, n: int) -> tuple[Q, Q]:
        """(low, high) enclosing t(n); exact-width shrinks with n, and the
        geometric part is never expanded past the exponent cap."""
        v = self.power_part_value(n)
        g = Q(0)
        for r, c in self.geo:
            g += abs(c) * r ** min(n, _EXP_CAP)
        return v - g, v + g

    def index_with_deviation_below(self, margin: Q, start: int = 1) -> int:
        """Smallest probed index n >= start with deviation_bound(n) < margin."""
        if margin <= 0:
            raise ValueError("margin must be positive")
        if self.is_constant():
            return start
        n = max(start, 1)
        while self.deviation_bound(n) >= margin:
            n *= 2
            if n > 1 << 62:
                raise RangeError("the sign of a term is not certified before index 2^62")
        return n

    def _power_rational_function(self) -> tuple[Poly, Poly]:
        """The power part as P(n)/Q(n) with Q = prod (n+s)^k_max(s) > 0."""
        kmax: dict[int, int] = {}
        for k, s, _ in self.pw:
            kmax[s] = max(kmax.get(s, 0), k)
        den = Poly.const(1)
        for s, k in sorted(kmax.items()):
            factor = Poly.make([s, 1])
            for _ in range(k):
                den = den * factor
        num = Poly(())
        for k, s, c in self.pw:
            part = Poly.const(c)
            for s2, km in sorted(kmax.items()):
                need = km - k if s2 == s else km
                factor = Poly.make([s2, 1])
                for _ in range(need):
                    part = part * factor
            num = num + part
        return num, den

    def eventual_sign(self) -> tuple[int, int]:
        """(sign, N): sign of t(n) is constant for all n >= N.

        Sign 0 means the term is identically zero from N on (which, for this
        representation, means identically zero).
        """
        if self.const != 0:
            n = self.index_with_deviation_below(abs(self.const))
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

    def to_text(self) -> str:
        parts = []

        def _join(sign_value: Q, body: str):
            if not parts:
                parts.append(body if sign_value > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if sign_value > 0 else f"- {body}")

        if self.const != 0 or (not self.geo and not self.pw):
            _join(self.const if self.const != 0 else Q(1), rat_text(abs(self.const)))
        for r, c in self.geo:
            coeff = "" if abs(c) == 1 else f"{rat_text(abs(c))}*"
            _join(c, f"{coeff}({rat_text(r)})^n")
        for k, s, c in self.pw:
            if s != 0:
                raise ValueError("shifted power monomials have no surface syntax")
            suffix = "/n" if k == 1 else f"/n^{k}"
            _join(c, f"{rat_text(abs(c))}{suffix}")
        return " ".join(parts)
