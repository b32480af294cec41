"""Piecewise polynomial functions over symbolic set guards.

A function is an ordered list of (guard, polynomial) branches plus a default
branch, evaluated first-match, restricted to a domain.  Superlevel sets
{ |p(x) - L| >= eps } are produced as sandwich sets: inner/outer expressions
that bracket the true set exactly when every boundary root is rational, and
within a certified measure gap otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByPossiblyZero,
    NonPolynomialQuotient,
    OutsideDomain,
)
from .poly import Poly, isolate_roots, refine_root
from .sets import (
    EMPTY,
    FULL_LINE,
    Difference,
    EmptySet,
    Intersection,
    Interval,
    SetExpr,
    Union,
    contains,
    interval,
    normalize,
    points,
)

Q = Fraction

DEFAULT_ROOT_WIDTH = Q(1, 2**20)


@dataclass(frozen=True)
class PiecewiseFn:
    domain: SetExpr
    branches: tuple[tuple[SetExpr, Poly], ...]
    default: Poly

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple((g, p) for g, p in self.branches))


def piecewise(branches, default, domain: SetExpr = FULL_LINE) -> PiecewiseFn:
    return PiecewiseFn(domain, tuple((g, Poly.make(p.coeffs) if isinstance(p, Poly) else p) for g, p in branches), default)


def indicator_fn(guard: SetExpr, domain: SetExpr = FULL_LINE) -> PiecewiseFn:
    """1 on the guard, 0 elsewhere."""
    return PiecewiseFn(domain, ((guard, Poly.const(1)),), Poly.const(0))


@dataclass(frozen=True)
class SandwichSet:
    """inner ⊆ S ⊆ outer with |outer \\ inner| <= gap."""

    inner: SetExpr
    outer: SetExpr
    gap: Q

    @property
    def exact(self) -> bool:
        return self.gap == 0 and self.inner == self.outer


def fn_eval(f: PiecewiseFn, x) -> Q:
    x = Q(x)
    if not contains(f.domain, x):
        raise OutsideDomain(f"{x} is outside the function domain")
    for guard, p in f.branches:
        if contains(guard, x):
            return p(x)
    return f.default(x)


@lru_cache(maxsize=None)
def effective_regions(f: PiecewiseFn) -> tuple[tuple[SetExpr, Poly], ...]:
    """Disjoint (region, polynomial) pairs covering the domain exactly;
    first-match overlap resolved by subtracting earlier guards."""
    regions = []
    seen: list[SetExpr] = []
    for guard, p in f.branches:
        expr = Intersection((f.domain, guard))
        for earlier in seen:
            expr = Difference(expr, earlier)
        regions.append((normalize(expr), p))
        seen.append(guard)
    default_expr = f.domain
    for earlier in seen:
        default_expr = Difference(default_expr, earlier)
    regions.append((normalize(default_expr), f.default))
    return tuple((r, p) for r, p in regions if not isinstance(r, EmptySet))


# --- polynomial sign regions ----------------------------------------------------


def _sign_regions(q: Poly, width: Q) -> tuple[list[SetExpr], list[SetExpr], Q]:
    """(inner, outer, gap) interval pieces of {x : q(x) >= 0}."""
    if q.is_zero():
        return [FULL_LINE], [FULL_LINE], Q(0)
    if q.is_constant():
        if q.constant_value() >= 0:
            return [FULL_LINE], [FULL_LINE], Q(0)
        return [], [], Q(0)
    bounds = []  # (inner_lo, inner_hi, outer_lo, outer_hi, exact_value|None)
    gap = Q(0)
    for loc in isolate_roots(q):
        if isinstance(loc, Q):
            bounds.append((loc, loc, loc, loc, loc))
        else:
            lo, hi = refine_root(q, loc[0], loc[1], width)
            bounds.append((hi, lo, lo, hi, None))
            gap += 2 * (hi - lo)
    # bounds[i] = (right-safe start, left-safe end, generous start, generous end)
    inner: list[SetExpr] = []
    outer: list[SetExpr] = []
    n = len(bounds)
    for i in range(n + 1):
        left = bounds[i - 1] if i > 0 else None
        right = bounds[i] if i < n else None
        lo_sample = left[3] if left is not None else (right[2] - 1 if right is not None else Q(0))
        hi_sample = right[2] if right is not None else (left[3] + 1 if left is not None else Q(0))
        sample = (lo_sample + hi_sample) / 2 if (left is not None or right is not None) else Q(0)
        if q(sample) > 0:
            in_lo = None if left is None else left[0]
            in_hi = None if right is None else right[1]
            out_lo = None if left is None else left[2]
            out_hi = None if right is None else right[3]
            li = left is not None and left[4] is not None  # closed at exact root
            ri = right is not None and right[4] is not None
            piece_in = interval(in_lo, in_hi, li, ri)
            piece_out = interval(out_lo, out_hi, True if left is not None else False, True if right is not None else False)
            if not isinstance(piece_in, EmptySet):
                inner.append(piece_in)
            if not isinstance(piece_out, EmptySet):
                outer.append(piece_out)
    # exact roots themselves satisfy q == 0 >= 0
    for b in bounds:
        if b[4] is not None:
            inner.append(points(b[4]))
            outer.append(points(b[4]))
    return inner, outer, gap


def isolate_superlevel(p: Poly, L, eps, width: Q = DEFAULT_ROOT_WIDTH) -> SandwichSet:
    """Sandwich of {x : |p(x) - L| >= eps}."""
    L, eps = Q(L), Q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p.is_constant():
        hit = abs(p.constant_value() - L) >= eps
        e = FULL_LINE if hit else EMPTY
        return SandwichSet(e, e, Q(0))
    upper = p - Poly.const(L + eps)  # p - L >= eps
    lower = Poly.const(L - eps) - p  # p - L <= -eps
    in1, out1, g1 = _sign_regions(upper, width)
    in2, out2, g2 = _sign_regions(lower, width)
    inner = normalize(Union(tuple(in1 + in2))) if (in1 or in2) else EMPTY
    outer = normalize(Union(tuple(out1 + out2))) if (out1 or out2) else EMPTY
    return SandwichSet(inner, outer, g1 + g2)


def punctured_window(a, delta) -> SetExpr:
    a, delta = Q(a), Q(delta)
    return Union((Interval(a - delta, a, False, False), Interval(a, a + delta, False, False)))


def superlevel_sandwich(
    f: PiecewiseFn, L: Q, eps: Q, window: SetExpr | None = None, width: Q = DEFAULT_ROOT_WIDTH
) -> SandwichSet:
    """Sandwich of {x in domain : |f(x) - L| >= eps}, clipped to the window
    when one is given."""
    clip = () if window is None else (window,)
    inner_parts = []
    outer_parts = []
    gap = Q(0)
    for region, p in effective_regions(f):
        sl = isolate_superlevel(p, L, eps, width)
        if isinstance(sl.outer, EmptySet):
            continue
        if not isinstance(sl.inner, EmptySet):
            inner_parts.append(Intersection((region, sl.inner) + clip))
        outer_parts.append(Intersection((region, sl.outer) + clip))
        gap += sl.gap
    inner = normalize(Union(tuple(inner_parts))) if inner_parts else EMPTY
    outer = normalize(Union(tuple(outer_parts))) if outer_parts else EMPTY
    return SandwichSet(inner, outer, gap)


def exceptional_set(f: PiecewiseFn, a, L, delta, eps, width: Q = DEFAULT_ROOT_WIDTH) -> SandwichSet:
    """Sandwich of {x in punctured window ∩ domain : |f(x) - L| >= eps}."""
    a, L, delta, eps = Q(a), Q(L), Q(delta), Q(eps)
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    return superlevel_sandwich(f, L, eps, punctured_window(a, delta), width)


def nonzero_set(f: PiecewiseFn, width: Q = DEFAULT_ROOT_WIDTH) -> SandwichSet:
    """Sandwich of {x in domain : f(x) != 0}."""
    inner_parts = []
    outer_parts = []
    gap = Q(0)
    for region, p in effective_regions(f):
        if p.is_zero():
            continue
        if p.is_constant():
            inner_parts.append(region)
            outer_parts.append(region)
            continue
        cut_inner = region
        for loc in isolate_roots(p):
            if isinstance(loc, Q):
                cut_inner = Difference(cut_inner, points(loc))
            else:
                lo, hi = refine_root(p, loc[0], loc[1], width)
                cut_inner = Difference(cut_inner, interval(lo, hi))
                gap += hi - lo
        inner_parts.append(cut_inner)
        outer_parts.append(region)
    inner = normalize(Union(tuple(inner_parts))) if inner_parts else EMPTY
    outer = normalize(Union(tuple(outer_parts))) if outer_parts else EMPTY
    # exact rational roots removed from inner are also absent from the true
    # set, so only the refined enclosures contribute to the gap
    return SandwichSet(inner, outer, gap)


# --- arithmetic -----------------------------------------------------------------


def _combine(f1: PiecewiseFn, f2: PiecewiseFn, op) -> PiecewiseFn:
    if normalize(f1.domain) != normalize(f2.domain):
        raise ValueError("binary arithmetic requires identical domains")
    regs1 = effective_regions(f1)
    regs2 = effective_regions(f2)
    branches = []
    for r1, p1 in regs1:
        for r2, p2 in regs2:
            guard = normalize(Intersection((r1, r2)))
            if isinstance(guard, EmptySet):
                continue
            branches.append((guard, op(p1, p2)))
    if not branches:
        return PiecewiseFn(f1.domain, (), op(f1.default, f2.default))
    default = branches[-1][1]
    return PiecewiseFn(f1.domain, tuple(branches[:-1]), default)


def _check_nonvanishing(f: PiecewiseFn) -> None:
    for region, p in effective_regions(f):
        if p.is_constant():
            if p.constant_value() == 0:
                raise DivisionByPossiblyZero("a divisor branch is identically zero")
            continue
        for loc in isolate_roots(p):
            if isinstance(loc, Q):
                if contains(region, loc):
                    raise DivisionByPossiblyZero(f"divisor vanishes at {loc}")
            else:
                probe = normalize(Intersection((region, interval(loc[0], loc[1]))))
                if not isinstance(probe, EmptySet):
                    raise DivisionByPossiblyZero(
                        f"divisor may vanish inside ({loc[0]}, {loc[1]})"
                    )


def fn_add(f1: PiecewiseFn, f2: PiecewiseFn) -> PiecewiseFn:
    return _combine(f1, f2, lambda p, q: p + q)


def fn_sub(f1: PiecewiseFn, f2: PiecewiseFn) -> PiecewiseFn:
    return _combine(f1, f2, lambda p, q: p - q)


def fn_mul(f1: PiecewiseFn, f2: PiecewiseFn) -> PiecewiseFn:
    return _combine(f1, f2, lambda p, q: p * q)


def fn_scale(f: PiecewiseFn, lam) -> PiecewiseFn:
    lam = Q(lam)
    return PiecewiseFn(
        f.domain,
        tuple((g, p.scale(lam)) for g, p in f.branches),
        f.default.scale(lam),
    )


def fn_div(f1: PiecewiseFn, f2: PiecewiseFn) -> PiecewiseFn:
    _check_nonvanishing(f2)
    for _, p in effective_regions(f2):
        if not p.is_constant():
            raise NonPolynomialQuotient(
                "quotients are representable only for branchwise-constant divisors"
            )
    return _combine(f1, f2, lambda p, q: p.scale(1 / q.constant_value()))


def arith(f1: PiecewiseFn, f2: PiecewiseFn, op) -> PiecewiseFn:
    """op: '+', '-', '*', '/', or ('scale', lam)."""
    if isinstance(op, tuple) and op[0] == "scale":
        return fn_scale(f1, op[1])
    table = {"+": fn_add, "-": fn_sub, "*": fn_mul, "/": fn_div}
    return table[op](f1, f2)
