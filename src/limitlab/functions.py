"""Piecewise polynomial functions over symbolic set guards.

A function is an ordered list of (guard, polynomial) branches plus a default
branch, evaluated first-match, restricted to a domain.  Superlevel sets
{ |p(x) - L| >= eps } are produced as sandwich sets: inner/outer expressions
that bracket the true set exactly when every boundary root is rational, and
within a certified measure gap otherwise.  The sandwiches, the zero sets of
nonzero_set and the divisor check of fn_div read one list of root cells per
polynomial: a point for a rational root, an enclosure ROOT_WIDTH wide for an
irrational one.  Effective regions are rebuilt on each call; their trees hit
the normal-form memo of `sets`.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from ._record import record
from .errors import (
    DivisionByPossiblyZero,
    NonPolynomialQuotient,
    OutsideDomain,
)
from .poly import Poly, isolate_roots, refine_root
from .sets import (
    FULL_LINE,
    Difference,
    Intersection,
    Normal,
    SetExpr,
    Union,
    _normal,
    interval,
    membership,
    points,
    punctured_window,
)

Q = Fraction

# Every irrational root is enclosed in an interval this wide.
ROOT_WIDTH = Q(1, 2**20)


@record
class PiecewiseFn:
    domain: SetExpr
    branches: tuple[tuple[SetExpr, Poly], ...]
    default: Poly

    def __new__(cls, domain, branches, default):
        return tuple.__new__(cls, (domain, tuple((g, p) for g, p in branches), default))


def piecewise(branches, default, domain: SetExpr = FULL_LINE) -> PiecewiseFn:
    return PiecewiseFn(domain, tuple((g, Poly.make(p.coeffs) if isinstance(p, Poly) else p) for g, p in branches), default)


def indicator_fn(guard: SetExpr, domain: SetExpr = FULL_LINE) -> PiecewiseFn:
    """1 on the guard, 0 elsewhere."""
    return PiecewiseFn(domain, ((guard, Poly.const(1)),), Poly.const(0))


@record
class SandwichSet:
    """inner ⊆ S ⊆ outer with |outer \\ inner| <= gap, both normal forms."""

    inner: Normal
    outer: Normal
    gap: Q

    @property
    def exact(self) -> bool:
        return self.gap == 0 and self.inner == self.outer


def fn_evaluator(f: PiecewiseFn) -> Callable[[Q], Q]:
    """Exact evaluation of f, with the membership tests and every branch's
    integer form resolved once for all the points it is called on."""
    in_domain = membership(f.domain)
    branches = [(membership(guard), p.evaluator()) for guard, p in f.branches]
    default = f.default.evaluator()

    def evaluate(x) -> Q:
        if not isinstance(x, Q):
            x = Q(x)
        if not in_domain(x):
            raise OutsideDomain(f"{x} is outside the function domain")
        for in_guard, value in branches:
            if in_guard(x):
                return value(x)
        return default(x)

    return evaluate


def fn_eval(f: PiecewiseFn, x) -> Q:
    return fn_evaluator(f)(x)


def effective_regions(f: PiecewiseFn) -> tuple[tuple[Normal, Poly], ...]:
    """Disjoint (region, polynomial) pairs covering the domain exactly, each
    region a nonempty normal form; first-match overlap resolved by
    subtracting earlier guards."""
    regions = []
    seen: list[SetExpr] = []
    for guard, p in f.branches:
        expr = Intersection((f.domain, guard))
        for earlier in seen:
            expr = Difference(expr, earlier)
        regions.append((_normal(expr), p))
        seen.append(guard)
    default_expr = f.domain
    for earlier in seen:
        default_expr = Difference(default_expr, earlier)
    regions.append((_normal(default_expr), f.default))
    return tuple((r, p) for r, p in regions if r.pieces)


# --- polynomial sign regions ----------------------------------------------------


def _root_cells(q: Poly) -> list[tuple[Q, Q]]:
    """The sorted closed cells [lo, hi] holding the real roots of q, one
    each: lo = hi for a rational root, and an enclosure at most ROOT_WIDTH
    wide, with rational ends that are not roots, for an irrational one.  A
    constant has none."""
    if q.is_constant():
        return []
    return [
        (loc, loc) if isinstance(loc, Q) else refine_root(q, loc[0], loc[1], ROOT_WIDTH)
        for loc in isolate_roots(q)
    ]


def _point_between(lo: Q | None, hi: Q | None) -> Q:
    """A point of the gap (lo, hi); None stands for an infinite end."""
    if lo is None:
        return Q(0) if hi is None else hi - 1
    return lo + 1 if hi is None else (lo + hi) / 2


def _sign_regions(q: Poly) -> tuple[list[SetExpr], list[SetExpr], Q]:
    """(inner, outer, gap) interval pieces of {x : q(x) >= 0}.

    q has one sign on each gap between root cells, read at a point of it.
    Where that sign is positive, the inner side stops at each cell's near
    edge and the outer side reaches its far edge.  A rational root belongs
    to both sides, so with only rational roots they are the same list; an
    irrational one widens the gap by its cell on each."""
    cells = _root_cells(q)
    inner: list[SetExpr] = [points(lo) for lo, hi in cells if lo == hi]
    outer = list(inner)
    ends = [(None, None), *cells, (None, None)]
    for (far_lo, near_lo), (near_hi, far_hi) in zip(ends, ends[1:]):
        if q(_point_between(near_lo, near_hi)) >= 0:
            inner.append(interval(near_lo, near_hi, near_lo == far_lo, near_hi == far_hi))
            outer.append(interval(far_lo, far_hi))
    return inner, outer, 2 * sum((hi - lo for lo, hi in cells), Q(0))


def isolate_superlevel(p: Poly, L, eps) -> SandwichSet:
    """Sandwich of {x : |p(x) - L| >= eps}."""
    L, eps = Q(L), Q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    in1, out1, g1 = _sign_regions(p - Poly.const(L + eps))  # p - L >= eps
    in2, out2, g2 = _sign_regions(Poly.const(L - eps) - p)  # p - L <= -eps
    return SandwichSet(_normal(Union(in1 + in2)), _normal(Union(out1 + out2)), g1 + g2)


def superlevel_sandwich(f: PiecewiseFn, L: Q, eps: Q, window: SetExpr | None = None) -> SandwichSet:
    """Sandwich of {x in domain : |f(x) - L| >= eps}, clipped to the window
    when one is given."""
    clip = () if window is None else (window,)
    inner_parts = []
    outer_parts = []
    gap = Q(0)
    for region, p in effective_regions(f):
        sl = isolate_superlevel(p, L, eps)
        if not sl.outer.pieces:
            continue
        if sl.inner.pieces:
            inner_parts.append(Intersection((region, sl.inner) + clip))
        outer_parts.append(Intersection((region, sl.outer) + clip))
        gap += sl.gap
    return SandwichSet(_normal(Union(inner_parts)), _normal(Union(outer_parts)), gap)


def exceptional_set(f: PiecewiseFn, a, L, delta, eps) -> SandwichSet:
    """Sandwich of {x in punctured window ∩ domain : |f(x) - L| >= eps}."""
    a, L, delta, eps = Q(a), Q(L), Q(delta), Q(eps)
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    return superlevel_sandwich(f, L, eps, punctured_window(a, delta))


def nonzero_set(f: PiecewiseFn) -> SandwichSet:
    """Sandwich of {x in domain : f(x) != 0}."""
    inner_parts = []
    outer_parts = []
    gap = Q(0)
    for region, p in effective_regions(f):
        if p.is_zero():
            continue
        cells = _root_cells(p)
        inner_parts.append(Difference(region, Union(tuple(interval(lo, hi) for lo, hi in cells))))
        outer_parts.append(region)
        gap += sum(hi - lo for lo, hi in cells)
    # exact rational roots removed from inner are also absent from the true
    # set, so only the refined enclosures contribute to the gap
    return SandwichSet(_normal(Union(inner_parts)), _normal(Union(outer_parts)), gap)


# --- arithmetic -----------------------------------------------------------------


def _combine(f1: PiecewiseFn, f2: PiecewiseFn, op) -> PiecewiseFn:
    if _normal(f1.domain) != _normal(f2.domain):
        raise ValueError("binary arithmetic requires identical domains")
    regs1 = effective_regions(f1)
    regs2 = effective_regions(f2)
    branches = []
    for r1, p1 in regs1:
        for r2, p2 in regs2:
            guard = _normal(Intersection((r1, r2)))
            if not guard.pieces:
                continue
            branches.append((guard, op(p1, p2)))
    if not branches:
        return PiecewiseFn(f1.domain, (), op(f1.default, f2.default))
    default = branches[-1][1]
    return PiecewiseFn(f1.domain, tuple(branches[:-1]), default)


def _check_nonvanishing(f: PiecewiseFn) -> None:
    for region, p in effective_regions(f):
        if p.is_zero():
            raise DivisionByPossiblyZero("a divisor branch is identically zero")
        for lo, hi in _root_cells(p):
            if _normal(Intersection((region, interval(lo, hi)))).pieces:
                raise DivisionByPossiblyZero(
                    f"divisor vanishes at {lo}" if lo == hi else f"divisor may vanish inside ({lo}, {hi})"
                )


def fn_add(f1: PiecewiseFn, f2: PiecewiseFn) -> PiecewiseFn:
    return _combine(f1, f2, lambda p, q: p + q)


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
