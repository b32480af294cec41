"""Constructive splitting f = g + h for countable / null limit types.

When L is a T5 (or T6) limit of f at a, f splits into g with a classical
limit L at a and a remainder h supported - inside some window - on a
countable (respectively measure-zero) set.  The status comes from the
region table of `limits`; the construction walks the same eps bands as the
witnesses of `check`, in decreasing eps, with window radii forced
nonincreasing so the largest one serves as the certified window radius of
the decomposition.  Each band's exceptional set is clipped to its window
region by region, so a union of regions that cannot be normalized as a
whole does not block a decomposition whose clipped parts can.

g is L on the union of the clipped parts and f elsewhere, so f - g is
p_i - L on region i's clipped parts and 0 elsewhere: h is built from those
(part, p_i - L) pairs directly, with no function arithmetic, and g + h = f
holds at every point by construction.

`verify_decomposition` has three outcomes: True, False for a decomposition
shown wrong, and a raised UnsupportedIntersection when the set algebra
cannot decide one of the properties.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .analyzers import cardinality, measure
from .errors import PrerequisiteNotMet, UnsupportedIntersection
from .functions import PiecewiseFn, fn_evaluator, nonzero_set, punctured_window
from .limits import LimitType, _region_germs, _status, _verdict
from .poly import Poly
from .sets import Intersection, Normal, Union, _normal, window_trace
from .sampling import sample_points

Q = Fraction


@record
class Decomposition:
    g: PiecewiseFn
    h: PiecewiseFn
    delta0: Q
    exceptional_union: Normal


def decompose(f: PiecewiseFn, a, L, t: LimitType) -> Decomposition:
    """Split f = g + h realizing a type-t limit L at a.

    g equals L on the union of the banded exceptional sets and follows f
    elsewhere; h is p - L on each region's part of that union and 0
    elsewhere, supported near a on a t-small set.
    """
    a, L = Q(a), Q(L)
    if t not in (LimitType.T5, LimitType.T6):
        raise ValueError("decomposition applies to T5 and T6")
    regions, (germs,) = _region_germs(f, a, (t,))
    verdict, bands = _verdict(regions, germs, a, L, t)
    if not verdict.passed():
        raise PrerequisiteNotMet(f"no type-{t.value} limit {L} at {a}: {verdict.evidence}")

    # walk the bands in decreasing eps with window radii forced nonincreasing,
    # so the first (largest) radius bounds every later one; each region's
    # part is clipped on its own, and a band yields its parts in the order
    # of the effective regions
    delta0 = running = bands[-1][1]
    offsets = [p - Poly.const(L) for _, p in regions]
    parts = []
    for _, delta, band in reversed(bands):
        running = min(running, delta)
        window = punctured_window(a, running)
        for part, offset in zip(band, offsets):
            clipped = _normal(Intersection((part, window)))
            if clipped.pieces:
                parts.append((clipped, offset))
    union = _normal(Union(part for part, _ in parts))
    if parts:
        g = PiecewiseFn(f.domain, ((union, Poly.const(L)),) + f.branches, f.default)
    else:
        g = f
    # several bands can clip the same part: h keeps the first of equal branches
    h = PiecewiseFn(f.domain, tuple(dict.fromkeys(parts)), Poly.const(0))
    return Decomposition(g, h, delta0, union)


def verify_decomposition(d: Decomposition, f: PiecewiseFn, a, L, t: LimitType, probes: int = 1000, seed: int = 7) -> bool:
    """Check the three defining properties of a decomposition.

    (i) g + h reproduces f on sampled domain points, (ii) g has a classical
    limit L at a, (iii) the window trace of {h != 0} at the certified radius
    is countable (T5) or has measure zero (T6).  True when all three hold,
    False when one is shown to fail; when the set algebra cannot decide (ii)
    or (iii), UnsupportedIntersection is raised with the reason, so that a
    refusal is never reported as a wrong decomposition.
    """
    a, L = Q(a), Q(L)
    eval_g, eval_h, eval_f = fn_evaluator(d.g), fn_evaluator(d.h), fn_evaluator(f)
    for x in sample_points(f.domain, count=probes, seed=seed, center=a, spread=max(d.delta0, 1)):
        if eval_g(x) + eval_h(x) != eval_f(x):
            return False
    _, (germs,) = _region_germs(d.g, a, (LimitType.T1,))
    status = _status(germs, L)
    if status == "undecidable":
        reason = next(small for value, small in germs if value != L and small is not True)
        raise UnsupportedIntersection(f"classical limit of g: {reason}")
    if status != "pass":
        return False
    trace = window_trace(nonzero_set(d.h).outer, a, d.delta0)
    if t is LimitType.T5:
        return cardinality(trace).kind in ("empty", "finite", "countably_infinite")
    m = measure(trace)
    return m.value == 0 and m.bound_gap == 0
