"""Constructive splitting f = g + h for countable / null limit types.

When L is a T5 (or T6) limit of f at a, f splits into g with a classical
limit L at a and a remainder h supported - inside some window - on a
countable (respectively measure-zero) set.  The status, the witnesses and
the parts come from `check`'s region table and eps bands.  At the smallest
test eps, half the smallest nonzero gap |p(a) - L|, a region with p(a) != L
lies near a wholly inside its part, so g has the classical limit L once
those parts are set to L.  Each part is clipped once, on its own, to the
window of the smallest witness radius: that window is no larger than the
band's own witness window, so the clipped parts are t-small, and it lies
inside the window of the largest eps's witness, the certified radius.  A
union of regions that cannot be normalized as a whole does not block a
decomposition whose clipped parts can.

g is L on the union of the clipped parts and f elsewhere, so f - g is
p_i - L on region i's clipped part and 0 elsewhere: h is built from those
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

    g equals L on the union of the smallest eps band's parts, clipped to the
    smallest witness window, and follows f elsewhere; h is p - L on each
    region's part of that union and 0 elsewhere, supported near a on a
    t-small set.
    """
    a, L = Q(a), Q(L)
    if t not in (LimitType.T5, LimitType.T6):
        raise ValueError("decomposition applies to T5 and T6")
    regions, (germs,) = _region_germs(f, a, (t,))
    verdict, parts = _verdict(regions, germs, a, L, t)
    if not verdict.passed():
        raise PrerequisiteNotMet(f"no type-{t.value} limit {L} at {a}: {verdict.evidence}")

    # the certified radius is the witness at the largest eps; the parts, in
    # the order of the effective regions, are clipped to the smallest one
    window = punctured_window(a, min(delta for _, delta in verdict.witness))
    clipped = ((_normal(Intersection((part, window))), p - Poly.const(L)) for part, (_, p) in zip(parts, regions))
    h_branches = tuple((part, offset) for part, offset in clipped if part.pieces)
    union = _normal(Union(part for part, _ in h_branches))
    g = PiecewiseFn(f.domain, ((union, Poly.const(L)),) + f.branches, f.default) if h_branches else f
    h = PiecewiseFn(f.domain, h_branches, Poly.const(0))
    return Decomposition(g, h, verdict.witness[-1][1], union)


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
    status, reason = _status(germs, L)
    if status == "undecidable":
        raise UnsupportedIntersection(f"classical limit of g: {reason}")
    if status != "pass":
        return False
    trace = window_trace(nonzero_set(d.h).outer, a, d.delta0)
    if t is LimitType.T5:
        return cardinality(trace).kind in ("empty", "finite", "countably_infinite")
    m = measure(trace)
    return m.value == 0 and m.bound_gap == 0
