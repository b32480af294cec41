"""Constructive splitting f = g + h for countable / null limit types.

When L is a T5 (or T6) limit of f at a, f splits into g with a classical
limit L at a and a remainder h supported - inside some window - on a
countable (respectively measure-zero) set.  The construction freezes the
exceptional sets at the finitely many structurally distinct eps bands,
with window radii chosen nonincreasing so the largest one serves as the
certified window radius of the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analyzers import cardinality, trace_measure
from .errors import PrerequisiteNotMet, UnsupportedIntersection
from .functions import PiecewiseFn, fn_eval, fn_sub, nonzero_set, punctured_window
from .limits import LimitType, check, _carrier
from .poly import Poly
from .sets import EmptySet, Intersection, SetExpr, Union, normalize, window_trace
from .sampling import sample_points

Q = Fraction


@dataclass(frozen=True)
class Decomposition:
    g: PiecewiseFn
    h: PiecewiseFn
    delta0: Q
    exceptional_union: SetExpr


def decompose(f: PiecewiseFn, a, L, t: LimitType) -> Decomposition:
    """Split f = g + h realizing a type-t limit L at a.

    g equals L on the union of the banded exceptional sets and follows f
    elsewhere; h is the difference, supported near a on a t-small set.
    """
    a, L = Q(a), Q(L)
    if t not in (LimitType.T5, LimitType.T6):
        raise ValueError("decomposition applies to T5 and T6")
    verdict = check(f, a, L, t)
    if not verdict.passed():
        raise PrerequisiteNotMet(f"no type-{t.value} limit {L} at {a}: {verdict.evidence}")

    # the verdict's (eps, delta) witnesses in decreasing eps order; window
    # radii forced nonincreasing so the first (largest) radius bounds every
    # later one
    witness = sorted(verdict.witness, reverse=True)
    delta0 = running = witness[0][1]
    parts = []
    for eps, delta in witness:
        running = min(running, delta)
        clipped = normalize(Intersection((_carrier(f, L, eps).outer, punctured_window(a, running))))
        if not isinstance(clipped, EmptySet):
            parts.append(clipped)
    union = normalize(Union(tuple(parts))) if parts else normalize(Union(()))
    if parts:
        g = PiecewiseFn(f.domain, ((union, Poly.const(L)),) + f.branches, f.default)
    else:
        g = f
    h = fn_sub(f, g)
    return Decomposition(g, h, delta0, union)


def verify_decomposition(d: Decomposition, f: PiecewiseFn, a, L, t: LimitType, probes: int = 1000, seed: int = 7) -> bool:
    """Check the three defining properties of a decomposition.

    (i) g + h reproduces f on sampled domain points, (ii) g has a classical
    limit L at a, (iii) the window trace of {h != 0} at the certified radius
    is countable (T5) or has measure zero (T6).
    """
    a, L = Q(a), Q(L)
    for x in sample_points(f.domain, count=probes, seed=seed, center=a, spread=max(d.delta0, 1)):
        if fn_eval(d.g, x) + fn_eval(d.h, x) != fn_eval(f, x):
            return False
    if not check(d.g, a, L, LimitType.T1).passed():
        return False
    try:
        support = nonzero_set(d.h)
        trace = window_trace(support.outer, a, d.delta0)
    except UnsupportedIntersection:
        return False
    if t is LimitType.T5:
        return cardinality(trace).kind in ("empty", "finite", "countably_infinite")
    m = trace_measure(trace)
    return m.value == 0 and m.bound_gap == 0
