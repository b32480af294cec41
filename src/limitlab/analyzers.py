"""Measure, cardinality, accumulation, and density deciders.

Everything here consumes canonical normal forms from the set algebra, so the
verdicts are exact except where stated: interval-family tail measures carry
certified bound gaps when member widths are not purely geometric, and the
density of a family tail at its accumulation point is settled by a rule
table over the dominant decay of member widths versus member positions.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import UndecidableDensity
from .sets import (
    COUNTABLE_KINDS,
    NULL_KINDS,
    FinitePoints,
    Interval,
    IntervalFamily,
    Normal,
    SetExpr,
    _normal,
    covered_sides,
    member_at,
    piece_reaches,
    tail_info,
)

Q = Fraction


# --- result types ------------------------------------------------------------


@record
class CardinalityClass:
    kind: str  # 'empty' | 'finite' | 'countably_infinite' | 'uncountable'
    count: int | None = None

    def __str__(self):
        if self.kind == "finite":
            return f"finite({self.count})"
        return self.kind


CARD_EMPTY = CardinalityClass("empty")
CARD_COUNTABLE = CardinalityClass("countably_infinite")
CARD_UNCOUNTABLE = CardinalityClass("uncountable")


def card_finite(n: int) -> CardinalityClass:
    if n == 0:
        return CARD_EMPTY
    return CardinalityClass("finite", n)


@record
class MeasureValue:
    value: Q
    certified: bool
    bound_gap: Q
    infinite: bool = False

    @property
    def exact(self) -> bool:
        return self.bound_gap == 0 and not self.infinite


@record
class DensityVerdict:
    kind: str  # 'zero' | 'value' | 'positive' | 'undecided'
    value: Q | None = None  # exact limit for 'value'
    lower_bound: Q | None = None  # certified bound on the liminf for 'positive'
    reason: str = ""

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "value" and self.value == 0)


DENSITY_ZERO = DensityVerdict("zero")


# --- measure -------------------------------------------------------------------


def family_tail_measure(fam: IntervalFamily, target_gap: Q = Q(1, 2**40)) -> tuple[Q, Q]:
    """Certified (low, high) for the total length of a canonical disjoint tail:
    the tail sum of its member widths."""
    return (fam.hi - fam.lo).tail_sum(fam.start, target_gap)


def measure(expr: SetExpr, target_gap: Q = Q(1, 2**40)) -> MeasureValue:
    """Lebesgue measure of the expression, exact where possible; a window
    trace is its own normal form."""
    value = Q(0)
    gap = Q(0)
    infinite = False
    for piece in _normal(expr).pieces:
        core = piece.core
        if isinstance(core, Interval):
            length = core.length()
            if length is None:
                infinite = True
                continue
            value += length
            for r in piece.removals:
                if isinstance(r, IntervalFamily):
                    m_lo, m_hi = family_tail_measure(r, target_gap)
                    value -= (m_lo + m_hi) / 2
                    gap += (m_hi - m_lo) / 2
        elif isinstance(core, IntervalFamily):
            m_lo, m_hi = family_tail_measure(core, target_gap)
            value += (m_lo + m_hi) / 2
            gap += (m_hi - m_lo) / 2
        # every other kind has measure zero
    return MeasureValue(value, True, gap, infinite)


# --- cardinality and accumulation ------------------------------------------------


def cardinality(trace: Normal) -> CardinalityClass:
    """Cardinality class of a window trace."""
    count = 0
    countable = False
    for piece in trace.pieces:
        core = piece.core
        if core.kind in COUNTABLE_KINDS:
            countable = True
        elif isinstance(core, FinitePoints):
            count += len(core.points)
        else:
            return CARD_UNCOUNTABLE
    if countable:
        return CARD_COUNTABLE
    return card_finite(count)


def has_no_accumulation_point(trace: Normal) -> bool:
    """True iff the derived set of the trace is empty.

    Interval pieces, rationals, Cantor pieces, sequence tails and family
    tails all force an accumulation point (of the trace, not necessarily in
    it); only finite point sets survive.
    """
    return all(isinstance(p.core, FinitePoints) for p in trace.pieces)


# --- density ----------------------------------------------------------------------


def tail_density_class(fam: IntervalFamily) -> tuple[str, Q | None]:
    """('zero', None) or ('positive', liminf lower bound) for a canonical
    disjoint tail at its own accumulation point, by dominant-decay analysis
    of member widths against member positions."""
    width = fam.hi - fam.lo
    position = tail_info(fam).far.term  # distance of the far edge from the limit
    wk, wkey, wc = width.dominant()
    pk, pkey, _ = position.dominant()
    pos_sum = position.abs_coeff_sum()

    if pk == "pow":
        k_p = pkey
        if wk == "geo":
            return "zero", None
        k_w = wkey
        if k_w <= 1:
            raise AssertionError("harmonic-order widths cannot form a disjoint tail")
        if k_w > k_p + 1:
            return "zero", None
        if k_w == k_p + 1:
            if not width.half_dominant_holds():
                raise UndecidableDensity("width term is not eventually half-dominant")
            lb = wc / (4 * pos_sum * (k_w - 1) * Q(2) ** (k_w - 1))
            return "positive", lb
        raise UndecidableDensity("width decays too slowly for a disjoint tail")
    # geometric positions
    r_p = pkey
    if wk == "geo":
        r_w = wkey
        if r_w < r_p:
            return "zero", None
        if r_w == r_p:
            if not width.half_dominant_holds():
                raise UndecidableDensity("width term is not eventually half-dominant")
            lb = wc * r_w / (4 * (1 - r_w) * pos_sum)
            return "positive", lb
    raise UndecidableDensity("width/position decay pattern outside the rule table")


def density_at(expr: SetExpr, a) -> DensityVerdict:
    """Density of the set at a: the limit of |E ∩ (a-d, a+d)| / 2d as d -> 0.

    Raises UndecidableDensity when the asymptotics fall outside the rule
    table; raises UnsupportedIntersection if the expression cannot be
    normalized.
    """
    a = Q(a)
    normal = _normal(expr)
    full: set[int] = set()  # sides of a covered by a whole one-sided neighbourhood
    positive_lb = Q(0)
    has_positive = False
    unknown_side = False

    for piece in normal.pieces:
        if not piece_reaches(piece, a):
            continue
        core = piece.core
        if core.kind in NULL_KINDS:
            continue  # measure-zero germ
        if isinstance(core, Interval):
            covered = covered_sides(core, a)
            for r in piece.removals:
                if not isinstance(r, IntervalFamily):
                    continue
                r_info = tail_info(r)
                if r_info.limit != a:
                    continue
                cls, _lb = tail_density_class(r)
                if cls == "zero":
                    continue  # removed set is negligible in the limit
                # a removed positive-density tail leaves its side unknown
                covered.discard(r_info.side)
                unknown_side = True
            full |= covered
        elif isinstance(core, IntervalFamily):
            info = tail_info(core)
            if info.limit == a:
                cls, lb = tail_density_class(core)
                if cls == "positive":
                    has_positive = True
                    positive_lb += lb
                continue
            m = member_at(core, info, a)
            if m is not None:
                full |= covered_sides(core.member(m), a)

    base = Q(len(full), 2)
    if has_positive:
        return DensityVerdict("positive", lower_bound=base + positive_lb)
    if unknown_side:
        if base > 0:
            return DensityVerdict("positive", lower_bound=base)
        raise UndecidableDensity("a positive-density removal hides the limit")
    if base > 0:
        return DensityVerdict("value", value=base)
    return DENSITY_ZERO
