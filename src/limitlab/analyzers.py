"""Measure, cardinality, accumulation, and density deciders.

Everything here consumes canonical normal forms from the set algebra, so the
verdicts are exact except where stated: interval-family tail measures carry
certified bound gaps when member widths are not purely geometric, and the
density of a family tail at its accumulation point is settled by a rule
table over the dominant decay of member widths versus member positions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import UndecidableDensity
from .sets import (
    COUNTABLE_KINDS,
    NULL_KINDS,
    FinitePoints,
    Interval,
    IntervalFamily,
    LocalTrace,
    Piece,
    SetExpr,
    _family_member_containing,
    _family_reflect,
    _monotone_first,
    _normal,
    family_tail_info,
    piece_reaches,
)
from .terms import Term

Q = Fraction

_DEFAULT_REFINE_ROUNDS = 64


def _refine_cap() -> int:
    raw = os.environ.get("LIMITLAB_MAX_REFINE")
    if raw is None:
        return _DEFAULT_REFINE_ROUNDS
    try:
        return max(1, int(raw))
    except ValueError:
        return _DEFAULT_REFINE_ROUNDS


# --- result types ------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MeasureValue:
    value: Q
    certified: bool
    bound_gap: Q
    infinite: bool = False

    @property
    def exact(self) -> bool:
        return self.bound_gap == 0 and not self.infinite


@dataclass(frozen=True)
class DensityVerdict:
    kind: str  # 'zero' | 'value' | 'positive' | 'undecided'
    value: Q | None = None  # exact limit for 'value'
    lower_bound: Q | None = None  # certified bound on the liminf for 'positive'
    reason: str = ""

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "value" and self.value == 0)


DENSITY_ZERO = DensityVerdict("zero")


# --- measure -------------------------------------------------------------------


_MAX_TAIL_TERMS = 4096  # exact rational prefix sums grow superlinearly in size


def family_tail_measure(fam: IntervalFamily, target_gap: Q = Q(1, 2**40)) -> tuple[Q, Q]:
    """Certified (low, high) for the total length of a canonical disjoint tail.

    Exact for purely geometric member widths; otherwise the bound gap halves
    roughly once per refinement round until the round or term budget runs out.
    """
    width = fam.hi - fam.lo
    prefix = Q(0)
    start = fam.start
    lo, hi = width.tail_sum_bounds(start)
    rounds = 0
    chunk = 8
    cap = _refine_cap()
    budget = _MAX_TAIL_TERMS
    while hi - lo > 2 * target_gap and rounds < cap and budget > 0:
        step = min(chunk, budget)
        for n in range(start, start + step):
            prefix += width.eval(n)
        start += step
        budget -= step
        chunk = min(chunk * 2, 1024)
        lo, hi = width.tail_sum_bounds(start)
        rounds += 1
    return prefix + lo, prefix + hi


def measure(expr: SetExpr, target_gap: Q = Q(1, 2**40)) -> MeasureValue:
    """Lebesgue measure of the expression, exact where possible."""
    return _pieces_measure(_normal(expr).pieces, target_gap)


def trace_measure(trace: LocalTrace) -> MeasureValue:
    """Measure of the window set represented by a trace."""
    return _pieces_measure(trace.all_pieces())


def _pieces_measure(pieces: tuple[Piece, ...], target_gap: Q = Q(1, 2**40)) -> MeasureValue:
    value = Q(0)
    gap = Q(0)
    infinite = False
    for piece in pieces:
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


def cardinality(trace: LocalTrace) -> CardinalityClass:
    """Cardinality class of a window trace."""
    return cardinality_of_pieces(trace.all_pieces())


def cardinality_of_pieces(pieces: tuple[Piece, ...]) -> CardinalityClass:
    count = 0
    countable = False
    for piece in pieces:
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


def has_no_accumulation_point(trace: LocalTrace) -> bool:
    """True iff the derived set of the trace is empty.

    Interval pieces, rationals, Cantor pieces, sequence tails and family
    tails all force an accumulation point (of the trace, not necessarily in
    it); only finite point sets survive.
    """
    return all(isinstance(p.core, FinitePoints) for p in trace.all_pieces())


# --- density ----------------------------------------------------------------------


def _dominant(term: Term) -> tuple[str, object, Q]:
    """Dominating monomial of a term with limit 0 and eventually > 0.

    Returns ('pow', k, coeff_sum) or ('geo', ratio, coeff); coefficient must
    be positive, otherwise the dominant order cancels and the rule table does
    not apply.
    """
    if term.pw:
        k_min = min(k for k, _, _ in term.pw)
        coeff = sum(c for k, _, c in term.pw if k == k_min)
        if coeff <= 0:
            raise UndecidableDensity("dominant power coefficient cancels")
        return "pow", k_min, coeff
    if term.geo:
        r, c = term.geo[0]
        if c <= 0:
            raise UndecidableDensity("dominant geometric coefficient cancels")
        return "geo", r, c
    raise UndecidableDensity("width term is identically zero")


def _abs_coeff_sum(term: Term) -> Q:
    return sum(abs(c) for _, c in term.geo) + sum(abs(c) for _, _, c in term.pw)


def _half_dominant_holds(term: Term, kind: str, key, coeff: Q) -> bool:
    """Certify term(n) >= half its dominant monomial for all large n."""
    if kind == "pow":
        half = Term.make(pw=[(key, 0, coeff / 2)])
    else:
        half = Term.make(geo=[(key, coeff / 2)])
    sign, _ = (term - half).eventual_sign()
    return sign >= 0


def tail_density_class(fam: IntervalFamily) -> tuple[str, Q | None]:
    """('zero', None) or ('positive', liminf lower bound) for a canonical
    disjoint tail at its own accumulation point, by dominant-decay analysis
    of member widths against member positions."""
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    limit = work.lo.limit
    width = work.hi - work.lo
    position = work.hi - Term.constant(limit)
    wk, wkey, wc = _dominant(width)
    pk, pkey, pc = _dominant(position)
    pos_sum = _abs_coeff_sum(position)

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
            if not _half_dominant_holds(width, wk, wkey, wc):
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
            if not _half_dominant_holds(width, wk, wkey, wc):
                raise UndecidableDensity("width term is not eventually half-dominant")
            lb = wc * r_w / (4 * (1 - r_w) * pos_sum)
            return "positive", lb
    raise UndecidableDensity("width/position decay pattern outside the rule table")


def _interval_side_cover(iv: Interval, a: Q) -> tuple[bool, bool]:
    left = (iv.lo is None or iv.lo < a) and (iv.hi is None or iv.hi >= a)
    right = (iv.hi is None or iv.hi > a) and (iv.lo is None or iv.lo <= a)
    return left, right


def _member_interval_at(fam: IntervalFamily, a: Q) -> Interval | None:
    """Real-coordinate member of a canonical tail whose closure contains a."""
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    a_eff = a if info.side > 0 else -a
    n = _family_member_containing(work, a_eff)
    if n is None:
        # closed-edge touch: scan the two candidate neighbours
        m = _monotone_first(work.hi, work.start, a_eff)
        for cand in {m, None if m is None else m - 1, work.start}:
            if cand is None or cand < work.start:
                continue
            lo_v, hi_v = work.lo.eval(cand), work.hi.eval(cand)
            if lo_v <= a_eff <= hi_v:
                n = cand
                break
    if n is None:
        return None
    lo_v, hi_v = work.lo.eval(n), work.hi.eval(n)
    iv = Interval(lo_v, hi_v, work.lo_incl, work.hi_incl)
    if info.side < 0:
        iv = Interval(-hi_v, -lo_v, work.hi_incl, work.lo_incl)
    return iv


def density_at(expr: SetExpr, a) -> DensityVerdict:
    """Density of the set at a: the limit of |E ∩ (a-d, a+d)| / 2d as d -> 0.

    Raises UndecidableDensity when the asymptotics fall outside the rule
    table; raises UnsupportedIntersection if the expression cannot be
    normalized.
    """
    a = Q(a)
    normal = _normal(expr)
    left_full = False
    right_full = False
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
            l_cov, r_cov = _interval_side_cover(core, a)
            for r in piece.removals:
                if not isinstance(r, IntervalFamily):
                    continue
                r_info = family_tail_info(r)
                if r_info.limit != a:
                    continue
                cls, _lb = tail_density_class(r)
                if cls == "zero":
                    continue  # removed set is negligible in the limit
                # a removed positive-density tail leaves this side unknown
                if r_info.side > 0:
                    r_cov = False
                else:
                    l_cov = False
                unknown_side = True
            left_full = left_full or l_cov
            right_full = right_full or r_cov
        elif isinstance(core, IntervalFamily):
            info = family_tail_info(core)
            if info.limit == a:
                cls, lb = tail_density_class(core)
                if cls == "positive":
                    has_positive = True
                    positive_lb += lb
                continue
            member = _member_interval_at(core, a)
            if member is None:
                continue
            l_cov, r_cov = _interval_side_cover(member, a)
            left_full = left_full or l_cov
            right_full = right_full or r_cov
        else:
            continue

    sides = (Q(1) if left_full else Q(0)) + (Q(1) if right_full else Q(0))
    base = sides / 2
    if has_positive:
        return DensityVerdict("positive", lower_bound=base + positive_lb)
    if unknown_side:
        if base > 0:
            return DensityVerdict("positive", lower_bound=base)
        raise UndecidableDensity("a positive-density removal hides the limit")
    if base > 0:
        return DensityVerdict("value", value=base)
    return DENSITY_ZERO
