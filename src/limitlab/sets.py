"""Symbolic subsets of the real line with exact, decidable operations.

Seven atom kinds (empty set, intervals, finite point sets, the rationals
inside an interval, affine images of the middle-thirds Cantor set, ranges
of closed-form sequences, and unions of closed-form interval families) are
closed under finite union, intersection and difference *up to* an explicit
rule table; combinations outside the table raise UnsupportedIntersection
rather than approximating.

Normalization produces a canonical disjoint "piece" list.  A piece is an
atom, optionally minus a list of measure-zero removal atoms; co-countable
sets such as the irrationals in a window are therefore representable, which
the limit engine needs to certify failure verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import RangeError, UnsupportedIntersection
from .terms import Term

Q = Fraction

# Hard cap on how many family/sequence members may be expanded explicitly.
MAX_MATERIALIZE = 20000
_CANTOR_DFS_DEPTH = 400


class SetExpr:
    """Base class: any atom or boolean combination node."""

    def __or__(self, other):
        return Union((self, other))

    def __and__(self, other):
        return Intersection((self, other))

    def __sub__(self, other):
        return Difference(self, other)


@dataclass(frozen=True)
class EmptySet(SetExpr):
    pass


EMPTY = EmptySet()


@dataclass(frozen=True)
class Interval(SetExpr):
    """lo/hi None mean unbounded; unbounded ends are always open.

    Construct through interval(): degenerate inputs normalize to
    FinitePoints or EMPTY there, so every Interval object in a normal form
    is nondegenerate.
    """

    kind = "solid"
    rank = 0

    lo: Q | None
    hi: Q | None
    lo_incl: bool
    hi_incl: bool

    def contains(self, x: Q) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and not self.lo_incl)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and not self.hi_incl)):
            return False
        return True

    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def length(self) -> Q | None:
        if not self.is_bounded():
            return None
        return self.hi - self.lo


FULL_LINE = Interval(None, None, False, False)


@dataclass(frozen=True)
class FinitePoints(SetExpr):
    kind = "points"
    rank = 1

    points: tuple[Q, ...]  # sorted, distinct

    def contains(self, x: Q) -> bool:
        return x in self.points


@dataclass(frozen=True)
class RationalsIn(SetExpr):
    kind = "rationals"
    rank = 2

    iv: Interval

    def contains(self, x: Q) -> bool:
        return self.iv.contains(x)  # every queried x is rational


@dataclass(frozen=True)
class CantorAffine(SetExpr):
    """{offset + scale*c : c in the middle-thirds Cantor set}, clipped.

    clip None means the whole affine image; otherwise clip is a
    nondegenerate interval intersected with the span and the clipped set
    has uncountably many points (degenerate leftovers become FinitePoints
    at construction).
    """

    kind = "cantor"
    rank = 3

    offset: Q
    scale: Q
    clip: Interval | None = None

    def span(self) -> Interval:
        a, b = self.offset, self.offset + self.scale
        if a > b:
            a, b = b, a
        return Interval(a, b, True, True)

    def to_base(self, x: Q) -> Q:
        return (x - self.offset) / self.scale

    def contains(self, x: Q) -> bool:
        if self.clip is not None and not self.clip.contains(x):
            return False
        return cantor_unit_info(self.to_base(x))[0]


@dataclass(frozen=True)
class Sequence(SetExpr):
    """{term(n) : n >= start}; the term is non-constant."""

    kind = "sequence"
    rank = 4

    term: Term
    start: int

    @property
    def limit(self) -> Q:
        return self.term.limit

    def contains(self, x: Q) -> bool:
        head, tail = _seq_parts(self)
        if x in head:
            return True
        return tail is not None and _seq_tail_contains(tail, x)


@dataclass(frozen=True)
class IntervalFamily(SetExpr):
    """Union over n >= start of the intervals [lo(n), hi(n)] (flags chosen
    by lo_incl/hi_incl).  Requires lo(n) <= hi(n) for every index."""

    kind = "family"
    rank = 5

    lo: Term
    hi: Term
    lo_incl: bool
    hi_incl: bool
    start: int

    def contains(self, x: Q) -> bool:
        raw, tail, info = _family_resolution(self)
        if tail == self:
            return _family_member_containing(self, x) is not None
        for core, removals in raw:
            if _atom_contains(core, x) and all(not _atom_contains(r, x) for r in removals):
                return True
        return tail is not None and tail.contains(x)


# The germ facts that depend on an atom's kind alone: which kinds are
# countably infinite and which have measure zero.  Finite point sets are
# countable and null too, but they never accumulate, so they are in neither
# set: the limit checker keeps them as blockers when it picks a radius.
COUNTABLE_KINDS = frozenset({RationalsIn.kind, Sequence.kind})
NULL_KINDS = COUNTABLE_KINDS | {CantorAffine.kind}


@dataclass(frozen=True)
class Union(SetExpr):
    args: tuple

    def __init__(self, args):
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Intersection(SetExpr):
    args: tuple

    def __init__(self, args):
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Difference(SetExpr):
    left: SetExpr
    right: SetExpr


# --- interval construction and algebra -------------------------------------


def interval(lo, hi, lo_incl=True, hi_incl=True) -> SetExpr:
    lo = None if lo is None else Q(lo)
    hi = None if hi is None else Q(hi)
    if lo is None:
        lo_incl = False
    if hi is None:
        hi_incl = False
    if lo is not None and hi is not None:
        if lo > hi:
            return EMPTY
        if lo == hi:
            return FinitePoints((lo,)) if (lo_incl and hi_incl) else EMPTY
    return Interval(lo, hi, lo_incl, hi_incl)


def open_interval(lo, hi) -> SetExpr:
    return interval(lo, hi, False, False)


def points(*xs) -> SetExpr:
    ps = tuple(sorted(set(Q(x) for x in xs)))
    return FinitePoints(ps) if ps else EMPTY


def rationals_in(iv: SetExpr) -> SetExpr:
    if iv is EMPTY or isinstance(iv, EmptySet):
        return EMPTY
    if isinstance(iv, FinitePoints):
        return iv
    assert isinstance(iv, Interval)
    return RationalsIn(iv)


def iv_intersect(a: Interval, b: Interval) -> SetExpr:
    if a.lo is None:
        lo, lo_incl = b.lo, b.lo_incl
    elif b.lo is None or a.lo > b.lo:
        lo, lo_incl = a.lo, a.lo_incl
    elif b.lo > a.lo:
        lo, lo_incl = b.lo, b.lo_incl
    else:
        lo, lo_incl = a.lo, a.lo_incl and b.lo_incl
    if a.hi is None:
        hi, hi_incl = b.hi, b.hi_incl
    elif b.hi is None or a.hi < b.hi:
        hi, hi_incl = a.hi, a.hi_incl
    elif b.hi < a.hi:
        hi, hi_incl = b.hi, b.hi_incl
    else:
        hi, hi_incl = a.hi, a.hi_incl and b.hi_incl
    return interval(lo, hi, lo_incl, hi_incl)


def iv_complement(b: Interval) -> list[Interval]:
    out = []
    if b.lo is not None:
        piece = interval(None, b.lo, False, not b.lo_incl)
        if isinstance(piece, Interval):
            out.append(piece)
    if b.hi is not None:
        piece = interval(b.hi, None, not b.hi_incl, False)
        if isinstance(piece, Interval):
            out.append(piece)
    return out


def iv_subtract(a: Interval, b: Interval) -> list[SetExpr]:
    out = []
    for c in iv_complement(b):
        r = iv_intersect(a, c)
        if not isinstance(r, EmptySet):
            out.append(r)
    return out


def _iv_covers(a: Interval, b: Interval) -> bool:
    """a is a superset of b."""
    if a.lo is not None:
        if b.lo is None:
            return False
        if b.lo < a.lo or (b.lo == a.lo and b.lo_incl and not a.lo_incl):
            return False
    if a.hi is not None:
        if b.hi is None:
            return False
        if b.hi > a.hi or (b.hi == a.hi and b.hi_incl and not a.hi_incl):
            return False
    return True


def _iv_disjoint(a: Interval, b: Interval) -> bool:
    return isinstance(iv_intersect(a, b), EmptySet)


def _iv_mergeable(a: Interval, b: Interval) -> bool:
    """Union of a and b is a single interval (overlap or compatible touch)."""
    if a.lo is not None and (b.hi is not None):
        if b.hi < a.lo or (b.hi == a.lo and not (b.hi_incl or a.lo_incl)):
            return False
    if a.hi is not None and (b.lo is not None):
        if a.hi < b.lo or (a.hi == b.lo and not (a.hi_incl or b.lo_incl)):
            return False
    return True


def _iv_hull(a: Interval, b: Interval) -> Interval:
    if a.lo is None or b.lo is None:
        lo, lo_incl = None, False
    elif a.lo < b.lo:
        lo, lo_incl = a.lo, a.lo_incl
    elif b.lo < a.lo:
        lo, lo_incl = b.lo, b.lo_incl
    else:
        lo, lo_incl = a.lo, a.lo_incl or b.lo_incl
    if a.hi is None or b.hi is None:
        hi, hi_incl = None, False
    elif a.hi > b.hi:
        hi, hi_incl = a.hi, a.hi_incl
    elif b.hi > a.hi:
        hi, hi_incl = b.hi, b.hi_incl
    else:
        hi, hi_incl = a.hi, a.hi_incl or b.hi_incl
    return Interval(lo, hi, lo_incl, hi_incl)


def merge_intervals(ivs: list[Interval]) -> list[Interval]:
    def lo_key(iv):
        return (0, iv.lo, 0 if iv.lo_incl else 1) if iv.lo is not None else (-1, Q(0), 0)

    out: list[Interval] = []
    for iv in sorted(ivs, key=lo_key):
        if out and _iv_mergeable(out[-1], iv):
            out[-1] = _iv_hull(out[-1], iv)
        else:
            out.append(iv)
    return out


def _iv_distance(iv: Interval, a: Q) -> Q:
    """Distance from a to the interval (0 when a is in the closure)."""
    if iv.lo is not None and a < iv.lo:
        return iv.lo - a
    if iv.hi is not None and a > iv.hi:
        return a - iv.hi
    return Q(0)


# --- Cantor set machinery ---------------------------------------------------


@lru_cache(maxsize=None)
def cantor_unit_info(x: Q) -> tuple[bool, bool, bool, tuple[Q | None, Q | None] | None]:
    """(member, accumulates-from-left, accumulates-from-right, gap).

    gap is the maximal open interval around a non-member that misses the
    set (None endpoints meaning unbounded); None for members.
    """
    if x < 0:
        return False, False, False, (None, Q(0))
    if x > 1:
        return False, False, False, (Q(1), None)
    num, den = x.numerator, x.denominator
    base, width = Q(0), Q(1)
    seen = set()
    while True:
        if num == 0:
            return True, False, True, None  # digits end in 0s: brick left end
        if num == den:
            return True, True, False, None  # digits end in 2s: brick right end
        if num in seen:
            return True, True, True, None  # periodic with both digits present
        seen.add(num)
        d, r = divmod(3 * num, den)
        width /= 3
        if d == 1:
            if r == 0:
                # exactly the lower third point: rewrite ...1 as ...0222...
                return True, True, False, None
            return False, False, False, (base + width, base + 2 * width)
        base += d * width
        num = r


def _cantor_unit_meets_open(lo: Q | None, hi: Q | None) -> bool:
    """Does the unit Cantor set meet the open interval (lo, hi)?

    Breadth-first over construction bricks: a brick strictly inside the
    interval proves (uncountable) intersection; disjoint bricks are cut; at
    most two straddling bricks per level survive, and each straddle chain
    dies at the depth where the endpoint's ternary digits decide it.
    """
    if hi is not None and hi <= 0:
        return False
    if lo is not None and lo >= 1:
        return False
    level = [Q(0)]
    width = Q(1)
    for _ in range(_CANTOR_DFS_DEPTH):
        nxt = []
        for b_lo in level:
            b_hi = b_lo + width
            if (hi is not None and b_lo >= hi) or (lo is not None and b_hi <= lo):
                continue
            if (lo is None or lo < b_lo) and (hi is None or b_hi < hi):
                return True
            nxt.append(b_lo)
        if not nxt:
            return False
        width /= 3
        level = []
        for b_lo in nxt:
            level.append(b_lo)
            level.append(b_lo + 2 * width)
    raise UnsupportedIntersection(
        "Cantor brick search exceeded depth bound; interval endpoints too deep"
    )


def cantor_meets_interval(atom: CantorAffine, iv: Interval) -> bool:
    """Exact emptiness test for the clipped affine Cantor image against iv."""
    box = iv if atom.clip is None else iv_intersect(atom.clip, iv)
    if isinstance(box, EmptySet):
        return False
    if isinstance(box, FinitePoints):
        return any(atom.contains(p) for p in box.points)
    lo, hi = _to_base_interval(atom, box)
    # included endpoints that are themselves members
    if lo is not None and box_incl_lo(atom, box) and cantor_unit_info(lo)[0]:
        return True
    if hi is not None and box_incl_hi(atom, box) and cantor_unit_info(hi)[0]:
        return True
    return _cantor_unit_meets_open(lo, hi)


def _to_base_interval(atom: CantorAffine, iv: Interval) -> tuple[Q | None, Q | None]:
    lo = None if iv.lo is None else atom.to_base(iv.lo)
    hi = None if iv.hi is None else atom.to_base(iv.hi)
    if atom.scale < 0:
        lo, hi = hi, lo
    return lo, hi


def box_incl_lo(atom: CantorAffine, iv: Interval) -> bool:
    return iv.lo_incl if atom.scale > 0 else iv.hi_incl


def box_incl_hi(atom: CantorAffine, iv: Interval) -> bool:
    return iv.hi_incl if atom.scale > 0 else iv.lo_incl


def cantor_affine(offset, scale, clip: Interval | None = None) -> SetExpr:
    offset, scale = Q(offset), Q(scale)
    if scale == 0:
        raise RangeError("cantor scale must be nonzero")
    atom = CantorAffine(offset, scale, None)
    if clip is None:
        return atom
    return _clip_cantor(atom, clip)


def _clip_cantor(atom: CantorAffine, iv: Interval) -> SetExpr:
    box = iv if atom.clip is None else iv_intersect(atom.clip, iv)
    if isinstance(box, EmptySet):
        return EMPTY
    if isinstance(box, FinitePoints):
        kept = tuple(p for p in box.points if CantorAffine(atom.offset, atom.scale).contains(p))
        return FinitePoints(kept) if kept else EMPTY
    box2 = iv_intersect(box, atom.span())
    if isinstance(box2, EmptySet):
        return EMPTY
    if isinstance(box2, FinitePoints):
        kept = tuple(p for p in box2.points if CantorAffine(atom.offset, atom.scale).contains(p))
        return FinitePoints(kept) if kept else EMPTY
    lo, hi = _to_base_interval(atom, box2)
    if _cantor_unit_meets_open(lo, hi):
        if _iv_covers(box2, atom.span()):
            return CantorAffine(atom.offset, atom.scale, None)
        return CantorAffine(atom.offset, atom.scale, box2)
    pts = []
    if lo is not None and box_incl_lo(atom, box2) and cantor_unit_info(lo)[0]:
        pts.append(atom.offset + atom.scale * lo)
    if hi is not None and box_incl_hi(atom, box2) and cantor_unit_info(hi)[0]:
        pts.append(atom.offset + atom.scale * hi)
    return points(*pts) if pts else EMPTY


def cantor_accumulates_at(atom: CantorAffine, a: Q) -> bool:
    """Every punctured window around a meets the clipped atom."""
    u = atom.to_base(a)
    member, accL, accR = cantor_unit_info(u)[:3]
    if not member:
        return False
    if atom.scale < 0:
        accL, accR = accR, accL
    clip = atom.clip if atom.clip is not None else atom.span()
    right_room = clip.hi is None or clip.hi > a
    left_room = clip.lo is None or clip.lo < a
    if not clip.contains(a):
        # a on or outside the clip boundary: approach only from inside
        if clip.lo is not None and a <= clip.lo:
            return accR and right_room and (a == clip.lo)
        if clip.hi is not None and a >= clip.hi:
            return accL and left_room and (a == clip.hi)
        return False
    return (accR and right_room) or (accL and left_room)


def _cantor_distance_floor(atom: CantorAffine, a: Q) -> Q:
    """A positive lower bound on dist(a, atom) when the atom does not
    accumulate at a and a is not in it; may undershoot, never overshoots."""
    u = atom.to_base(a)
    member, _, _, gap = cantor_unit_info(u)
    bounds = []
    if not member and gap is not None:
        g_lo, g_hi = gap
        side = []
        if g_lo is not None:
            side.append(u - g_lo)
        if g_hi is not None:
            side.append(g_hi - u)
        if side:
            bounds.append(min(side) * abs(atom.scale))
    clip = atom.clip
    if clip is not None:
        d = _iv_distance(clip, a)
        if d > 0:
            bounds.append(d)
    d_span = _iv_distance(atom.span(), a)
    if d_span > 0:
        bounds.append(d_span)
    if bounds:
        return max(bounds)
    # a is a member (or clip-boundary member) that the clip isolates:
    # probe shrinking windows until the window misses the set
    delta = Q(1)
    for _ in range(200):
        win_lo = Interval(a - delta, a, False, False)
        win_hi = Interval(a, a + delta, False, False)
        if not cantor_meets_interval(atom, win_lo) and not cantor_meets_interval(atom, win_hi):
            return delta
        delta /= 2
    raise UnsupportedIntersection("could not separate point from Cantor piece")


# --- sequence canonicalization ----------------------------------------------


def sequence(term: Term, start: int = 1) -> SetExpr:
    if start < 1:
        raise RangeError("sequence start must be >= 1")
    if term.is_constant():
        return points(term.const)
    return Sequence(term, start)


@dataclass(frozen=True)
class SeqInfo:
    tail_start: int
    side: int  # sign of term(n) - limit on the tail
    decreasing: bool  # strictly decreasing on the tail


@lru_cache(maxsize=None)
def _seq_info(term: Term, start: int) -> SeqInfo:
    dev = term - Term.constant(term.limit)
    side, n_side = dev.eventual_sign()
    step = term - term.shifted()
    s_step, n_step = step.eventual_sign()
    assert side != 0 and s_step != 0
    return SeqInfo(max(start, n_side, n_step), side, s_step > 0)


@lru_cache(maxsize=None)
def _seq_parts(seq: Sequence) -> tuple[tuple[Q, ...], Sequence | None]:
    """(head values below the canonical tail start, canonical tail)."""
    info = _seq_info(seq.term, seq.start)
    if info.tail_start - seq.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("sequence head too large to materialize")
    head = []
    tail = Sequence(seq.term, info.tail_start)
    for n in range(seq.start, info.tail_start):
        v = seq.term.eval(n)
        if not _seq_tail_contains(tail, v) and v not in head:
            head.append(v)
    return tuple(sorted(head)), tail


def _monotone_first(term: Term, start: int, x: Q, strict: bool = False) -> int | None:
    """First n >= start with term(n) <= x (term(n) < x when strict), for a
    term strictly decreasing on n >= start; None when there is none."""
    bound = 0 if strict else 1  # compare_at is -1, 0 or 1
    if term.compare_at(start, x) < bound:
        return start
    if term.limit >= x:
        return None
    span = 1
    lo = start
    while True:
        hi = start + span
        if term.compare_at(hi, x) < bound:
            break
        lo = hi
        span *= 2
        if span > 1 << 62:
            return None
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if term.compare_at(mid, x) < bound:
            hi = mid
        else:
            lo = mid
    return hi


def _seq_canonical_term(seq: Sequence) -> tuple[Term, int]:
    """Present the tail as a strictly decreasing term (negate if needed)."""
    info = _seq_info(seq.term, seq.start)
    if info.decreasing:
        return seq.term, info.side
    return -seq.term, -info.side


def _seq_tail_contains(tail: Sequence, x: Q) -> bool:
    term, _ = _seq_canonical_term(tail)
    x_eff = x if term is tail.term else -x
    if x_eff <= term.limit:
        return False
    n = _monotone_first(term, tail.start, x_eff)
    return n is not None and term.compare_at(n, x_eff) == 0


def _seq_min_distance(tail: Sequence, a: Q) -> Q:
    """Positive lower bound on dist(a, tail values) when a != limit and a is
    not a member."""
    term, _ = _seq_canonical_term(tail)
    a_eff = a if term is tail.term else -a
    first = term.eval(tail.start)
    if a_eff >= first:
        return a_eff - first if a_eff > first else _neighbor_gap(term, tail.start, a_eff)
    if a_eff <= term.limit:
        return term.limit - a_eff if a_eff < term.limit else _tail_limit_gap(term, tail.start)
    n = _monotone_first(term, tail.start, a_eff)
    assert n is not None and n > tail.start
    below = a_eff - term.eval(n) if n is not None else None
    above = term.eval(n - 1) - a_eff
    cands = [v for v in (below, above) if v is not None and v > 0]
    if not cands:
        raise AssertionError("distance requested for a member point")
    return min(cands)


def _neighbor_gap(term: Term, n: int, a_eff: Q) -> Q:
    return term.eval(n) - a_eff if term.eval(n) > a_eff else a_eff - term.eval(n)


def _tail_limit_gap(term: Term, start: int) -> Q:
    raise AssertionError("sequence accumulates at its limit; no distance exists")


# --- interval family canonicalization ---------------------------------------


def family(lo: Term, hi: Term, lo_incl: bool = True, hi_incl: bool = False, start: int = 1) -> SetExpr:
    if start < 1:
        raise RangeError("family start must be >= 1")
    w = hi - lo
    s_w, n_w = w.eventual_sign()
    if s_w < 0:
        raise RangeError("family upper term eventually falls below its lower term")
    check_upto = min(n_w, start + MAX_MATERIALIZE)
    for n in range(start, check_upto):
        if w.eval(n) < 0:
            raise RangeError(f"family has lo > hi at index {n}")
    if s_w == 0 and all(w.eval(n) == 0 for n in range(start, check_upto)):
        # degenerate members: single points or nothing
        if lo_incl and hi_incl:
            return sequence(lo, start)
        return EMPTY
    return IntervalFamily(lo, hi, lo_incl, hi_incl, start)


@dataclass(frozen=True)
class FamilyTailInfo:
    limit: Q
    side: int  # +1: members right of the limit; -1: left
    disjoint: bool  # pairwise disjoint and strictly monotone on the tail


def _family_reflect(fam: IntervalFamily) -> IntervalFamily:
    return IntervalFamily(-fam.hi, -fam.lo, fam.hi_incl, fam.lo_incl, fam.start)


def _reflect_piece(piece):
    core, removals = piece
    return (_reflect_atom(core), tuple(_reflect_atom(r) for r in removals))


def _reflect_atom(atom):
    if isinstance(atom, Interval):
        lo = None if atom.hi is None else -atom.hi
        hi = None if atom.lo is None else -atom.lo
        return Interval(lo, hi, atom.hi_incl, atom.lo_incl)
    if isinstance(atom, FinitePoints):
        return FinitePoints(tuple(sorted(-p for p in atom.points)))
    if isinstance(atom, RationalsIn):
        return RationalsIn(_reflect_atom(atom.iv))
    if isinstance(atom, CantorAffine):
        clip = None if atom.clip is None else _reflect_atom(atom.clip)
        return CantorAffine(-atom.offset, -atom.scale, clip)
    if isinstance(atom, Sequence):
        return Sequence(-atom.term, atom.start)
    if isinstance(atom, IntervalFamily):
        return _family_reflect(atom)
    raise AssertionError(f"cannot reflect {atom!r}")


def _member_interval(fam: IntervalFamily, n: int) -> SetExpr:
    return interval(fam.lo.eval(n), fam.hi.eval(n), fam.lo_incl, fam.hi_incl)


@lru_cache(maxsize=None)
def _family_resolution(fam: IntervalFamily):
    """Canonicalize: (pieces, tail_atom, tail_info).

    pieces are (core, removals) pairs for the materialized/collapsed part;
    tail_atom (with its FamilyTailInfo) is a family whose members are
    pairwise disjoint, strictly monotone, and sit on one side of the limit.
    """
    lo, hi = fam.lo, fam.hi
    l_lo, l_hi = lo.limit, hi.limit
    if l_lo == l_hi:
        limit = l_lo
        s_lo, n_lo = (lo - Term.constant(limit)).eventual_sign()
        s_hi, n_hi = (hi - Term.constant(limit)).eventual_sign()
        if s_lo >= 0 and s_hi == 1:
            if s_lo == 0:
                return _family_collapse(fam, max(n_lo, n_hi))
            disj = lo - hi.shifted()  # > 0: consecutive members strictly separated
            s_d, n_d = disj.eventual_sign()
            s_w, n_w = (hi - lo).eventual_sign()
            if s_d > 0:
                n_star = max(fam.start, n_lo, n_hi, n_d, n_w)
                return _family_materialize_head(fam, n_star, FamilyTailInfo(limit, 1, True))
            # touching (s_d == 0) or overlapping members chain into an interval
            return _family_collapse(fam, max(n_lo, n_hi, n_d, n_w))
        if s_hi <= 0 and s_lo == -1:
            pieces, tail, info = _family_resolution(_family_reflect(fam))
            pieces = tuple(_reflect_piece(p) for p in pieces)
            tail_atom = None if tail is None else _family_reflect(tail)
            tail_info = None if info is None else FamilyTailInfo(-info.limit, -info.side, info.disjoint)
            return pieces, tail_atom, tail_info
        # members straddle the limit forever: they overlap, collapse
        return _family_collapse(fam, max(n_lo, n_hi))
    # distinct endpoint limits: members eventually overlap, collapse
    s_ov, n_ov = (hi - lo.shifted()).eventual_sign()
    return _family_collapse(fam, n_ov)


def _family_materialize_head(fam: IntervalFamily, n_star: int, info: FamilyTailInfo):
    if n_star - fam.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("family head too large to materialize")
    pieces = []
    for n in range(fam.start, n_star):
        m = _member_interval(fam, n)
        if isinstance(m, (Interval, FinitePoints)):
            pieces.append((m, ()))
    tail = IntervalFamily(fam.lo, fam.hi, fam.lo_incl, fam.hi_incl, n_star)
    return tuple(pieces), tail, info


def _family_collapse(fam: IntervalFamily, n_hint: int):
    """Members eventually chain together: replace the tail by one interval."""
    lo, hi = fam.lo, fam.hi
    l_lo, l_hi = lo.limit, hi.limit
    s_dlo, n_dlo = (lo - lo.shifted()).eventual_sign()
    s_dhi, n_dhi = (hi - hi.shifted()).eventual_sign()
    ov = hi - lo.shifted()  # member n reaches member n+1 when >= 0
    s_ov, n_ov = ov.eventual_sign()
    n_star = max(fam.start, n_hint, n_dlo, n_dhi, n_ov)
    if s_ov < 0:
        raise AssertionError("collapse requested for eventually disjoint family")
    if n_star - fam.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("family head too large to materialize")

    # lower bound of the chained union
    if s_dlo == 0:  # lo constant
        b_lo, b_lo_incl = l_lo, fam.lo_incl
    elif s_dlo < 0:  # lo increasing: minimum attained at n_star
        b_lo, b_lo_incl = lo.eval(n_star), fam.lo_incl
    else:  # lo decreasing toward its limit: infimum never attained
        b_lo, b_lo_incl = l_lo, False
    # upper bound
    if s_dhi == 0:
        b_hi, b_hi_incl = l_hi, fam.hi_incl
    elif s_dhi > 0:  # hi decreasing: maximum attained at n_star
        b_hi, b_hi_incl = hi.eval(n_star), fam.hi_incl
    else:  # hi increasing toward its limit: supremum never attained
        b_hi, b_hi_incl = l_hi, False

    pieces = []
    collapsed = interval(b_lo, b_hi, b_lo_incl, b_hi_incl)
    holes = None
    if not fam.lo_incl and not fam.hi_incl:
        # members that touch exactly leave single-point holes at junctions
        if s_ov == 0:
            holes = sequence(hi, n_star)  # hi(n) == lo(n+1) at every index
        elif (lo - hi.shifted()).eventual_sign()[0] == 0:
            holes = sequence(lo, n_star)  # lo(n) == hi(n+1) at every index
    if isinstance(collapsed, (Interval, FinitePoints)):
        removals = (holes,) if isinstance(holes, Sequence) else ()
        pieces.append((collapsed, removals))
    for n in range(fam.start, n_star):
        m = _member_interval(fam, n)
        if isinstance(m, (Interval, FinitePoints)):
            pieces.append((m, ()))
    return tuple(pieces), None, None


@lru_cache(maxsize=None)
def family_tail_info(fam: IntervalFamily) -> FamilyTailInfo:
    """Tail metadata for an already-canonical family atom."""
    raw, tail, info = _family_resolution(fam)
    if tail != fam:
        raise AssertionError("family_tail_info requires a canonical tail atom")
    return info


def family_hull(fam: IntervalFamily) -> Interval:
    """Interval certainly containing the canonical tail."""
    info = family_tail_info(fam)
    if info.side > 0:
        top = fam.hi.eval(fam.start)
        lo_first = fam.lo.eval(fam.start)
        lo_bound = min(info.limit, lo_first)
        return Interval(lo_bound, top, True, fam.hi_incl)
    bottom = fam.lo.eval(fam.start)
    hi_first = fam.hi.eval(fam.start)
    hi_bound = max(info.limit, hi_first)
    return Interval(bottom, hi_bound, fam.lo_incl, True)


def _family_member_containing(fam: IntervalFamily, x: Q) -> int | None:
    """Index of the canonical-tail member containing x, if any."""
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    x_eff = x if info.side > 0 else -x
    limit = work.lo.limit
    if x_eff <= limit:
        return None
    first_hi = work.hi.eval(work.start)
    if x_eff > first_hi or (x_eff == first_hi and not work.hi_incl):
        return None
    # find the first member entirely below x: hi(n) <= x (or < with incl)
    n = _monotone_first(work.hi, work.start, x_eff, strict=work.hi_incl)
    cand = work.start if n is None else n - 1
    if cand < work.start:
        return None
    lo_v, hi_v = work.lo.eval(cand), work.hi.eval(cand)
    if (lo_v < x_eff or (lo_v == x_eff and work.lo_incl)) and (
        x_eff < hi_v or (x_eff == hi_v and work.hi_incl)
    ):
        return cand
    return None


def _family_clip(fam: IntervalFamily, box: Interval) -> list["Piece"]:
    """Pieces of (canonical tail) ∩ box."""
    info = family_tail_info(fam)
    if _iv_covers(box, family_hull(fam)):
        return [Piece(fam, ())]
    work = fam if info.side > 0 else _family_reflect(fam)
    b = box if info.side > 0 else _reflect_atom(box)
    limit = work.lo.limit
    out: list[Piece] = []

    # Members live strictly above the limit; a box that stays at or below
    # it cannot meet the tail.
    if b.hi is not None and b.hi <= limit:
        return []
    # does b contain points arbitrarily close above the limit?
    stub = b.lo is None or b.lo <= limit
    if stub:
        # tail survives from the first member fully inside b
        if b.hi is None:
            cut = work.start
        else:
            cut = _monotone_first(work.hi, work.start, b.hi, strict=not b.hi_incl and work.hi_incl)
        if cut is None:
            raise UnsupportedIntersection("family clip could not locate the window edge")
        if cut - work.start > MAX_MATERIALIZE:
            raise UnsupportedIntersection("family clip head too large")
        for n in range(work.start, cut):
            m = _member_interval(work, n)
            if isinstance(m, Interval):
                r = iv_intersect(m, b)
                if isinstance(r, (Interval, FinitePoints)):
                    out.append(Piece(r, ()))
            elif isinstance(m, FinitePoints):
                kept = tuple(p for p in m.points if b.contains(p))
                if kept:
                    out.append(Piece(FinitePoints(kept), ()))
        tail = IntervalFamily(work.lo, work.hi, work.lo_incl, work.hi_incl, cut)
        out.append(Piece(tail, ()))
    else:
        # b sits away from the accumulation point: finitely many members
        if b.lo is None:
            raise AssertionError("window below the limit cannot meet a right tail")
        stop = _monotone_first(work.hi, work.start, b.lo)
        if stop is None:
            stop_at = work.start
        else:
            stop_at = stop
        if stop_at - work.start > MAX_MATERIALIZE:
            raise UnsupportedIntersection("family clip head too large")
        for n in range(work.start, stop_at):
            m = _member_interval(work, n)
            if isinstance(m, Interval):
                r = iv_intersect(m, b)
                if isinstance(r, (Interval, FinitePoints)):
                    out.append(Piece(r, ()))
            elif isinstance(m, FinitePoints):
                kept = tuple(p for p in m.points if b.contains(p))
                if kept:
                    out.append(Piece(FinitePoints(kept), ()))
    if info.side < 0:
        out = [Piece(*_reflect_piece((p.core, p.removals))) for p in out]
    return out


def _family_advance_past(fam: IntervalFamily, y: Q) -> tuple[list[SetExpr], IntervalFamily | None]:
    """Drop canonical-tail members whose span lies within distance |y-limit|
    of the limit (they are covered by an interval reaching the limit).

    Returns (materialized members at or above y, shortened tail or None)."""
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    y_eff = y if info.side > 0 else -y
    limit = work.lo.limit
    if y_eff <= limit:
        raise AssertionError("cover must reach past the limit")
    top = work.hi.eval(work.start)
    if y_eff >= top:
        return [], None  # entire tail absorbed
    cut = _monotone_first(work.hi, work.start, y_eff)
    if cut is None or cut - work.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("family absorption head too large")
    kept = []
    for n in range(work.start, cut):
        m = _member_interval(work, n)
        if not isinstance(m, EmptySet):
            kept.append(m if info.side > 0 else _reflect_atom(m))
    return kept, None


# --- pieces and normal forms -------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """core minus the union of the removal atoms.

    Cores: Interval, FinitePoints, RationalsIn, CantorAffine, Sequence
    (canonical tail), IntervalFamily (canonical tail).  Removals: RationalsIn,
    Sequence, CantorAffine (all measure zero), plus canonical family tails
    clipped inside the core (positive measure, accounted for explicitly by
    the analyzers).
    """

    core: SetExpr
    removals: tuple = ()

    def to_expr(self) -> SetExpr:
        if not self.removals:
            return self.core
        rem = self.removals[0] if len(self.removals) == 1 else Union(self.removals)
        return Difference(self.core, rem)


def piece_contains(piece: Piece, x: Q) -> bool:
    if not _atom_contains(piece.core, x):
        return False
    return all(not _atom_contains(r, x) for r in piece.removals)


def _atom_contains(atom: SetExpr, x: Q) -> bool:
    if isinstance(atom, EmptySet):
        return False
    return atom.contains(x)


@dataclass(frozen=True)
class Normal:
    pieces: tuple[Piece, ...]

    def to_expr(self) -> SetExpr:
        if not self.pieces:
            return EMPTY
        exprs = [p.to_expr() for p in self.pieces]
        return exprs[0] if len(exprs) == 1 else Union(exprs)

    def contains(self, x: Q) -> bool:
        return any(piece_contains(p, x) for p in self.pieces)


def _piece_rank(piece: Piece) -> tuple:
    rank = piece.core.rank
    if isinstance(piece.core, Interval):
        key = piece.core.lo if piece.core.lo is not None else Q(-10**18)
    elif isinstance(piece.core, FinitePoints):
        key = piece.core.points[0]
    elif isinstance(piece.core, RationalsIn):
        key = piece.core.iv.lo if piece.core.iv.lo is not None else Q(-10**18)
    else:
        key = Q(0)
    return (rank, key, repr(piece))


# --- piece-level intersections -----------------------------------------------


def _seq_clip(seq: Sequence, box: Interval) -> list[Piece]:
    """Pieces of the canonical sequence tail intersected with box."""
    term, side = _seq_canonical_term(seq)
    b = box if term is seq.term else _reflect_atom(box)
    limit = term.limit
    first = term.eval(seq.start)
    out: list[Piece] = []
    in_limit_side = (b.lo is None or b.lo < limit or (b.lo == limit)) and (
        b.hi is None or b.hi > limit
    )
    if b.lo is not None and b.lo > limit:
        in_limit_side = False
    if in_limit_side:
        # tail eventually inside: keep symbolically from the first member <= hi edge
        if b.hi is None:
            cut = seq.start
        else:
            cut = _monotone_first(term, seq.start, b.hi, strict=not b.hi_incl)
            if cut is None:
                cut = seq.start
        if cut - seq.start > MAX_MATERIALIZE:
            raise UnsupportedIntersection("sequence clip head too large")
        pts = [term.eval(n) for n in range(seq.start, cut) if b.contains(term.eval(n))]
        # boundary at the limit itself: members sit strictly on one side
        tail = Sequence(term, cut)
        if pts:
            out.append(Piece(FinitePoints(tuple(sorted(pts))), ()))
        out.append(Piece(tail, ()))
    else:
        if b.lo is None:
            stop_at = seq.start
        else:
            stop = _monotone_first(term, seq.start, b.lo, strict=True)
            stop_at = seq.start if stop is None else stop
        if stop_at - seq.start > MAX_MATERIALIZE:
            raise UnsupportedIntersection("sequence clip head too large")
        pts = [term.eval(n) for n in range(seq.start, stop_at) if b.contains(term.eval(n))]
        if pts:
            out.append(Piece(FinitePoints(tuple(sorted(pts))), ()))
    if term is not seq.term:
        out = [Piece(*_reflect_piece((p.core, p.removals))) for p in out]
    return out


def _core_intersect(a: SetExpr, b: SetExpr) -> list[Piece]:
    """Pieces of a ∩ b for core atoms a, b."""
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return []
    if a.rank > b.rank:
        return _core_intersect(b, a)
    ta, tb = type(a), type(b)

    if ta is Interval:
        if tb is Interval:
            r = iv_intersect(a, b)
            return [] if isinstance(r, EmptySet) else [Piece(r, ())]
        if tb is FinitePoints:
            kept = tuple(p for p in b.points if a.contains(p))
            return [Piece(FinitePoints(kept), ())] if kept else []
        if tb is RationalsIn:
            r = iv_intersect(a, b.iv)
            if isinstance(r, EmptySet):
                return []
            if isinstance(r, FinitePoints):
                return [Piece(r, ())]
            return [Piece(RationalsIn(r), ())]
        if tb is CantorAffine:
            r = _clip_cantor(b, a)
            return [] if isinstance(r, EmptySet) else [Piece(r, ())]
        if tb is Sequence:
            return _seq_clip(b, a)
        if tb is IntervalFamily:
            return _family_clip(b, a)
    if ta is FinitePoints:
        if tb is FinitePoints:
            kept = tuple(sorted(set(a.points) & set(b.points)))
            return [Piece(FinitePoints(kept), ())] if kept else []
        kept = tuple(p for p in a.points if _atom_contains(b, p))
        return [Piece(FinitePoints(kept), ())] if kept else []
    if ta is RationalsIn:
        if tb is RationalsIn:
            r = iv_intersect(a.iv, b.iv)
            if isinstance(r, EmptySet):
                return []
            if isinstance(r, FinitePoints):
                return [Piece(r, ())]
            return [Piece(RationalsIn(r), ())]
        if tb is CantorAffine:
            raise UnsupportedIntersection("rationals ∩ Cantor image is outside the algebra")
        if tb is Sequence:
            return _seq_clip(b, a.iv)  # sequence values are rational
        if tb is IntervalFamily:
            parts = _family_clip(b, a.iv)
            if any(isinstance(p.core, IntervalFamily) for p in parts):
                raise UnsupportedIntersection("rationals ∩ family tail is outside the algebra")
            out = []
            for p in parts:
                if isinstance(p.core, Interval):
                    out.append(Piece(RationalsIn(p.core), p.removals))
                elif isinstance(p.core, FinitePoints):
                    out.append(p)
            return out
    if ta is CantorAffine:
        if tb is CantorAffine:
            if a == b:
                return [Piece(a, ())]
            if (a.offset, a.scale) == (b.offset, b.scale):
                box_a = a.clip if a.clip is not None else a.span()
                box_b = b.clip if b.clip is not None else b.span()
                both = iv_intersect(box_a, box_b)
                if isinstance(both, EmptySet):
                    return []
                if isinstance(both, FinitePoints):
                    kept = tuple(p for p in both.points if a.contains(p))
                    return [Piece(FinitePoints(kept), ())] if kept else []
                r = _clip_cantor(CantorAffine(a.offset, a.scale), both)
                return [] if isinstance(r, EmptySet) else [Piece(r, ())]
            raise UnsupportedIntersection("two distinct Cantor images cannot be intersected")
        if tb is Sequence:
            raise UnsupportedIntersection("Cantor image ∩ sequence is outside the algebra")
        if tb is IntervalFamily:
            parts = _family_clip(b, a.clip if a.clip is not None else a.span())
            if any(isinstance(p.core, IntervalFamily) for p in parts):
                raise UnsupportedIntersection("Cantor image ∩ family tail is outside the algebra")
            out = []
            for p in parts:
                if isinstance(p.core, Interval):
                    r = _clip_cantor(a, p.core)
                    if not isinstance(r, EmptySet):
                        out.append(Piece(r, p.removals))
                elif isinstance(p.core, FinitePoints):
                    kept = tuple(q for q in p.core.points if a.contains(q))
                    if kept:
                        out.append(Piece(FinitePoints(kept), p.removals))
            return out
    if ta is Sequence:
        if tb is Sequence:
            if a == b:
                return [Piece(a, ())]
            if a.term == b.term:
                return [Piece(Sequence(a.term, max(a.start, b.start)), ())]
            vals = _seq_shared_values(a, b)
            return [Piece(FinitePoints(vals), ())] if vals else []
        if tb is IntervalFamily:
            info = family_tail_info(b)
            if a.term.limit == info.limit:
                raise UnsupportedIntersection("sequence and family share an accumulation point")
            kept = _seq_finite_values_in(a, family_hull(b))
            vals = tuple(sorted(v for v in kept if b.contains(v)))
            return [Piece(FinitePoints(vals), ())] if vals else []
    if ta is IntervalFamily:
        if a == b:
            return [Piece(a, ())]
        ia, ib = family_tail_info(a), family_tail_info(b)
        if ia.limit == ib.limit and ia.side == ib.side:
            raise UnsupportedIntersection("two family tails share an accumulation side")
        parts = _family_clip(a, family_hull(b))
        if any(isinstance(p.core, IntervalFamily) for p in parts):
            raise UnsupportedIntersection("family tails interleave; not reducible")
        out = []
        for p in parts:
            if isinstance(p.core, (Interval, FinitePoints)):
                out.extend(_attach_removals(_core_intersect(p.core, b), p.removals))
        return out
    raise AssertionError(f"unhandled intersection {ta} ∩ {tb}")


def _seq_hull(seq: Sequence) -> Interval:
    term, _ = _seq_canonical_term(seq)
    top = term.eval(seq.start)
    lo, hi = (term.limit, top) if term is seq.term else (-top, -term.limit)
    return Interval(lo, hi, True, True)


def _seq_shared_values(a: Sequence, b: Sequence) -> tuple[Q, ...]:
    """The (finite) set of values two sequences with distinct limits share.

    An accumulation point of the shared set would be a limit of both, so
    for distinct limits the intersection is finite: b has finitely many
    members near a's limit, and a has finitely many members anywhere else.
    """
    la, lb = a.term.limit, b.term.limit
    if la == lb:
        raise UnsupportedIntersection("two sequences sharing a limit cannot be combined")
    eta = abs(la - lb) / 2
    window = Interval(la - eta, la + eta, True, True)
    shared: set[Q] = set()
    for piece in _seq_clip(b, window):
        if isinstance(piece.core, Sequence):
            raise AssertionError("a sequence tail cannot accumulate away from its limit")
        for v in piece.core.points:
            if a.contains(v):
                shared.add(v)
    for comp in iv_complement(window):
        for piece in _seq_clip(a, comp):
            if isinstance(piece.core, Sequence):
                raise AssertionError("a sequence tail cannot accumulate away from its limit")
            for v in piece.core.points:
                if b.contains(v):
                    shared.add(v)
    return tuple(sorted(shared))


def _seq_finite_values_in(seq: Sequence, box: Interval) -> list[Q]:
    parts = _seq_clip(seq, box)
    vals: list[Q] = []
    for p in parts:
        if isinstance(p.core, FinitePoints):
            vals.extend(p.core.points)
        elif isinstance(p.core, Sequence):
            raise UnsupportedIntersection("sequence tail does not reduce to finitely many values here")
    return vals


def _attach_removals(pieces: list[Piece], removals: tuple) -> list[Piece]:
    if not removals:
        return pieces
    return [Piece(p.core, _merge_removals(p.removals, removals)) for p in pieces]


def _merge_removals(a: tuple, b: tuple) -> tuple:
    seen = list(a)
    for r in b:
        if r not in seen:
            seen.append(r)
    return tuple(sorted(seen, key=repr))


# --- piece-level differences --------------------------------------------------


_REMOVAL_OK_CORES = (Interval, RationalsIn, IntervalFamily)


def _core_subtract(a: SetExpr, b: SetExpr) -> list[Piece]:
    """Pieces of a \\ b for core atoms."""
    if isinstance(a, EmptySet):
        return []
    if isinstance(b, EmptySet):
        return [Piece(a, ())]
    if a == b:
        return []
    ta, tb = type(a), type(b)

    if tb is Interval:
        out = []
        for comp in iv_complement(b):
            out.extend(_core_intersect(a, comp))
        return out
    if tb is FinitePoints:
        return _subtract_points(a, b.points)
    if tb is RationalsIn:
        if ta is Interval:
            clip = iv_intersect(b.iv, a)
            if isinstance(clip, EmptySet):
                return [Piece(a, ())]
            if isinstance(clip, FinitePoints):
                return _subtract_points(a, clip.points)
            return [Piece(a, (RationalsIn(clip),))]
        if ta is FinitePoints:
            kept = tuple(p for p in a.points if not b.iv.contains(p))
            return [Piece(FinitePoints(kept), ())] if kept else []
        if ta is RationalsIn:
            out = []
            for piece in iv_subtract(a.iv, b.iv):
                if isinstance(piece, Interval):
                    out.append(Piece(RationalsIn(piece), ()))
                elif isinstance(piece, FinitePoints):
                    out.append(Piece(piece, ()))
            return out
        if ta is CantorAffine:
            raise UnsupportedIntersection("Cantor image minus rationals is outside the algebra")
        if ta is Sequence:
            # sequence values are rational: subtracting rationals-in-J is
            # the same as subtracting the interval J
            out = []
            for comp in iv_complement(b.iv):
                out.extend(_seq_clip(a, comp))
            return out
        if ta is IntervalFamily:
            clip = iv_intersect(b.iv, family_hull(a))
            if isinstance(clip, EmptySet):
                return [Piece(a, ())]
            if isinstance(clip, FinitePoints):
                return _subtract_points(a, clip.points)
            return [Piece(a, (RationalsIn(clip),))]
    if tb is CantorAffine:
        if ta is CantorAffine and (a.offset, a.scale) == (b.offset, b.scale):
            box_a = a.clip if a.clip is not None else a.span()
            box_b = b.clip if b.clip is not None else b.span()
            out = []
            for piece in iv_subtract(box_a, box_b):
                if isinstance(piece, Interval):
                    r = _clip_cantor(CantorAffine(a.offset, a.scale), piece)
                elif isinstance(piece, FinitePoints):
                    kept = tuple(p for p in piece.points if a.contains(p))
                    r = FinitePoints(kept) if kept else EMPTY
                else:
                    r = EMPTY
                if not isinstance(r, EmptySet):
                    out.append(Piece(r, ()))
            return out
        if ta is FinitePoints:
            kept = tuple(p for p in a.points if not b.contains(p))
            return [Piece(FinitePoints(kept), ())] if kept else []
        if ta in (Interval, RationalsIn, IntervalFamily):
            box = a if ta is Interval else (a.iv if ta is RationalsIn else family_hull(a))
            clipped = _clip_cantor(b, box) if isinstance(box, Interval) else b
            if isinstance(clipped, EmptySet):
                return [Piece(a, ())]
            if isinstance(clipped, FinitePoints):
                return _subtract_points(a, clipped.points)
            return [Piece(a, (clipped,))]
        raise UnsupportedIntersection("difference with a Cantor image is outside the algebra")
    if tb is Sequence:
        if ta is Sequence:
            if a.term == b.term:
                if b.start <= a.start:
                    return []
                span = b.start - a.start
                if span > MAX_MATERIALIZE:
                    raise UnsupportedIntersection("sequence head too large to materialize")
                head = tuple(sorted({a.term.eval(n) for n in range(a.start, b.start)}))
                return [Piece(FinitePoints(head), ())] if head else []
            shared = _seq_shared_values(a, b)
            return _subtract_points(a, shared) if shared else [Piece(a, ())]
        if ta is FinitePoints:
            kept = tuple(p for p in a.points if not b.contains(p))
            return [Piece(FinitePoints(kept), ())] if kept else []
        if ta in (Interval, RationalsIn, IntervalFamily):
            return [Piece(a, (b,))]
        raise UnsupportedIntersection("difference with a sequence is outside the algebra")
    if tb is IntervalFamily:
        raw, tail, _ = _family_resolution(b)
        pieces = [Piece(a, ())]
        for core, removals in raw:
            # subtracting (core minus removals): over-removing the removal
            # part is compensated by re-adding a ∩ core ∩ removals
            nxt = []
            for p in pieces:
                nxt.extend(_piece_subtract_atom(p, core))
                for r in removals:
                    inter1 = _attach_removals(_core_intersect(p.core, core), p.removals)
                    for q in inter1:
                        nxt.extend(
                            _attach_removals(_core_intersect(q.core, r), q.removals)
                        )
            pieces = nxt
        if tail is not None:
            out = []
            for p in pieces:
                out.extend(_piece_subtract_family_tail(p, tail))
            pieces = out
        return pieces
    raise AssertionError(f"unhandled difference {ta} \\ {tb}")


def _subtract_points(a: SetExpr, pts: tuple[Q, ...]) -> list[Piece]:
    relevant = [p for p in pts if _atom_contains(a, p)]
    if not relevant:
        return [Piece(a, ())]
    ta = type(a)
    if ta is FinitePoints:
        kept = tuple(p for p in a.points if p not in relevant)
        return [Piece(FinitePoints(kept), ())] if kept else []
    if ta is Interval or ta is RationalsIn:
        base = a if ta is Interval else a.iv
        segments = [base]
        for p in sorted(relevant):
            nxt = []
            for seg in segments:
                if seg.contains(p):
                    left = iv_intersect(seg, Interval(None, p, False, False))
                    right = iv_intersect(seg, Interval(p, None, False, False))
                    for s in (left, right):
                        if isinstance(s, Interval):
                            nxt.append(s)
                        elif isinstance(s, FinitePoints):
                            nxt.append(s)
                else:
                    nxt.append(seg)
            segments = nxt
        out = []
        for seg in segments:
            if isinstance(seg, FinitePoints):
                out.append(Piece(seg if ta is Interval else seg, ()))
            elif ta is Interval:
                out.append(Piece(seg, ()))
            else:
                out.append(Piece(RationalsIn(seg), ()))
        return out
    if ta is CantorAffine:
        pieces = [a]
        for p in sorted(relevant):
            nxt = []
            for c in pieces:
                if not isinstance(c, CantorAffine) or not c.contains(p):
                    nxt.append(c)
                    continue
                box = c.clip if c.clip is not None else c.span()
                left = iv_intersect(box, Interval(None, p, False, False))
                right = iv_intersect(box, Interval(p, None, False, False))
                for s in (left, right):
                    if isinstance(s, Interval):
                        piece = _clip_cantor(CantorAffine(c.offset, c.scale), s)
                        if not isinstance(piece, EmptySet):
                            nxt.append(piece)
                    elif isinstance(s, FinitePoints):
                        kept = tuple(q for q in s.points if c.contains(q))
                        if kept:
                            nxt.append(FinitePoints(kept))
            pieces = nxt
        return [Piece(c, ()) for c in pieces]
    if ta is Sequence:
        term, _ = _seq_canonical_term(a)
        idxs = []
        for p in relevant:
            p_eff = p if term is a.term else -p
            n = _monotone_first(term, a.start, p_eff)
            if n is not None and term.eval(n) == p_eff:
                idxs.append(n)
        if not idxs:
            return [Piece(a, ())]
        cut = max(idxs) + 1
        if cut - a.start > MAX_MATERIALIZE:
            raise UnsupportedIntersection("sequence point-removal head too large")
        head = tuple(
            sorted(
                a.term.eval(n)
                for n in range(a.start, cut)
                if a.term.eval(n) not in relevant
            )
        )
        out = []
        if head:
            out.append(Piece(FinitePoints(head), ()))
        out.append(Piece(Sequence(a.term, cut), ()))
        return out
    if ta is IntervalFamily:
        pieces: list[Piece] = [Piece(a, ())]
        for p in sorted(relevant):
            nxt: list[Piece] = []
            for q in pieces:
                if isinstance(q.core, IntervalFamily) and _atom_contains(q.core, p):
                    n = _family_member_containing(q.core, p)
                    if n is None:
                        nxt.append(q)
                        continue
                    info = family_tail_info(q.core)
                    work = q.core if info.side > 0 else _family_reflect(q.core)
                    cut = n + 1
                    if cut - work.start > MAX_MATERIALIZE:
                        raise UnsupportedIntersection("family point-removal head too large")
                    mats = []
                    for m_i in range(work.start, cut):
                        m = _member_interval(work, m_i)
                        if not isinstance(m, EmptySet):
                            mats.append(m if info.side > 0 else _reflect_atom(m))
                    new_tail = IntervalFamily(work.lo, work.hi, work.lo_incl, work.hi_incl, cut)
                    if info.side < 0:
                        new_tail = _family_reflect(new_tail)
                    for m in mats:
                        for sub in _subtract_points(m, (p,)):
                            nxt.append(Piece(sub.core, _merge_removals(sub.removals, q.removals)))
                    nxt.append(Piece(new_tail, q.removals))
                elif piece_contains(q, p) or _atom_contains(q.core, p):
                    for sub in _subtract_points(q.core, (p,)):
                        nxt.append(Piece(sub.core, _merge_removals(sub.removals, q.removals)))
                else:
                    nxt.append(q)
            pieces = nxt
        return pieces
    raise AssertionError(f"unhandled point subtraction from {ta}")


def _piece_subtract_family_tail(p: Piece, tail: IntervalFamily) -> list[Piece]:
    core = p.core
    info = family_tail_info(tail)
    hull = family_hull(tail)
    if isinstance(core, FinitePoints):
        kept = tuple(q for q in core.points if not _atom_contains(tail, q))
        return _attach_removals([Piece(FinitePoints(kept), ())] if kept else [], p.removals)
    if isinstance(core, (Interval, RationalsIn)):
        box = core if isinstance(core, Interval) else core.iv
        if _iv_disjoint(box, hull):
            return [p]
        # clip the tail into the region: explicit members subtract exactly,
        # a surviving symbolic tail becomes a removal attached to the core
        parts = _family_clip(tail, box)
        pieces = [Piece(core, p.removals)]
        for part in parts:
            if isinstance(part.core, IntervalFamily):
                pieces = [
                    Piece(q.core, _merge_removals(q.removals, (part.core,))) for q in pieces
                ]
            elif isinstance(part.core, (Interval, FinitePoints)):
                nxt = []
                for q in pieces:
                    nxt.extend(_piece_subtract_atom(q, part.core))
                pieces = nxt
        return pieces
    if isinstance(core, Sequence):
        if _iv_disjoint(_seq_hull(core), hull):
            return [p]
        raise UnsupportedIntersection("sequence minus an overlapping family tail")
    if isinstance(core, (CantorAffine, IntervalFamily)):
        if core == tail:
            return []
        if isinstance(core, IntervalFamily):
            same_shape = (core.lo, core.hi, core.lo_incl, core.hi_incl) == (
                tail.lo,
                tail.hi,
                tail.lo_incl,
                tail.hi_incl,
            )
            if same_shape:
                if tail.start <= core.start:
                    return []
                if tail.start - core.start > MAX_MATERIALIZE:
                    raise UnsupportedIntersection("family head too large to materialize")
                out = []
                for n in range(core.start, tail.start):
                    m = _member_interval(core, n)
                    if not isinstance(m, EmptySet):
                        out.append(Piece(m, p.removals))
                return out
            if _iv_disjoint(family_hull(core), hull):
                return [p]
        raise UnsupportedIntersection("thin atom minus family tail is outside the algebra")
    raise AssertionError


def _piece_subtract_atom(p: Piece, b: SetExpr) -> list[Piece]:
    return _attach_removals(_core_subtract(p.core, b), p.removals)


def _piece_intersect(p1: Piece, p2: Piece) -> list[Piece]:
    base = _core_intersect(p1.core, p2.core)
    return _attach_removals(base, _merge_removals(p1.removals, p2.removals))


def _piece_subtract(p1: Piece, p2: Piece) -> list[Piece]:
    # x in result iff x in p1 and (x not in core2 or x in some removal of p2)
    out = _piece_subtract_atom(p1, p2.core)
    for r in p2.removals:
        for q in _attach_removals(_core_intersect(p1.core, p2.core), p1.removals):
            for w in _attach_removals(_core_intersect(q.core, r), q.removals):
                out.append(w)
    return out


# --- canonical unions ---------------------------------------------------------


def _canonical_union(pieces: list[Piece]) -> Normal:
    solids: list[Interval] = []
    removal_ivs: list[Piece] = []
    pts: set[Q] = set()
    q_plain: list[Interval] = []
    q_removal: list[Piece] = []
    cantors: list[Piece] = []
    seqs: list[Piece] = []
    fams: list[Piece] = []

    work = list(pieces)
    while work:
        p = work.pop()
        core = p.core
        if isinstance(core, EmptySet):
            continue
        if isinstance(core, Sequence):
            head, tail = _seq_parts(core)
            if head:
                work.append(Piece(FinitePoints(head), p.removals))
            if tail is not None and tail != core:
                work.append(Piece(tail, p.removals))
                continue
        if isinstance(core, IntervalFamily):
            raw, tail, info = _family_resolution(core)
            if tail != core:
                for c, r in raw:
                    work.append(Piece(c, _merge_removals(r, p.removals)))
                if tail is not None:
                    work.append(Piece(tail, p.removals))
                continue
        if isinstance(core, (Interval, RationalsIn)):
            reduced = _reduce_removal_piece(core, p.removals)
            if not (len(reduced) == 1 and reduced[0].core == core):
                work.extend(reduced)
                continue
            rp = reduced[0]
            if isinstance(core, Interval):
                if rp.removals:
                    removal_ivs.append(rp)
                else:
                    solids.append(core)
            else:
                if rp.removals:
                    q_removal.append(rp)
                else:
                    q_plain.append(core.iv)
        elif isinstance(core, FinitePoints):
            for x in core.points:
                if all(not _atom_contains(r, x) for r in p.removals):
                    pts.add(x)
        elif isinstance(core, CantorAffine):
            cantors.append(Piece(core, ()))  # removals on Cantor cores never arise
        elif isinstance(core, Sequence):
            seqs.append(Piece(core, ()))
        elif isinstance(core, IntervalFamily):
            fams.append(Piece(core, p.removals))
        else:
            raise AssertionError(f"unexpected piece core {core!r}")

    solids = merge_intervals(solids)

    # family tails against solid cover
    out_fams: list[Piece] = []
    extra_solids: list[Interval] = []
    for fp in fams:
        fam = fp.core
        info = family_tail_info(fam)
        keep = fam
        for s in solids:
            if keep is None:
                break
            hull = family_hull(keep)
            if _iv_disjoint(s, hull):
                continue
            limit = info.limit
            if info.side > 0:
                covers_stub = (s.lo is None or s.lo <= limit) and (s.hi is None or s.hi > limit)
                y = s.hi
            else:
                covers_stub = (s.hi is None or s.hi >= limit) and (s.lo is None or s.lo < limit)
                y = s.lo
            if covers_stub:
                # the solid covers a whole one-sided neighbourhood of the
                # accumulation point: members under it are absorbed, the
                # finitely many beyond it materialize
                if y is None:
                    keep = None
                    break
                mats, _ = _family_advance_past(keep, y)
                extra_solids.extend(m for m in mats if isinstance(m, Interval))
                for m in mats:
                    if isinstance(m, FinitePoints):
                        pts.update(m.points)
                keep = None
                break
            # solid sits away from the limit: split the tail around it
            edge = s.lo if info.side > 0 else s.hi
            if edge is None:
                raise UnsupportedIntersection("unbounded solid overlapping a family tail")
            work_fam = keep if info.side > 0 else _family_reflect(keep)
            e_eff = edge if info.side > 0 else -edge
            cut = _monotone_first(work_fam.hi, work_fam.start, e_eff)
            if cut is None:
                continue
            if cut - work_fam.start > MAX_MATERIALIZE:
                raise UnsupportedIntersection("family/solid overlap too large to split")
            for n in range(work_fam.start, cut):
                m = _member_interval(work_fam, n)
                if isinstance(m, Interval):
                    extra_solids.append(m if info.side > 0 else _reflect_atom(m))
                elif isinstance(m, FinitePoints):
                    pts.update(m.points if info.side > 0 else tuple(-q for q in m.points))
            new_tail = IntervalFamily(work_fam.lo, work_fam.hi, work_fam.lo_incl, work_fam.hi_incl, cut)
            keep = new_tail if info.side > 0 else _family_reflect(new_tail)
        if keep is not None:
            out_fams.append(Piece(keep, fp.removals))
    if extra_solids:
        solids = merge_intervals(solids + extra_solids)

    # distinct family tails must not share an accumulation side
    for i, f1 in enumerate(out_fams):
        for f2 in out_fams[i + 1 :]:
            i1, i2 = family_tail_info(f1.core), family_tail_info(f2.core)
            if i1.limit == i2.limit and i1.side == i2.side and f1.core != f2.core:
                raise UnsupportedIntersection("two family tails accumulate on the same side")

    # removal-carrying intervals: shave off solidly covered parts
    shaved: list[Piece] = []
    for rp in removal_ivs:
        segs = [rp]
        for s in solids:
            nxt = []
            for q in segs:
                for piece in iv_subtract(q.core, s):
                    if isinstance(piece, Interval):
                        for red in _reduce_removal_piece(piece, q.removals):
                            if isinstance(red.core, Interval):
                                nxt.append(red)
                            elif isinstance(red.core, FinitePoints):
                                for x in red.core.points:
                                    if all(not _atom_contains(r, x) for r in red.removals):
                                        pts.add(x)
                    elif isinstance(piece, FinitePoints):
                        for x in piece.points:
                            if all(not _atom_contains(r, x) for r in q.removals):
                                pts.add(x)
            segs = nxt
        shaved.extend(segs)
    plain_from_shaved = [p.core for p in shaved if not p.removals]
    shaved = [p for p in shaved if p.removals]
    if plain_from_shaved:
        solids = merge_intervals(solids + plain_from_shaved)
    for i, p1 in enumerate(shaved):
        for p2 in shaved[i + 1 :]:
            if not _iv_disjoint(p1.core, p2.core) and p1.removals != p2.removals:
                raise UnsupportedIntersection("overlapping co-thin regions with different removals")
    merged_shaved: list[Piece] = []
    for p in sorted(shaved, key=_piece_rank):
        if (
            merged_shaved
            and merged_shaved[-1].removals == p.removals
            and _iv_mergeable(merged_shaved[-1].core, p.core)
        ):
            merged_shaved[-1] = Piece(_iv_hull(merged_shaved[-1].core, p.core), p.removals)
        else:
            merged_shaved.append(p)

    # family tails overlapping co-thin regions are not supported
    for fp in out_fams:
        hull = family_hull(fp.core)
        for rp in merged_shaved:
            if not _iv_disjoint(hull, rp.core):
                raise UnsupportedIntersection("family tail overlaps a co-thin region")

    # rationals: merge, then subtract solid cover
    q_merged = merge_intervals(q_plain)
    q_out: list[Piece] = []
    for qiv in q_merged:
        segs = [qiv]
        for s in solids:
            nxt = []
            for seg in segs:
                for piece in iv_subtract(seg, s):
                    if isinstance(piece, Interval):
                        nxt.append(piece)
                    elif isinstance(piece, FinitePoints):
                        pts.update(piece.points)
            segs = nxt
        q_out.extend(Piece(RationalsIn(s), ()) for s in segs)
    for qp in q_removal:
        segs = [qp.core.iv]
        for s in solids:
            nxt = []
            for seg in segs:
                for piece in iv_subtract(seg, s):
                    if isinstance(piece, Interval):
                        nxt.append(piece)
                    elif isinstance(piece, FinitePoints):
                        for x in piece.points:
                            if all(not _atom_contains(r, x) for r in qp.removals):
                                pts.add(x)
            segs = nxt
        for seg in segs:
            cleaned = _clean_removals(seg, qp.removals)
            if cleaned:
                q_out.append(Piece(RationalsIn(seg), cleaned))
            else:
                q_out.append(Piece(RationalsIn(seg), ()))

    # sequences: drop members covered by solids or rational pieces
    seq_out: list[Piece] = []
    seq_pts: list[Q] = []
    for sp in seqs:
        parts = [sp]
        for s in solids + [q.core.iv for q in q_out if isinstance(q.core, RationalsIn) and not q.removals]:
            nxt = []
            for q in parts:
                if isinstance(q.core, Sequence):
                    for w in _core_subtract(q.core, s if isinstance(s, Interval) else s):
                        nxt.append(w)
                elif isinstance(q.core, FinitePoints):
                    kept = tuple(x for x in q.core.points if not s.contains(x))
                    if kept:
                        nxt.append(Piece(FinitePoints(kept), ()))
            parts = nxt
        for q in parts:
            if isinstance(q.core, Sequence):
                seq_out.append(q)
            elif isinstance(q.core, FinitePoints):
                seq_pts.extend(q.core.points)
    pts.update(seq_pts)

    # cantor pieces: drop those fully under the solid cover, dedupe
    cantor_out: list[Piece] = []
    seen_cantor = set()
    for cp in cantors:
        box = cp.core.clip if cp.core.clip is not None else cp.core.span()
        if any(_iv_covers(s, box) for s in solids):
            continue
        if cp.core not in seen_cantor:
            seen_cantor.add(cp.core)
            cantor_out.append(cp)

    # points: drop covered ones, then extend adjacent solids
    covered = []
    other_pieces = (
        [Piece(s, ()) for s in solids]
        + merged_shaved
        + q_out
        + cantor_out
        + seq_out
        + out_fams
    )
    final_pts = []
    for x in sorted(pts):
        if any(piece_contains(p, x) for p in other_pieces):
            continue
        final_pts.append(x)
    # extend solids by touching points ([a,b) + {b} -> [a,b])
    changed = True
    while changed:
        changed = False
        for i, s in enumerate(solids):
            for x in list(final_pts):
                if s.lo == x and not s.lo_incl:
                    solids[i] = Interval(s.lo, s.hi, True, s.hi_incl)
                    final_pts.remove(x)
                    changed = True
                elif s.hi == x and not s.hi_incl:
                    solids[i] = Interval(s.lo, s.hi, s.lo_incl, True)
                    final_pts.remove(x)
                    changed = True
        if changed:
            solids = merge_intervals(solids)
    # extend rational pieces by touching rational points
    for i, qp in enumerate(q_out):
        if qp.removals:
            continue
        iv = qp.core.iv
        for x in list(final_pts):
            if iv.lo == x and not iv.lo_incl:
                iv = Interval(iv.lo, iv.hi, True, iv.hi_incl)
                final_pts.remove(x)
            elif iv.hi == x and not iv.hi_incl:
                iv = Interval(iv.lo, iv.hi, iv.lo_incl, True)
                final_pts.remove(x)
        q_out[i] = Piece(RationalsIn(iv), ())

    result: list[Piece] = [Piece(s, ()) for s in solids]
    result.extend(merged_shaved)
    if final_pts:
        result.append(Piece(FinitePoints(tuple(final_pts)), ()))
    result.extend(q_out)
    result.extend(cantor_out)
    result.extend(seq_out)
    result.extend(out_fams)
    return Normal(tuple(sorted(result, key=_piece_rank)))


def _reduce_removal_piece(core: SetExpr, removals: tuple) -> list[Piece]:
    """Clip removals to the core's span; point-like pieces of a removal
    split the core, interval-like pieces (materialized family members)
    subtract exactly."""
    box = core if isinstance(core, Interval) else core.iv
    cleaned = _clean_removals(box, removals)
    pts = tuple(sorted({p for r in cleaned if isinstance(r, FinitePoints) for p in r.points}))
    solids = [r for r in cleaned if isinstance(r, Interval)]
    thin = tuple(r for r in cleaned if not isinstance(r, (FinitePoints, Interval)))
    pieces = _subtract_points(core, pts) if pts else [Piece(core, ())]
    for s in solids:
        nxt: list[Piece] = []
        for p in pieces:
            nxt.extend(_piece_subtract_atom(p, s))
        pieces = nxt
    return [Piece(p.core, _merge_removals(p.removals, thin)) for p in pieces]


def _clean_removals(box: Interval, removals: tuple) -> tuple:
    """Clip removal atoms to the box; drop the irrelevant ones."""
    out = []
    for r in removals:
        if isinstance(r, RationalsIn):
            clip = iv_intersect(r.iv, box)
            if isinstance(clip, Interval):
                out.append(RationalsIn(clip))
            elif isinstance(clip, FinitePoints):
                out.append(FinitePoints(clip.points))
        elif isinstance(r, CantorAffine):
            clipped = _clip_cantor(r, box)
            if isinstance(clipped, (CantorAffine, FinitePoints)):
                out.append(clipped)
        elif isinstance(r, Sequence):
            if not _iv_disjoint(_seq_hull(r), box):
                out.append(r)
        elif isinstance(r, IntervalFamily):
            if not _iv_disjoint(family_hull(r), box):
                for part in _family_clip(r, box):
                    out.append(part.core)  # tails stay thin, members turn solid
        elif isinstance(r, FinitePoints):
            kept = tuple(p for p in r.points if box.contains(p))
            if kept:
                out.append(FinitePoints(kept))
        else:
            raise AssertionError(f"unexpected removal atom {r!r}")
    return tuple(sorted(set(out), key=repr))


# --- normalization entry points -----------------------------------------------


@lru_cache(maxsize=None)
def _normal(expr: SetExpr) -> Normal:
    if isinstance(expr, EmptySet):
        return Normal(())
    if isinstance(expr, (Interval, FinitePoints, RationalsIn, CantorAffine, Sequence, IntervalFamily)):
        return _canonical_union([Piece(expr, ())])
    if isinstance(expr, Union):
        pieces: list[Piece] = []
        for arg in expr.args:
            pieces.extend(_normal(arg).pieces)
        return _canonical_union(pieces)
    if isinstance(expr, Intersection):
        normals = [_normal(arg) for arg in expr.args]
        if not normals:
            return Normal(())
        acc = list(normals[0].pieces)
        for nxt in normals[1:]:
            out: list[Piece] = []
            for p1 in acc:
                for p2 in nxt.pieces:
                    out.extend(_piece_intersect(p1, p2))
            acc = out
        return _canonical_union(acc)
    if isinstance(expr, Difference):
        left = _normal(expr.left)
        right = _normal(expr.right)
        acc = list(left.pieces)
        for p2 in right.pieces:
            out: list[Piece] = []
            for p1 in acc:
                out.extend(_piece_subtract(p1, p2))
            acc = out
        return _canonical_union(acc)
    raise AssertionError(f"unknown expression node {expr!r}")


def normalize(expr: SetExpr) -> SetExpr:
    """Canonical disjoint-union form; idempotent."""
    return _normal(expr).to_expr()


def contains(expr: SetExpr, x) -> bool:
    """Exact membership; never raises, even for non-normalizable trees."""
    x = Q(x)
    try:
        return _normal(expr).contains(x)
    except UnsupportedIntersection:
        return _tree_contains(expr, x)


def _tree_contains(expr: SetExpr, x: Q) -> bool:
    if isinstance(expr, EmptySet):
        return False
    if isinstance(expr, Union):
        return any(_tree_contains(a, x) for a in expr.args)
    if isinstance(expr, Intersection):
        return all(_tree_contains(a, x) for a in expr.args)
    if isinstance(expr, Difference):
        return _tree_contains(expr.left, x) and not _tree_contains(expr.right, x)
    return expr.contains(x)


# --- local traces --------------------------------------------------------------


@dataclass(frozen=True)
class LocalTrace:
    """Exact normal form of expr ∩ ((a - delta, a + delta) minus {a})."""

    center: Q
    radius: Q
    pieces: tuple[Interval, ...]  # plain interval parts, disjoint, sorted
    thin: tuple[Piece, ...]  # everything else (clipped, center excluded)

    def all_pieces(self) -> tuple[Piece, ...]:
        return tuple(Piece(iv, ()) for iv in self.pieces) + self.thin


def window_trace(expr: SetExpr, a, delta) -> LocalTrace:
    a, delta = Q(a), Q(delta)
    if delta <= 0:
        raise ValueError("window radius must be positive")
    window = Union((Interval(a - delta, a, False, False), Interval(a, a + delta, False, False)))
    clipped = _normal(Intersection((expr, window)))
    ivs = []
    thin = []
    for p in clipped.pieces:
        if isinstance(p.core, Interval) and not p.removals:
            ivs.append(p.core)
        else:
            thin.append(p)
    return LocalTrace(a, delta, tuple(ivs), tuple(thin))


# --- accumulation structure at a point ------------------------------------------


def _family_member_strictly_around(fam: IntervalFamily, a: Q) -> tuple[Q, Q] | None:
    """(dist to member's low edge, to its high edge) when a is interior to a
    canonical-tail member."""
    n = _family_member_containing(fam, a)
    if n is None:
        return None
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    a_eff = a if info.side > 0 else -a
    lo_v, hi_v = work.lo.eval(n), work.hi.eval(n)
    if lo_v < a_eff < hi_v:
        return a_eff - lo_v, hi_v - a_eff
    return None


def piece_reaches(piece: Piece, a: Q) -> bool:
    """Does the piece meet every punctured window around a?

    Measure-zero removals never matter (the allowed cores minus countable or
    Cantor removals still accumulate wherever the core does); a family-tail
    removal blocks accumulation only where one removed member covers a whole
    neighborhood of a.
    """
    core = piece.core
    for r in piece.removals:
        if isinstance(r, IntervalFamily) and _family_member_strictly_around(r, a):
            return False
    if isinstance(core, Interval):
        return _iv_distance(core, a) == 0  # intervals are nondegenerate
    if isinstance(core, FinitePoints):
        return False
    if isinstance(core, RationalsIn):
        return _iv_distance(core.iv, a) == 0
    if isinstance(core, CantorAffine):
        return cantor_accumulates_at(core, a)
    if isinstance(core, Sequence):
        return core.term.limit == a
    if isinstance(core, IntervalFamily):
        info = family_tail_info(core)
        if info.limit == a:
            return True
        return _family_member_containing(core, a) is not None or _family_boundary_touch(core, a)
    raise AssertionError


def _family_boundary_touch(fam: IntervalFamily, a: Q) -> bool:
    """a sits on the closed edge of some tail member."""
    info = family_tail_info(fam)
    work = fam if info.side > 0 else _family_reflect(fam)
    a_eff = a if info.side > 0 else -a
    if a_eff <= work.lo.limit:
        return False
    top = work.hi.eval(work.start)
    if a_eff > top:
        return False
    n = _monotone_first(work.hi, work.start, a_eff)
    for cand in {n, None if n is None else n - 1, work.start}:
        if cand is None or cand < work.start:
            continue
        lo_v, hi_v = work.lo.eval(cand), work.hi.eval(cand)
        if lo_v <= a_eff <= hi_v:
            return True
    return False


def piece_distance_floor(piece: Piece, a: Q) -> Q:
    """Positive lower bound on dist(a, piece minus {a}) for non-reaching pieces."""
    core = piece.core
    for r in piece.removals:
        if isinstance(r, IntervalFamily):
            around = _family_member_strictly_around(r, a)
            if around is not None:
                return min(around)
    if isinstance(core, Interval):
        d = _iv_distance(core, a)
        assert d > 0
        return d
    if isinstance(core, FinitePoints):
        ds = [abs(p - a) for p in core.points if p != a]
        return min(ds) if ds else Q(1)
    if isinstance(core, RationalsIn):
        d = _iv_distance(core.iv, a)
        assert d > 0
        return d
    if isinstance(core, CantorAffine):
        if core.contains(a):
            return _cantor_distance_floor(core, a)
        return _cantor_distance_floor(core, a)
    if isinstance(core, Sequence):
        if core.contains(a):
            # a is an isolated member: gap to its neighbours
            term, _ = _seq_canonical_term(core)
            a_eff = a if term is core.term else -a
            n = _monotone_first(term, core.start, a_eff)
            gaps = []
            if n is not None:
                if n > core.start:
                    gaps.append(term.eval(n - 1) - a_eff)
                gaps.append(a_eff - term.eval(n + 1))
            good = [g for g in gaps if g > 0]
            return min(good) if good else Q(1, 2) * abs(a_eff - term.limit)
        return _seq_min_distance(core, a)
    if isinstance(core, IntervalFamily):
        info = family_tail_info(core)
        work = core if info.side > 0 else _family_reflect(core)
        a_eff = a if info.side > 0 else -a
        limit = work.lo.limit
        if a_eff <= limit:
            return limit - a_eff if a_eff < limit else _family_limit_gap(work)
        top = work.hi.eval(work.start)
        if a_eff > top:
            return a_eff - top
        n = _monotone_first(work.hi, work.start, a_eff)
        cands = []
        for idx in {n, None if n is None else n - 1}:
            if idx is None or idx < work.start:
                continue
            lo_v, hi_v = work.lo.eval(idx), work.hi.eval(idx)
            for edge in (lo_v, hi_v):
                if abs(edge - a_eff) > 0:
                    cands.append(abs(edge - a_eff))
            if lo_v < a_eff < hi_v:
                raise AssertionError("point inside a member cannot have a distance floor")
        assert cands
        return min(cands)
    raise AssertionError


def _family_limit_gap(work: IntervalFamily) -> Q:
    raise AssertionError("family accumulates at its limit; no distance exists")


def vanish_radius(pieces: tuple[Piece, ...], a: Q) -> Q | None:
    """Positive delta whose punctured window misses all pieces, or None if
    some piece accumulates at a."""
    best: Q | None = None
    for p in pieces:
        if piece_reaches(p, a):
            return None
        d = piece_distance_floor(p, a)
        best = d if best is None else min(best, d)
    if best is None:
        return Q(1)
    return best / 2
