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

Every atom carries its own facts, so no other module asks an atom for its
class: `kind` and `rank` (its germ kind and its place in a normal form),
box() (the closed interval it lies in; every atom but FinitePoints),
tester() (exact membership), reaches(a) (does it meet every punctured window
around a), distance_floor(a) (a positive lower bound on its distance from a,
a itself left out, when it does not reach a), germ_kind(a) (the kind of its
germ at a) and candidates(rng, center, spread, want) (rational points to
sample it from).  reaches, distance_floor and germ_kind are asked of the
atoms of a normal form, whose tails are canonical.

Membership is resolved once per set: every atom's tester() is an exact
point test with what depends on the atom alone worked out up front (interval
ends as integers compared by cross-multiplication, a sequence's head and
distance range, a family tail's resolution), and membership(expr) joins the
testers of the normal form's pieces into one.  A lookup that can refuse runs
on the first point that reaches its atom.

Sequence and family tails pile up at their limit L from one side s (+1 from
the right, -1 from the left).  The side is decided once, when the tail is
canonicalized, and cached with a strictly decreasing distance term: s*(t - L)
for a sequence t, and s*(e - L) for the far edge e of a family member (the
edge away from the limit).  Every search, member lookup, split and distance
floor compares a point x by its distance coordinate d = s*(x - L) against
that term, so both sides share one code path; members and shortened tails
are always built from the real atom.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import RangeError, UnsupportedIntersection
from .terms import Term

Q = Fraction

# Hard cap on how many family/sequence members may be expanded explicitly.
MAX_MATERIALIZE = 20000
_CANTOR_DFS_DEPTH = 400


class SetExpr:
    """Base class: any atom or boolean combination node.

    Every atom has the protocol of the module docstring: kind, rank, box(),
    tester(), reaches(a), distance_floor(a), germ_kind(a) and
    candidates(rng, center, spread, want).  tester() is its exact membership
    test on rationals, with what depends on the atom alone resolved once for
    all the points the test is called on.
    """

    def contains(self, x: Q) -> bool:
        return self.tester()(x)

    def germ_kind(self, a: Q) -> str:
        return self.kind

    def __or__(self, other):
        return Union((self, other))

    def __and__(self, other):
        return Intersection((self, other))

    def __sub__(self, other):
        return Difference(self, other)


@dataclass(frozen=True)
class EmptySet(SetExpr):
    def tester(self) -> Callable[[Q], bool]:
        return _never


EMPTY = EmptySet()


class _BoxAtom(SetExpr):
    """An interval or the rationals in one: its germ facts are box()'s."""

    def reaches(self, a: Q) -> bool:
        return _iv_distance(self.box(), a) == 0  # boxes are nondegenerate

    def distance_floor(self, a: Q) -> Q:
        return _iv_distance(self.box(), a)

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        # an unbounded side is cut at center -/+ spread, or spread beyond the
        # bounded end when that end lies past the cut
        box = self.box()
        lo, hi = box.lo, box.hi
        if lo is None:
            lo = center - spread if hi is None or center - spread < hi else hi - spread
        if hi is None:
            hi = center + spread if center + spread > lo else lo + spread
        width, out = hi - lo, []
        for _ in range(want):
            den = rng.choice((64, 128, 256, 1024, 4096))
            out.append(lo + width * Q(rng.randrange(1, den), den))
        return out


@dataclass(frozen=True)
class Interval(_BoxAtom):
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

    def tester(self) -> Callable[[Q], bool]:
        # By cross-multiplication: denominators are positive, so n*ld - ln*d
        # has the sign of n/d - ln/ld.  An unbounded end is -1/0 or 1/0,
        # which every point passes.
        ln, ld = (-1, 0) if self.lo is None else (self.lo.numerator, self.lo.denominator)
        hn, hd = (1, 0) if self.hi is None else (self.hi.numerator, self.hi.denominator)
        lo_min, hi_min = (0 if self.lo_incl else 1), (0 if self.hi_incl else 1)

        def test(x: Q) -> bool:
            n, d = x.numerator, x.denominator
            return n * ld - ln * d >= lo_min and hn * d - n * hd >= hi_min

        return test

    def box(self) -> Interval:
        return self

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

    def tester(self) -> Callable[[Q], bool]:
        return frozenset(self.points).__contains__

    def reaches(self, a: Q) -> bool:
        return False

    def distance_floor(self, a: Q) -> Q:
        ds = [abs(p - a) for p in self.points if p != a]
        return min(ds) if ds else Q(1)

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        return list(self.points)


@dataclass(frozen=True)
class RationalsIn(_BoxAtom):
    kind = "rationals"
    rank = 2

    iv: Interval

    def tester(self) -> Callable[[Q], bool]:
        return self.iv.tester()  # every queried x is rational

    def box(self) -> Interval:
        return self.iv


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

    def box(self) -> Interval:
        return self.clip if self.clip is not None else self.span()

    def to_base(self, x: Q) -> Q:
        return (x - self.offset) / self.scale

    def tester(self) -> Callable[[Q], bool]:
        in_box, offset, scale = self.box().tester(), self.offset, self.scale
        return lambda x: in_box(x) and cantor_unit_info((x - offset) / scale)[0]

    def reaches(self, a: Q) -> bool:
        member, accL, accR = cantor_unit_info(self.to_base(a))[:3]
        if not member:
            return False
        if self.scale < 0:
            accL, accR = accR, accL
        clip = self.box()
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

    def distance_floor(self, a: Q) -> Q:
        """May undershoot, never overshoots."""
        u = self.to_base(a)
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
                bounds.append(min(side) * abs(self.scale))
        d = _iv_distance(self.box(), a)
        if d > 0:
            bounds.append(d)
        if bounds:
            return max(bounds)
        # a is a member (or clip-boundary member) that the clip isolates:
        # probe shrinking windows until the window misses the set
        delta = Q(1)
        for _ in range(200):
            win_lo = Interval(a - delta, a, False, False)
            win_hi = Interval(a, a + delta, False, False)
            if not cantor_meets_interval(self, win_lo) and not cantor_meets_interval(self, win_hi):
                return delta
            delta /= 2
        raise UnsupportedIntersection("could not separate point from Cantor piece")

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        out = []
        for _ in range(want):
            digits = [rng.choice((0, 2)) for _ in range(rng.randrange(2, 16))]
            v = sum(Q(d, 3 ** (i + 1)) for i, d in enumerate(digits))
            out.append(self.offset + self.scale * v)
        return out


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

    def tester(self) -> Callable[[Q], bool]:
        return _lazy(partial(_seq_tester, self))

    def box(self) -> Interval:
        """For a canonical tail: its first value and its limit."""
        first = self.term.eval(self.start)
        return Interval(min(self.limit, first), max(self.limit, first), True, True)

    def reaches(self, a: Q) -> bool:
        return self.limit == a

    def distance_floor(self, a: Q) -> Q:
        """For a canonical tail: the distance from a, which is not the
        limit, to the other values."""
        info = _seq_info(self.term, self.start)
        d = info.side * (a - self.limit)
        if d < 0:
            return -d
        n = _monotone_first(info.dist, self.start, d)  # first value not beyond a
        below = info.dist.eval(n)
        if below == d:  # a is a member: the next value is its lower neighbour
            below = info.dist.eval(n + 1)
        gaps = [d - below]
        if n > self.start:
            gaps.append(info.dist.eval(n - 1) - d)
        return min(gaps)

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        return [self.term.eval(self.start + rng.randrange(0, 64)) for _ in range(want)]


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

    def tester(self) -> Callable[[Q], bool]:
        return _lazy(partial(_family_tester, self))

    def box(self) -> Interval:
        """For a canonical tail: its first member and its limit."""
        limit = family_tail_info(self).limit
        return _iv_hull(_member_interval(self, self.start), Interval(limit, limit, True, True))

    # reaches, distance_floor, germ_kind and candidates: for a canonical tail

    def reaches(self, a: Q) -> bool:
        return family_tail_info(self).limit == a or _family_member_at(self, a) is not None

    def distance_floor(self, a: Q) -> Q:
        # a lies outside every member's closure: the nearest members are the
        # last one beyond a and the first one between a and the limit
        n = _family_split(self, a)
        if n is None:
            return abs(a - family_tail_info(self).limit)
        return min(_iv_distance(_member_interval(self, k), a) for k in (n - 1, n) if k >= self.start)

    def germ_kind(self, a: Q) -> str:
        """Away from its limit the tail reaches a point through one member,
        like an interval."""
        return self.kind if family_tail_info(self).limit == a else Interval.kind

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        info = family_tail_info(self)
        out = []
        for _ in range(want):
            n = self.start + rng.randrange(0, 64)
            width = self.hi.eval(n) - self.lo.eval(n)
            if width <= 0:
                continue
            # the point of member n that lies u of its width in from its
            # edge nearer the limit, in distance coordinates
            u = Q(rng.randrange(1, 16), 16)
            d = info.far.eval(n) - width * (1 - u)
            out.append(info.limit + info.side * d)
        return out


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


def _never(x: Q) -> bool:
    return False


def _any_of(tests: list[Callable[[Q], bool]]) -> Callable[[Q], bool]:
    """The union of the tests, tried in order."""
    if len(tests) == 1:
        return tests[0]

    def test(x: Q) -> bool:
        for t in tests:
            if t(x):
                return True
        return False

    return test


def _lazy(build: Callable[[], Callable[[Q], bool]]) -> Callable[[Q], bool]:
    """A test built on its first call.  Resolving a sequence or a family can
    refuse; the refusal then surfaces on each point that reaches the atom,
    and building the tester of a set that holds the atom never raises."""
    test = None

    def first(x: Q) -> bool:
        nonlocal test
        if test is None:
            test = build()
        return test(x)

    return first


# --- interval construction and algebra -------------------------------------


def interval(lo, hi, lo_incl=True, hi_incl=True) -> SetExpr:
    if lo is not None and not isinstance(lo, Q):
        lo = Q(lo)
    if hi is not None and not isinstance(hi, Q):
        hi = Q(hi)
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
    return not isinstance(_clip_cantor(atom, iv), EmptySet)


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
    """The atom intersected with iv: a clipped Cantor atom, its few points, or EMPTY."""
    box = iv_intersect(atom.box(), iv)
    if isinstance(box, EmptySet):
        return EMPTY
    if isinstance(box, FinitePoints):
        kept = tuple(p for p in box.points if atom.contains(p))
        return FinitePoints(kept) if kept else EMPTY
    lo, hi = _to_base_interval(atom, box)
    if _cantor_unit_meets_open(lo, hi):
        if _iv_covers(box, atom.span()):
            return CantorAffine(atom.offset, atom.scale, None)
        return CantorAffine(atom.offset, atom.scale, box)
    pts = []
    if box_incl_lo(atom, box) and cantor_unit_info(lo)[0]:
        pts.append(atom.offset + atom.scale * lo)
    if box_incl_hi(atom, box) and cantor_unit_info(hi)[0]:
        pts.append(atom.offset + atom.scale * hi)
    return points(*pts) if pts else EMPTY


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
    dist: Term  # side * (term - limit): positive, strictly decreasing on the tail
    first: Q  # an upper bound on dist(tail_start), the largest distance on the tail


@lru_cache(maxsize=None)
def _seq_info(term: Term, start: int) -> SeqInfo:
    dev = term - Term.constant(term.limit)
    side, n_side = dev.eventual_sign()
    step = term - term.shifted()
    s_step, n_step = step.eventual_sign()
    assert side != 0 and s_step != 0
    tail_start, dist = max(start, n_side, n_step), dev.scale(side)
    return SeqInfo(tail_start, side, dist, dist.eval_bounds(tail_start)[1])


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
        if _seq_index(tail, v) is None and v not in head:
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


def _dist_edges(box: Interval, limit: Q, side: int):
    """The box's (near, far) edges in distance coordinates d = side*(x - limit):
    each a (d, included) pair, or None for an unbounded end."""
    lo = None if box.lo is None else (side * (box.lo - limit), box.lo_incl)
    hi = None if box.hi is None else (side * (box.hi - limit), box.hi_incl)
    return (lo, hi) if side > 0 else (hi, lo)


def _holds_limit_side(near, far) -> bool:
    """Do a box's distance-coordinate edges enclose points arbitrarily close
    to the limit on the tail's side?"""
    return (near is None or near[0] <= 0) and (far is None or far[0] > 0)


def _seq_index(tail: Sequence, x: Q) -> int | None:
    """Index n of the canonical tail with term(n) == x, if any."""
    info = _seq_info(tail.term, tail.start)
    d = info.side * (x - tail.limit)
    if d <= 0 or d > info.first:
        return None
    return _dist_index(info, tail.start, d)


def _dist_index(info: SeqInfo, start: int, d: Q) -> int | None:
    """Index n >= start with dist(n) == d, for 0 < d <= info.first, if any."""
    n = _monotone_first(info.dist, start, d)
    return n if n is not None and info.dist.compare_at(n, d) == 0 else None


def _seq_tester(seq: Sequence) -> Callable[[Q], bool]:
    """Membership in the sequence: its head values, then the tail's index
    search, which only points within the tail's distance range reach."""
    head, tail = _seq_parts(seq)
    info = _seq_info(tail.term, tail.start)
    side, start = info.side, tail.start
    ln, ld = tail.limit.numerator, tail.limit.denominator
    fn, fd = info.first.numerator, info.first.denominator

    def test(x: Q) -> bool:
        if head and x in head:
            return True
        n, d = x.numerator, x.denominator
        s = side * (n * ld - ln * d)  # the distance coordinate is s / (d*ld)
        if s <= 0 or s * fd > fn * d * ld:
            return False
        return _dist_index(info, start, Q(s, d * ld)) is not None

    return test


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
    far: Term  # side * (far edge - limit): positive, strictly decreasing
    far_incl: bool  # whether members include their far edge


def _member_interval(fam: IntervalFamily, n: int) -> SetExpr:
    return interval(fam.lo.eval(n), fam.hi.eval(n), fam.lo_incl, fam.hi_incl)


def _family_head(fam: IntervalFamily, stop: int) -> list[SetExpr]:
    """The nonempty members with index start <= n < stop."""
    if stop - fam.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("family head too large to materialize")
    members = (_member_interval(fam, n) for n in range(fam.start, stop))
    return [m for m in members if not isinstance(m, EmptySet)]


@lru_cache(maxsize=None)
def _family_resolution(fam: IntervalFamily):
    """Canonicalize: (pieces, tail_atom, tail_info).

    pieces are (core, removals) pairs for the materialized/collapsed part;
    tail_atom (with its FamilyTailInfo) is a family whose members are
    pairwise disjoint, strictly monotone, and sit on one side of the limit.
    """
    lo, hi = fam.lo, fam.hi
    if lo.limit != hi.limit:
        # distinct endpoint limits: members eventually overlap, collapse
        n_ov = (hi - lo.shifted()).eventual_sign()[1]
        return _family_collapse(fam, n_ov, 1)
    limit = lo.limit
    s_lo, n_lo = (lo - Term.constant(limit)).eventual_sign()
    s_hi, n_hi = (hi - Term.constant(limit)).eventual_sign()
    if s_lo >= 0 and s_hi == 1:
        side, near, far, far_incl = 1, lo, hi, fam.hi_incl
    elif s_hi <= 0 and s_lo == -1:
        side, near, far, far_incl = -1, hi, lo, fam.lo_incl
    else:
        # members straddle the limit forever: they overlap, collapse
        return _family_collapse(fam, max(n_lo, n_hi), 1)
    near_d = (near - Term.constant(limit)).scale(side)
    far_d = (far - Term.constant(limit)).scale(side)
    if near_d.is_constant():
        return _family_collapse(fam, max(n_lo, n_hi), side)
    # > 0: consecutive members strictly separated
    s_d, n_d = (near_d - far_d.shifted()).eventual_sign()
    n_w = (hi - lo).eventual_sign()[1]
    if s_d > 0:
        n_star = max(fam.start, n_lo, n_hi, n_d, n_w)
        pieces = tuple((m, ()) for m in _family_head(fam, n_star))
        tail = IntervalFamily(lo, hi, fam.lo_incl, fam.hi_incl, n_star)
        return pieces, tail, FamilyTailInfo(limit, side, far_d, far_incl)
    # touching (s_d == 0) or overlapping members chain into an interval
    return _family_collapse(fam, max(n_lo, n_hi, n_d, n_w), side)


def _family_collapse(fam: IntervalFamily, n_hint: int, side: int):
    """Members eventually chain together: replace the tail by one interval.

    side is the side of the limit the members approach from (1 when they
    straddle it or have no common limit); member n chains to member n+1
    across its edge nearer the limit."""
    lo, hi = fam.lo, fam.hi
    l_lo, l_hi = lo.limit, hi.limit
    near, far = (lo, hi) if side > 0 else (hi, lo)
    s_dlo, n_dlo = (lo - lo.shifted()).eventual_sign()
    s_dhi, n_dhi = (hi - hi.shifted()).eventual_sign()
    ov = (far - near.shifted()).scale(side)  # member n reaches member n+1 when >= 0
    s_ov, n_ov = ov.eventual_sign()
    n_star = max(fam.start, n_hint, n_dlo, n_dhi, n_ov)
    if s_ov < 0:
        raise AssertionError("collapse requested for eventually disjoint family")

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
            holes = sequence(far, n_star)  # far(n) == near(n+1) at every index
        elif (near - far.shifted()).eventual_sign()[0] == 0:
            holes = sequence(near, n_star)  # near(n) == far(n+1) at every index
    if isinstance(collapsed, (Interval, FinitePoints)):
        removals = (holes,) if isinstance(holes, Sequence) else ()
        pieces.append((collapsed, removals))
    pieces.extend((m, ()) for m in _family_head(fam, n_star))
    return tuple(pieces), None, None


@lru_cache(maxsize=None)
def family_tail_info(fam: IntervalFamily) -> FamilyTailInfo:
    """Tail metadata for an already-canonical family atom."""
    _, tail, info = _family_resolution(fam)
    if tail != fam:
        raise AssertionError("family_tail_info requires a canonical tail atom")
    return info


def _family_tester(fam: IntervalFamily) -> Callable[[Q], bool]:
    """Membership in the family: the one candidate member of a canonical
    tail, or else the canonical pieces in order.  Only a canonical tail is
    a piece of a normal form; any other family is tested from a tree walk,
    which builds its tester for one point, so its pieces are only tested
    as far as the first that holds the point."""
    raw, tail, _ = _family_resolution(fam)
    if tail == fam:
        def test(x: Q) -> bool:
            hit = _family_member_at(fam, x)
            return hit is not None and hit[1].contains(x)

        return test
    in_tail = _never if tail is None else tail.tester()
    return lambda x: any(piece_tester(Piece(c, r))(x) for c, r in raw) or in_tail(x)


def _family_split(fam: IntervalFamily, x: Q) -> int | None:
    """First index of the canonical tail whose member lies wholly between x
    and the limit (its far edge nearer the limit than x); None when x is not
    past the limit on the tail's side."""
    info = family_tail_info(fam)
    d = info.side * (x - info.limit)
    if d <= 0:
        return None
    return _monotone_first(info.far, fam.start, d, strict=True)


def _family_member_at(fam: IntervalFamily, x: Q) -> tuple[int, Interval] | None:
    """(index, member) of the canonical-tail member whose closure holds x.

    Members are strictly separated, so at most one closure holds a point:
    the last member whose far edge is not nearer the limit than x.
    """
    n = _family_split(fam, x)
    if n is None or n == fam.start:
        return None
    member = _member_interval(fam, n - 1)
    return (n - 1, member) if _iv_distance(member, x) == 0 else None


def _family_clip(fam: IntervalFamily, box: Interval) -> list["Piece"]:
    """Pieces of (canonical tail) ∩ box."""
    info = family_tail_info(fam)
    if _iv_covers(box, fam.box()):
        return [Piece(fam, ())]
    near, far = _dist_edges(box, info.limit, info.side)
    # Members live strictly beyond the limit; a box that stays at or before
    # it cannot meet the tail.
    if far is not None and far[0] <= 0:
        return []
    tail = None
    if _holds_limit_side(near, far):
        # the tail survives from the first member fully inside the box
        if far is None:
            cut = fam.start
        else:
            cut = _monotone_first(info.far, fam.start, far[0], strict=not far[1] and info.far_incl)
        if cut is None:
            raise UnsupportedIntersection("family clip could not locate the window edge")
        tail = IntervalFamily(fam.lo, fam.hi, fam.lo_incl, fam.hi_incl, cut)
    else:
        # the box sits away from the accumulation point: finitely many members
        cut = _monotone_first(info.far, fam.start, near[0])
        if cut is None:
            cut = fam.start
    out: list[Piece] = []
    for m in _family_head(fam, cut):
        out.extend(_core_intersect(m, box))
    if tail is not None:
        out.append(Piece(tail, ()))
    return out


# --- pieces and normal forms -------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """core minus the union of the removal atoms.

    Cores: Interval, FinitePoints, RationalsIn, CantorAffine, Sequence
    (canonical tail), IntervalFamily (canonical tail).  Removals: RationalsIn,
    Sequence, CantorAffine (all measure zero), plus canonical family tails
    clipped inside the core (positive measure, accounted for explicitly by
    the analyzers).  Every core and removal atom but FinitePoints has a
    box(): the closed interval it lies in, which the pairwise rules clip
    other atoms to.
    """

    core: SetExpr
    removals: tuple = ()

    def to_expr(self) -> SetExpr:
        if not self.removals:
            return self.core
        rem = self.removals[0] if len(self.removals) == 1 else Union(self.removals)
        return Difference(self.core, rem)


def piece_tester(piece: Piece) -> Callable[[Q], bool]:
    """Membership in the piece: in the core and in none of its removals."""
    core = piece.core.tester()
    if not piece.removals:
        return core
    removed = _any_of([r.tester() for r in piece.removals])
    return lambda x: core(x) and not removed(x)


@dataclass(frozen=True)
class Normal:
    pieces: tuple[Piece, ...]

    def to_expr(self) -> SetExpr:
        if not self.pieces:
            return EMPTY
        exprs = [p.to_expr() for p in self.pieces]
        return exprs[0] if len(exprs) == 1 else Union(exprs)


def _piece_rank(piece: Piece) -> tuple:
    core = piece.core
    if isinstance(core, (Interval, RationalsIn)):
        lo = core.box().lo
        key = lo if lo is not None else Q(-10**18)
    elif isinstance(core, FinitePoints):
        key = core.points[0]
    else:
        key = Q(0)
    return (core.rank, key, repr(piece))


# --- piece-level intersections -----------------------------------------------


def _seq_clip(seq: Sequence, box: Interval) -> list[Piece]:
    """Pieces of the canonical sequence tail intersected with box."""
    info = _seq_info(seq.term, seq.start)
    near, far = _dist_edges(box, seq.limit, info.side)
    tail = None
    if _holds_limit_side(near, far):
        # tail eventually inside: keep symbolically from the first member
        # within the far edge
        cut = None if far is None else _monotone_first(info.dist, seq.start, far[0], strict=not far[1])
        tail = Sequence(seq.term, seq.start if cut is None else cut)
    else:
        cut = None if near is None else _monotone_first(info.dist, seq.start, near[0], strict=True)
    stop = seq.start if cut is None else cut
    if stop - seq.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection("sequence clip head too large")
    inside = box.tester()
    pts = sorted(v for v in (seq.term.eval(n) for n in range(seq.start, stop)) if inside(v))
    out = [Piece(FinitePoints(tuple(pts)), ())] if pts else []
    if tail is not None:
        out.append(Piece(tail, ()))
    return out


def _core_intersect(a: SetExpr, b: SetExpr) -> list[Piece]:
    """Pieces of a ∩ b for core atoms a, b."""
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return []
    if a == b:
        return [Piece(a, ())]
    if isinstance(b, FinitePoints):
        a, b = b, a
    if isinstance(a, FinitePoints):
        inside = b.tester()
        kept = tuple(p for p in a.points if inside(p))
        return [Piece(FinitePoints(kept), ())] if kept else []
    if a.rank > b.rank:
        a, b = b, a
    ta, tb = type(a), type(b)

    if tb is Interval or tb is RationalsIn:
        r = iv_intersect(a.box(), b.box())
        if tb is RationalsIn and isinstance(r, Interval):
            r = RationalsIn(r)
        return [] if isinstance(r, EmptySet) else [Piece(r, ())]
    if ta is Interval:
        if tb is CantorAffine:
            r = _clip_cantor(b, a)
            return [] if isinstance(r, EmptySet) else [Piece(r, ())]
        if tb is Sequence:
            return _seq_clip(b, a)
        return _family_clip(b, a)
    if ta is RationalsIn:
        if tb is CantorAffine:
            raise UnsupportedIntersection("rationals ∩ Cantor image is outside the algebra")
        if tb is Sequence:
            return _seq_clip(b, a.iv)  # sequence values are rational
        return _finite_meet(b, a, "rationals ∩ family tail is outside the algebra")
    if ta is CantorAffine:
        if tb is CantorAffine:
            if (a.offset, a.scale) == (b.offset, b.scale):
                return _core_intersect(a, b.box())
            raise UnsupportedIntersection("two distinct Cantor images cannot be intersected")
        if tb is Sequence:
            raise UnsupportedIntersection("Cantor image ∩ sequence is outside the algebra")
        return _finite_meet(b, a, "Cantor image ∩ family tail is outside the algebra")
    if ta is Sequence:
        if tb is Sequence:
            if a.term == b.term:
                return [Piece(Sequence(a.term, max(a.start, b.start)), ())]
            vals = _seq_shared_values(a, b)
            return [Piece(FinitePoints(vals), ())] if vals else []
        if a.limit == family_tail_info(b).limit:
            raise UnsupportedIntersection("sequence and family share an accumulation point")
        return _finite_meet(a, b, "sequence tail does not reduce to finitely many values here")
    ia, ib = family_tail_info(a), family_tail_info(b)
    if ia.limit == ib.limit and ia.side == ib.side:
        raise UnsupportedIntersection("two family tails share an accumulation side")
    return _finite_meet(a, b, "family tails interleave; not reducible")


def _finite_meet(tail: SetExpr, other: SetExpr, refusal: str) -> list[Piece]:
    """Pieces of tail ∩ other for a sequence or family tail of which only
    finitely many members lie in other's box; refuses with the given message
    when a tail survives the clip."""
    out = []
    for p in _core_intersect(tail, other.box()):
        if type(p.core) is type(tail):
            raise UnsupportedIntersection(refusal)
        out.extend(_core_intersect(p.core, other))
    return out


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
    in_a, in_b = a.tester(), b.tester()
    for piece in _seq_clip(b, window):
        if isinstance(piece.core, Sequence):
            raise AssertionError("a sequence tail cannot accumulate away from its limit")
        shared.update(v for v in piece.core.points if in_a(v))
    for comp in iv_complement(window):
        for piece in _seq_clip(a, comp):
            if isinstance(piece.core, Sequence):
                raise AssertionError("a sequence tail cannot accumulate away from its limit")
            shared.update(v for v in piece.core.points if in_b(v))
    return tuple(sorted(shared))


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


def _core_subtract(a: SetExpr, b: SetExpr) -> list[Piece]:
    """Pieces of a \\ b for core atoms."""
    if isinstance(a, EmptySet):
        return []
    if isinstance(b, EmptySet):
        return [Piece(a, ())]
    if a == b:
        return []
    ta, tb = type(a), type(b)

    if ta is FinitePoints:
        inside = b.tester()
        kept = tuple(p for p in a.points if not inside(p))
        return [Piece(FinitePoints(kept), ())] if kept else []
    if tb is Interval:
        out = []
        for comp in iv_complement(b):
            out.extend(_core_intersect(a, comp))
        return out
    if tb is FinitePoints:
        return _subtract_points(a, b.points)
    if tb is RationalsIn:
        if ta is CantorAffine:
            if _iv_disjoint(a.box(), b.box()):
                return [Piece(a, ())]
            raise UnsupportedIntersection("Cantor image minus rationals is outside the algebra")
        if ta is Interval or ta is IntervalFamily:
            return _cut_thin(a, b)
        return _core_subtract(a, b.iv)  # every member of a is rational
    if tb is CantorAffine:
        if ta is CantorAffine and (a.offset, a.scale) == (b.offset, b.scale):
            return _core_subtract(a, b.box())
        if ta in (Interval, RationalsIn, IntervalFamily):
            return _cut_thin(a, b)
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
        if ta in (Interval, RationalsIn, IntervalFamily):
            return [Piece(a, (b,))]
        if _iv_disjoint(a.box(), b.box()):
            return [Piece(a, ())]
        raise UnsupportedIntersection("difference with a sequence is outside the algebra")
    if tb is IntervalFamily:
        raw, tail, _ = _family_resolution(b)
        pieces = [Piece(a, ())]
        for core, removals in raw:
            pieces = [q for p in pieces for q in _piece_subtract(p, Piece(core, removals))]
        if tail is not None:
            pieces = [q for p in pieces for q in _piece_subtract_family_tail(p, tail)]
        return pieces
    raise AssertionError(f"unhandled difference {ta} \\ {tb}")


def _cut_thin(a: SetExpr, b: SetExpr) -> list[Piece]:
    """a minus a thin atom b (rationals or a Cantor image): b clipped to a's
    box splits a when only points of it are left, and is a removal otherwise."""
    parts = _core_intersect(b, a.box())  # at most one piece
    if not parts:
        return [Piece(a, ())]
    clipped = parts[0].core
    if isinstance(clipped, FinitePoints):
        return _subtract_points(a, clipped.points)
    return [Piece(a, (clipped,))]


def _subtract_points(a: SetExpr, pts: tuple[Q, ...]) -> list[Piece]:
    inside = a.tester()
    relevant = [p for p in pts if inside(p)]
    if not relevant:
        return [Piece(a, ())]
    ta = type(a)
    if ta in (Interval, FinitePoints, RationalsIn, CantorAffine):
        # each point splits every piece holding it along the two open
        # half-lines at the point
        pieces = [a]
        for p in sorted(relevant):
            nxt = []
            for c in pieces:
                if not c.contains(p):
                    nxt.append(c)
                    continue
                for half in (Interval(None, p, False, False), Interval(p, None, False, False)):
                    nxt.extend(q.core for q in _core_intersect(c, half))
            pieces = nxt
        return [Piece(c, ()) for c in pieces]
    if ta is Sequence:
        idxs = [n for n in (_seq_index(a, p) for p in relevant) if n is not None]
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
                if not q.core.contains(p):
                    nxt.append(q)
                elif isinstance(q.core, IntervalFamily):
                    # materialize the members up to the one holding p
                    fam = q.core
                    cut = _family_member_at(fam, p)[0] + 1
                    for m in _family_head(fam, cut):
                        nxt.extend(_attach_removals(_subtract_points(m, (p,)), q.removals))
                    nxt.append(Piece(IntervalFamily(fam.lo, fam.hi, fam.lo_incl, fam.hi_incl, cut), q.removals))
                else:
                    nxt.extend(_attach_removals(_subtract_points(q.core, (p,)), q.removals))
            pieces = nxt
        return pieces
    raise AssertionError(f"unhandled point subtraction from {ta}")


def _piece_subtract_family_tail(p: Piece, tail: IntervalFamily) -> list[Piece]:
    core = p.core
    hull = tail.box()
    if isinstance(core, FinitePoints):
        return _piece_subtract_atom(p, tail)
    if isinstance(core, (Interval, RationalsIn)):
        if _iv_disjoint(core.box(), hull):
            return [p]
        # clip the tail into the region: explicit members subtract exactly,
        # a surviving symbolic tail becomes a removal attached to the core
        pieces = [p]
        for part in _family_clip(tail, core.box()):
            if isinstance(part.core, IntervalFamily):
                pieces = [
                    Piece(q.core, _merge_removals(q.removals, (part.core,))) for q in pieces
                ]
            else:
                pieces = [w for q in pieces for w in _piece_subtract_atom(q, part.core)]
        return pieces
    if isinstance(core, Sequence):
        if _iv_disjoint(core.box(), hull):
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
                return [Piece(m, p.removals) for m in _family_head(core, tail.start)]
        if _iv_disjoint(core.box(), hull):
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

    def add_points(xs, removals):
        removed = _any_of([r.tester() for r in removals])
        pts.update(x for x in xs if not removed(x))

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
            add_points(core.points, p.removals)
        elif isinstance(core, CantorAffine):
            # Removals of thin cores are dropped here and below: a known
            # defect, pinned by strict xfails in tests/test_sets.py.
            cantors.append(Piece(core, ()))
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
        keep = fp.core
        info = family_tail_info(keep)
        for s in solids:
            if _iv_disjoint(s, keep.box()):
                continue
            near, far = _dist_edges(s, info.limit, info.side)
            if _holds_limit_side(near, far):
                # the solid covers a whole one-sided neighbourhood of the
                # accumulation point: members under it are absorbed, the
                # finitely many beyond it materialize
                cut = keep.start if far is None else _monotone_first(info.far, keep.start, far[0])
                rest = None
            else:
                # solid sits away from the limit: split the tail at its near edge
                if near is None:
                    continue  # it lies at d <= 0, where no member is
                cut = _monotone_first(info.far, keep.start, near[0])
                if cut is None:
                    continue
                rest = IntervalFamily(keep.lo, keep.hi, keep.lo_incl, keep.hi_incl, cut)
            if cut is None:
                raise UnsupportedIntersection("family absorption head too large")
            for m in _family_head(keep, cut):
                if isinstance(m, Interval):
                    extra_solids.append(m)
                else:
                    pts.update(m.points)
            keep = rest
            if keep is None:
                break
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
        segs, ends = _uncovered(rp.core, solids)
        add_points(ends, rp.removals)
        for seg in segs:
            for red in _reduce_removal_piece(seg, rp.removals):
                if isinstance(red.core, Interval):
                    shaved.append(red)
                else:
                    add_points(red.core.points, red.removals)
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
        for rp in merged_shaved:
            if not _iv_disjoint(fp.core.box(), rp.core):
                raise UnsupportedIntersection("family tail overlaps a co-thin region")

    # rationals: merge, then subtract solid cover
    q_out: list[Piece] = []
    for qiv in merge_intervals(q_plain):
        segs, ends = _uncovered(qiv, solids)
        pts.update(ends)
        q_out.extend(Piece(RationalsIn(seg), ()) for seg in segs)
    for qp in q_removal:
        segs, ends = _uncovered(qp.core.iv, solids)
        add_points(ends, qp.removals)
        q_out.extend(Piece(RationalsIn(seg), _clean_removals(seg, qp.removals)) for seg in segs)

    # sequences: drop members covered by solids or rational pieces
    seq_out: list[Piece] = []
    for sp in seqs:
        parts = [sp]
        for s in solids + [q.core.iv for q in q_out if not q.removals]:
            parts = [w for q in parts for w in _core_subtract(q.core, s)]
        for q in parts:
            if isinstance(q.core, Sequence):
                seq_out.append(q)
            else:
                pts.update(q.core.points)

    # cantor pieces: drop those fully under the solid cover, dedupe
    cantor_out: list[Piece] = []
    for cp in cantors:
        if not any(_iv_covers(s, cp.core.box()) for s in solids) and cp not in cantor_out:
            cantor_out.append(cp)

    # points: drop covered ones, then close the open ends they touch
    # ([a,b) + {b} -> [a,b]) of solids and of plain rational pieces
    other_pieces = (
        [Piece(s, ()) for s in solids]
        + merged_shaved
        + q_out
        + cantor_out
        + seq_out
        + out_fams
    )
    covered = _any_of([piece_tester(p) for p in other_pieces]) if pts else _never
    final_pts = {x for x in pts if not covered(x)}
    if final_pts:
        solids = merge_intervals([_absorb_ends(s, final_pts) for s in solids])
        # a closed end can join two plain rational pieces: Q((0,1]) + Q((1,2))
        plain = merge_intervals([_absorb_ends(qp.core.iv, final_pts) for qp in q_out if not qp.removals])
        q_out = [Piece(RationalsIn(iv), ()) for iv in plain] + [qp for qp in q_out if qp.removals]

    result: list[Piece] = [Piece(s, ()) for s in solids]
    result.extend(merged_shaved)
    if final_pts:
        result.append(Piece(FinitePoints(tuple(sorted(final_pts))), ()))
    result.extend(q_out)
    result.extend(cantor_out)
    result.extend(seq_out)
    result.extend(out_fams)
    return Normal(tuple(sorted(result, key=_piece_rank)))


def _uncovered(iv: Interval, solids: list[Interval]) -> tuple[list[Interval], list[Q]]:
    """iv minus the union of the solids: its intervals and its single points."""
    segs, ends = [iv], []
    for s in solids:
        nxt = []
        for seg in segs:
            for piece in iv_subtract(seg, s):
                if isinstance(piece, Interval):
                    nxt.append(piece)
                else:
                    ends.extend(piece.points)
        segs = nxt
    return segs, ends


def _absorb_ends(iv: Interval, pts: set) -> Interval:
    """iv with each open end that is one of pts closed; those points leave pts."""
    lo_incl, hi_incl = iv.lo_incl or iv.lo in pts, iv.hi_incl or iv.hi in pts
    pts.difference_update((iv.lo, iv.hi))
    return Interval(iv.lo, iv.hi, lo_incl, hi_incl)


def _reduce_removal_piece(core: SetExpr, removals: tuple) -> list[Piece]:
    """Clip removals to the core's span; point-like pieces of a removal
    split the core, interval-like pieces (materialized family members) and
    rationals removed from rationals subtract exactly."""
    cleaned = _clean_removals(core.box(), removals)
    pts = tuple(sorted({p for r in cleaned if isinstance(r, FinitePoints) for p in r.points}))
    exact = (Interval, RationalsIn) if isinstance(core, RationalsIn) else (Interval,)
    solids = [r for r in cleaned if isinstance(r, exact)]
    thin = tuple(r for r in cleaned if not isinstance(r, (FinitePoints, *exact)))
    pieces = _subtract_points(core, pts) if pts else [Piece(core, ())]
    for s in solids:
        nxt: list[Piece] = []
        for p in pieces:
            nxt.extend(_piece_subtract_atom(p, s))
        pieces = nxt
    return [Piece(p.core, _merge_removals(p.removals, thin)) for p in pieces]


def _clean_removals(box: Interval, removals: tuple) -> tuple:
    """Clip removal atoms to the box; drop the irrelevant ones.  A family
    tail's clip keeps the tail thin and turns its members solid."""
    out = []
    for r in removals:
        if isinstance(r, Sequence):
            if not _iv_disjoint(r.box(), box):
                out.append(r)
        else:
            out.extend(part.core for part in _core_intersect(r, box))
    return tuple(sorted(set(out), key=repr))


# --- normalization entry points -----------------------------------------------


# The message of each refusal _normal has raised, by expression, so that a
# refused tree is not normalized again.  The message is kept rather than the
# exception, which would gather traceback frames on every re-raise.
_refusals: dict[SetExpr, str] = {}


@lru_cache(maxsize=None)
def _normal(expr: SetExpr) -> Normal:
    refusal = _refusals.get(expr)
    if refusal is not None:
        raise UnsupportedIntersection(refusal)
    try:
        return _normal_of(expr)
    except UnsupportedIntersection as exc:
        _refusals[expr] = str(exc)
        raise


def _normal_of(expr: SetExpr) -> Normal:
    if isinstance(expr, EmptySet):
        return Normal(())
    if isinstance(expr, (Interval, RationalsIn)) or (
        isinstance(expr, FinitePoints) and expr.points and all(p < q for p, q in zip(expr.points, expr.points[1:]))
    ):
        return Normal((Piece(expr, ()),))  # an atom that is its own normal form
    if isinstance(expr, (FinitePoints, CantorAffine, Sequence, IntervalFamily)):
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


def membership(expr: SetExpr) -> Callable[[Q], bool]:
    """Exact membership test of expr on rationals, resolved once: the
    testers of the normal form's pieces, or a walk of the tree when the
    expression is refused."""
    try:
        pieces = _normal(expr).pieces
    except UnsupportedIntersection:
        return partial(_tree_contains, expr)
    return _any_of([piece_tester(p) for p in pieces])


def contains(expr: SetExpr, x) -> bool:
    """Exact membership.  A tree that does not normalize is tested node by
    node, so a union can still answer; the test raises
    UnsupportedIntersection only when the point reaches an atom that cannot
    be resolved, such as a sequence whose head is too large to materialize."""
    return membership(expr)(Q(x))


def _tree_contains(expr: SetExpr, x: Q) -> bool:
    """Membership by the tree itself, without normalizing: the reference
    that the normal form's membership agrees with."""
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
        raise RangeError("window radius must be positive")
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


def _removed_around(piece: Piece, a: Q) -> Q | None:
    """Distance from a to the edges of a removed family member that holds a
    strictly inside, if one does."""
    for r in piece.removals:
        if isinstance(r, IntervalFamily):
            hit = _family_member_at(r, a)
            if hit is not None and hit[1].lo < a < hit[1].hi:
                return min(a - hit[1].lo, hit[1].hi - a)
    return None


def piece_reaches(piece: Piece, a: Q) -> bool:
    """Does the piece meet every punctured window around a?

    Measure-zero removals never matter (the allowed cores minus countable or
    Cantor removals still accumulate wherever the core does); a family-tail
    removal blocks accumulation only where one removed member covers a whole
    neighborhood of a.
    """
    return _removed_around(piece, a) is None and piece.core.reaches(a)


def piece_distance_floor(piece: Piece, a: Q) -> Q:
    """Positive lower bound on dist(a, piece minus {a}) for non-reaching pieces."""
    hole = _removed_around(piece, a)
    return piece.core.distance_floor(a) if hole is None else hole


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
