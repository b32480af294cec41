"""Symbolic subsets of the real line with exact, decidable operations.

Seven atom kinds (empty set, intervals, finite point sets, the rationals
inside an interval, affine images of the middle-thirds Cantor set, ranges
of closed-form sequences, and unions of closed-form interval families) are
closed under finite union, intersection and difference *up to* an explicit
rule table; combinations outside the table raise UnsupportedIntersection
rather than approximating.

Normalization produces a canonical "piece" list (Normal says which pieces
may overlap).  A piece is an atom, optionally minus thin removal atoms, so
co-countable sets such as the irrationals in a window are representable,
which the limit engine needs to certify failure verdicts.  The list is held
by a Normal, which is a set expression node itself: _normal(n) is n,
returned unhashed, so the other modules take and return normal forms, and
build larger trees on them, without printing them into trees to be
normalized again.  Only the public normalize() and the text of a set print a
Normal into a tree of atoms (Normal.to_expr); normalizing that tree gives
the same Normal back.  One memo (_normal_or_refusal), keyed by expression,
holds each tree's normal form or the message of its refusal.

Every normal form comes out of one union (_canonical_union) in three steps.
Flatten: tails are resolved into heads and canonical tails, the removals of
intervals, rationals and family tails are clipped to the core's box and
reduced (by _reduce_removal_piece, which _core_subtract also calls for an
atom taken from such a core), and each piece is filed as a plain interval (a
solid), as points, or in the rest.
Cover: every piece of the rest is clipped to the gaps between the merged
solids (_minus_cover) and the parts are filed again; a plain interval split
off a piece joins the cover, so this repeats until no solid is added.  Plain
rationals also cover sequences, and a Cantor piece goes only when a single
solid covers its box.
Finish: the refusal checks, co-thin pieces (intervals that carry removals)
with equal removals merged, and the points left closing the open ends of
solids and of plain rationals.

Interval ends compare as cuts, sortable tuples between the rationals:
(0, v, False) just below v, (0, v, True) just above it, and CUT_BOTTOM and
CUT_TOP below and above every finite cut.  [v and (v have the low cuts
below and above v, and v] and v) the high cuts above and below it.  An
interval is its pair of cuts (Interval.low, Interval.high), nonempty when
low < high, so each question of the interval algebra is one comparison; a
set minus intervals and points is clipped to the gaps between them (_outside).

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
ends as integers compared by cross-multiplication, a sequence's or family's
head testers, canonical tail and distance range, a Cantor image's offset and
scale as integers), and membership(expr) joins the testers of the normal
form's pieces into one.  Unions, intersections and differences have
testers built from their arguments', which test a tree that is refused.  A
lookup that can refuse runs on the first point that reaches its atom.
membership caches the tester of the last 32 sets, keyed by expression, so
queries on an equal tree share one tester and the tail testers it built.

A sequence is an interval family whose members are single closed points,
so both kinds share one tail layer.  _resolve splits either, once, into a
head of pieces and a canonical tail, whose members are strictly monotone,
pairwise disjoint, and approach the limit L from one side s (+1 from the
right, -1 from the left).  The tail's TailInfo holds L, s and the strictly
decreasing distance terms s*(e - L) of each member's near and far edges e.
One clip (_tail_clip), one member lookup (member_at) and one distance floor
compare a point x by its distance coordinate d = s*(x - L) against those
terms, for both kinds and both sides; members and shortened tails are
always built from the real atom.

_resolve compiles both distance terms once (terms._compile), and d is kept
as a pair of integers that the compiled terms compare and search exactly.

One integer walk over ternary digits (_cantor_walk) answers every question
about the middle-thirds Cantor set: membership, the sides it accumulates
from, and the gap around a non-member.  An open interval is connected, so
it misses the set exactly when it lies in the gap around its midpoint; no
search over construction bricks, and no depth bound.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache, partial

from ._record import record
from .errors import RangeError, UnsupportedIntersection
from .terms import Term, _compile, _Dist

Q = Fraction

# Hard cap on how many family/sequence members may be expanded explicitly.
MAX_MATERIALIZE = 20000


class SetExpr:
    """Base class: any atom or boolean combination node.

    Every atom has the protocol of the module docstring: kind, rank, box(),
    tester(), reaches(a), distance_floor(a), germ_kind(a) and
    candidates(rng, center, spread, want).  tester() is its exact membership
    test on rationals, with what depends on the atom alone resolved once for
    all the points the test is called on.
    """

    __slots__ = ()

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


@record
class EmptySet(SetExpr):
    def tester(self) -> Callable[[Q], bool]:
        return _never


EMPTY = EmptySet()


class _BoxAtom(SetExpr):
    """An interval or the rationals in one: its germ facts are box()'s."""

    __slots__ = ()

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
        base, step, common = over_one_denominator(lo, hi - lo)
        out = []
        for _ in range(want):
            den = rng.choice((64, 128, 256, 1024, 4096))
            out.append(Q(base * den + step * rng.randrange(1, den), common * den))
        return out


@record
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

    @property
    def low(self) -> tuple:
        """The cut of its low end (see the module docstring): low_cut(lo, lo_incl)."""
        return CUT_BOTTOM if self.lo is None else (0, self.lo, not self.lo_incl)

    @property
    def high(self) -> tuple:
        """The cut of its high end: high_cut(hi, hi_incl)."""
        return CUT_TOP if self.hi is None else (0, self.hi, self.hi_incl)

    def box(self) -> Interval:
        return self

    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def length(self) -> Q | None:
        if not self.is_bounded():
            return None
        return self.hi - self.lo


FULL_LINE = Interval(None, None, False, False)


@record
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


@record
class RationalsIn(_BoxAtom):
    kind = "rationals"
    rank = 2

    iv: Interval

    def tester(self) -> Callable[[Q], bool]:
        return self.iv.tester()  # every queried x is rational

    def box(self) -> Interval:
        return self.iv


@record
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
        # u = (x - offset)/scale as the integer pair num/den, by
        # cross-multiplication, with den > 0; a point in the box has u in
        # [0, 1], where the digit walk applies
        in_box = self.box().tester()
        on, od = self.offset.numerator, self.offset.denominator
        sn, sd = self.scale.numerator, self.scale.denominator
        num_k, den_k = (sd, od * sn) if sn > 0 else (-sd, -od * sn)

        def test(x: Q) -> bool:
            n, d = x.numerator, x.denominator
            return in_box(x) and _cantor_walk((n * od - on * d) * num_k, d * den_k)[0]

        return test

    def reaches(self, a: Q) -> bool:
        member, accL, accR = cantor_unit_info(self.to_base(a))[:3]
        if self.scale < 0:
            accL, accR = accR, accL
        sides = covered_sides(self.box(), a)
        return member and (accL and -1 in sides or accR and 1 in sides)

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


class _Tail(SetExpr):
    """A sequence or an interval family.  Its canonical tail (see _resolve) is
    a strictly monotone run of members that approach one limit from one side,
    and a sequence is the family whose members are single closed points.
    box(), reaches, distance_floor, germ_kind and candidates are asked of
    canonical tails."""

    __slots__ = ()

    def tester(self) -> Callable[[Q], bool]:
        return _lazy(partial(_tail_tester, self))

    def distance_floor(self, a: Q) -> Q:
        """The distance from a, which the tail does not reach, to the nearest
        member; a itself, when it is a sequence value, is left out."""
        info = tail_info(self)
        da, db = info.coords(a)
        d = Q(da, db)
        if d <= 0:
            return -d
        n = info.far.first(self.start, da, db, True)  # first member wholly nearer the limit
        nearer = d - info.far.term.eval(n)
        for k in (n - 1, n - 2):  # the nearest member beyond a
            beyond = info.near.term.eval(k) - d if k >= self.start else 0
            if beyond > 0:
                return min(nearer, beyond)
        return nearer


@record
class Sequence(_Tail):
    """{term(n) : n >= start}; the term is non-constant."""

    kind = "sequence"
    rank = 4

    term: Term
    start: int

    @property
    def limit(self) -> Q:
        return self.term.limit

    def box(self) -> Interval:
        """Its first value and its limit."""
        first = self.term.eval(self.start)
        return Interval(min(self.limit, first), max(self.limit, first), True, True)

    def reaches(self, a: Q) -> bool:
        return self.limit == a

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        return [self.term.eval(self.start + rng.randrange(0, 64)) for _ in range(want)]


@record
class IntervalFamily(_Tail):
    """Union over n >= start of the intervals [lo(n), hi(n)] (flags chosen
    by lo_incl/hi_incl).  Requires lo(n) <= hi(n) for every index."""

    kind = "family"
    rank = 5

    lo: Term
    hi: Term
    lo_incl: bool
    hi_incl: bool
    start: int

    @property
    def limit(self) -> Q:
        """For a canonical tail, where both edge terms share it."""
        return self.lo.limit

    def member(self, n: int) -> SetExpr:
        return interval(self.lo.eval(n), self.hi.eval(n), self.lo_incl, self.hi_incl)

    def box(self) -> Interval:
        """Its first member and its limit."""
        return _iv_hull(self.member(self.start), Interval(self.limit, self.limit, True, True))

    def reaches(self, a: Q) -> bool:
        return self.limit == a or member_at(self, tail_info(self), a) is not None

    def germ_kind(self, a: Q) -> str:
        """Away from its limit the tail reaches a point through one member,
        like an interval."""
        return self.kind if self.limit == a else Interval.kind

    def candidates(self, rng: random.Random, center: Q, spread: Q, want: int) -> list[Q]:
        info = tail_info(self)
        out = []
        for _ in range(want):
            n = self.start + rng.randrange(0, 64)
            width = self.hi.eval(n) - self.lo.eval(n)
            if width <= 0:
                continue
            # the point of member n that lies u of its width in from its
            # edge nearer the limit, in distance coordinates
            u = Q(rng.randrange(1, 16), 16)
            d = info.far.term.eval(n) - width * (1 - u)
            out.append(info.limit + info.side * d)
        return out


# The germ facts that depend on an atom's kind alone: which kinds are
# countably infinite and which have measure zero.  Finite point sets are
# countable and null too, but they never accumulate, so they are in neither
# set: the limit checker keeps them as blockers when it picks a radius.
COUNTABLE_KINDS = frozenset({RationalsIn.kind, Sequence.kind})
NULL_KINDS = COUNTABLE_KINDS | {CantorAffine.kind}


@record
class Union(SetExpr):
    args: tuple

    def __new__(cls, args):
        return tuple.__new__(cls, (tuple(args),))

    def tester(self) -> Callable[[Q], bool]:
        return _any_of([a.tester() for a in self.args])


@record
class Intersection(SetExpr):
    args: tuple

    def __new__(cls, args):
        return tuple.__new__(cls, (tuple(args),))

    def tester(self) -> Callable[[Q], bool]:
        return _all_of([a.tester() for a in self.args])


@record
class Difference(SetExpr):
    left: SetExpr
    right: SetExpr

    def tester(self) -> Callable[[Q], bool]:
        left, right = self.left.tester(), self.right.tester()
        return lambda x: left(x) and not right(x)


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


def _all_of(tests: list[Callable[[Q], bool]]) -> Callable[[Q], bool]:
    """The intersection of the tests, tried in order."""

    def test(x: Q) -> bool:
        for t in tests:
            if not t(x):
                return False
        return True

    return test


def over_one_denominator(lo: Q, width: Q) -> tuple[int, int, int]:
    """Integers (base, step, den) with lo = base/den and width = step/den, so
    that the grid point lo + width*k/m of a window is the one Fraction
    Q(base*m + step*k, den*m)."""
    den = math.lcm(lo.denominator, width.denominator)
    return lo.numerator * (den // lo.denominator), width.numerator * (den // width.denominator), den


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

# Interval ends are cuts (see the module docstring).  The flag of each
# sentinel is the one that between() reads back as an open end.
CUT_BOTTOM, CUT_TOP = (-1, None, True), (1, None, False)


def low_cut(lo: Q | None, incl: bool) -> tuple:
    return CUT_BOTTOM if lo is None else (0, lo, not incl)


def high_cut(hi: Q | None, incl: bool) -> tuple:
    return CUT_TOP if hi is None else (0, hi, incl)


def between(low: tuple, high: tuple) -> SetExpr:
    """The set from cut low to cut high: EMPTY, one point or an Interval."""
    if low >= high:
        return EMPTY
    lo, hi = low[1], high[1]
    if not low[2] and high[2] and lo == hi:  # from just below lo to just above it
        return FinitePoints((lo,))
    return Interval(lo, hi, not low[2], high[2])


def interval(lo, hi, lo_incl=True, hi_incl=True) -> SetExpr:
    if lo is not None and not isinstance(lo, Q):
        lo = Q(lo)
    if hi is not None and not isinstance(hi, Q):
        hi = Q(hi)
    return between(low_cut(lo, lo_incl), high_cut(hi, hi_incl))


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
    return between(max(a.low, b.low), min(a.high, b.high))


def _iv_covers(a: Interval, b: Interval) -> bool:
    """a is a superset of b."""
    return a.low <= b.low and b.high <= a.high


def _iv_disjoint(a: Interval, b: Interval) -> bool:
    return max(a.low, b.low) >= min(a.high, b.high)


def _iv_mergeable(a: Interval, b: Interval) -> bool:
    """Union of a and b is a single interval (overlap or compatible touch)."""
    return a.low <= b.high and b.low <= a.high


def _iv_hull(a: Interval, b: Interval) -> Interval:
    return between(min(a.low, b.low), max(a.high, b.high))


def merge_intervals(ivs: list[Interval]) -> list[Interval]:
    """The union of the intervals as sorted intervals, no two mergeable."""
    out: list[Interval] = []
    for iv in sorted(ivs, key=lambda iv: iv.low):
        if out and iv.low <= out[-1].high:
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


def covered_sides(iv: Interval, a: Q) -> set[int]:
    """Sides of a (-1 left, +1 right) on which iv covers a one-sided
    neighbourhood of a."""
    below, above, sides = (0, a, False), (0, a, True), set()
    if iv.low < below <= iv.high:
        sides.add(-1)
    if iv.low <= above < iv.high:
        sides.add(1)
    return sides


# --- Cantor set machinery ---------------------------------------------------


def _cantor_walk(num: int, den: int) -> tuple[bool, bool, bool, tuple[int, int] | None]:
    """(member, accumulates-from-left, accumulates-from-right, gap) of the
    point num/den of [0, 1] (den > 0, 0 <= num <= den, not necessarily in
    lowest terms), from its ternary digits in integers.

    b holds the digits read so far, all 0 or 2, as an integer.  At the
    first digit 1 at level k that does not end the expansion, the point lies
    in the gap ((3b+1)/3^k, (3b+2)/3^k), returned as the pair (b, k); None
    for members.  A repeated remainder means the digits cycle without a 1.
    """
    if num == den:
        return True, True, False, None  # digits end in 2s: brick right end
    b, k, seen = 0, 0, set()
    while True:
        if num == 0:
            return True, False, True, None  # digits end in 0s: brick left end
        if num in seen:
            return True, True, True, None  # periodic with both digits present
        seen.add(num)
        d, num = divmod(3 * num, den)
        k += 1
        if d == 1:
            if num == 0:
                # exactly the lower third point: rewrite ...1 as ...0222...
                return True, True, False, None
            return False, False, False, (b, k)
        b = 3 * b + d


def cantor_unit_info(x: Q) -> tuple[bool, bool, bool, tuple[Q | None, Q | None] | None]:
    """(member, accumulates-from-left, accumulates-from-right, gap).

    gap is the maximal open interval around a non-member that misses the
    set (None endpoints meaning unbounded); None for members.
    """
    if x < 0:
        return False, False, False, (None, Q(0))
    if x > 1:
        return False, False, False, (Q(1), None)
    member, acc_l, acc_r, gap = _cantor_walk(x.numerator, x.denominator)
    if gap is not None:
        b, k = gap
        gap = (Q(3 * b + 1, 3**k), Q(3 * b + 2, 3**k))
    return member, acc_l, acc_r, gap


def _cantor_meets_open(lo: Q, hi: Q) -> bool:
    """Does the unit Cantor set meet the open interval (lo, hi), lo < hi?

    An open interval is connected, so it misses the set exactly when it
    lies in the gap around its midpoint.  A midpoint outside [0, 1], in an
    unbounded gap, puts the end 0 or 1 inside the interval.
    """
    if hi <= 0 or lo >= 1:
        return False
    member, _, _, gap = cantor_unit_info((lo + hi) / 2)
    if member or gap[0] is None or gap[1] is None:
        return True
    return not (gap[0] <= lo and hi <= gap[1])


def cantor_meets_interval(atom: CantorAffine, iv: Interval) -> bool:
    """Exact emptiness test for the clipped affine Cantor image against iv."""
    return not isinstance(_clip_cantor(atom, iv), EmptySet)


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
        pts = [(p, True) for p in box.points]
    else:
        # the atom's box is bounded, so box is a bounded, nondegenerate interval
        if _cantor_meets_open(*sorted((atom.to_base(box.lo), atom.to_base(box.hi)))):
            if _iv_covers(box, atom.span()):
                return CantorAffine(atom.offset, atom.scale, None)
            return CantorAffine(atom.offset, atom.scale, box)
        pts = [(box.lo, box.lo_incl), (box.hi, box.hi_incl)]
    test = atom.tester()
    return points(*(p for p, incl in pts if incl and test(p)))


# --- sequence and family tails ---------------------------------------------


def sequence(term: Term, start: int = 1) -> SetExpr:
    if start < 1:
        raise RangeError("sequence start must be >= 1")
    if term.is_constant():
        return points(term.limit)
    return Sequence(term, start)


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


@record
class TailInfo:
    """The shape of a canonical tail, whatever its start.  Its members lie
    on side s of the limit (+1 right, -1 left).  near and far are the terms
    s*(e - limit) of each member's edge e nearer to and away from the limit,
    both positive and strictly decreasing, in integer form (_Dist), and
    near_incl and far_incl say whether members hold those edges.  A
    sequence's near and far are both its distance term, and it holds both."""

    limit: Q
    side: int
    near: _Dist
    far: _Dist
    near_incl: bool
    far_incl: bool

    def coords(self, x: Q) -> tuple[int, int]:
        """x in distance coordinates, as a/b with b > 0: how far beyond the
        limit on the tail's side."""
        ln, ld = self.limit.numerator, self.limit.denominator
        return self.side * (x.numerator * ld - ln * x.denominator), x.denominator * ld


@lru_cache(maxsize=None)
def _resolve(atom: _Tail) -> tuple[tuple, _Tail | None, TailInfo | None]:
    """(head, tail, info) of a sequence or family: head is the pieces that
    come before the canonical tail, and tail (None when the members chain
    into an interval) is the same atom from the index on which its members
    are strictly monotone and pairwise disjoint, with its TailInfo."""
    return _seq_resolution(atom) if isinstance(atom, Sequence) else _family_resolution(atom)


def tail_info(tail: _Tail) -> TailInfo:
    """The TailInfo of a canonical tail."""
    return _resolve(tail)[2]


def _seq_resolution(seq: Sequence):
    dist = seq.term - Term.constant(seq.limit)
    side, n_side = dist.eventual_sign()
    s_step, n_step = (seq.term - seq.term.shifted()).eventual_sign()
    assert side != 0 and s_step != 0
    dist = _compile(dist.scale(side))
    info = TailInfo(seq.limit, side, dist, dist, True, True)
    tail = Sequence(seq.term, max(seq.start, n_side, n_step))
    # the head's values that the tail does not take again
    vals = [v for m in _members(seq, tail.start) for v in m.points if member_at(tail, info, v) is None]
    head = () if not vals else (Piece(points(*vals), ()),)
    return head, tail, info


def _family_resolution(fam: IntervalFamily):
    lo, hi = fam.lo, fam.hi
    if lo.limit != hi.limit:
        # distinct endpoint limits: members eventually overlap, collapse
        n_ov = (hi - lo.shifted()).eventual_sign()[1]
        return _family_collapse(fam, n_ov, 1)
    limit = lo.limit
    s_lo, n_lo = (lo - Term.constant(limit)).eventual_sign()
    s_hi, n_hi = (hi - Term.constant(limit)).eventual_sign()
    if s_lo >= 0 and s_hi == 1:
        side, near, far, near_incl, far_incl = 1, lo, hi, fam.lo_incl, fam.hi_incl
    elif s_hi <= 0 and s_lo == -1:
        side, near, far, near_incl, far_incl = -1, hi, lo, fam.hi_incl, fam.lo_incl
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
        head = tuple(Piece(m, ()) for m in _members(fam, n_star))
        tail = IntervalFamily(lo, hi, fam.lo_incl, fam.hi_incl, n_star)
        return head, tail, TailInfo(limit, side, _compile(near_d), _compile(far_d), near_incl, far_incl)
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
    ov = (far - near.shifted()).scale(side)  # > 0: member n reaches past member n+1's near edge
    s_ov, n_ov = ov.eventual_sign()
    n_star = max(fam.start, n_hint, n_dlo, n_dhi, n_ov)
    if s_ov <= 0:
        raise AssertionError("collapse requested for members that do not chain toward the limit")

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

    head = []
    collapsed = interval(b_lo, b_hi, b_lo_incl, b_hi_incl)
    holes = None
    # members that touch exactly leave single-point holes at junctions
    if not fam.lo_incl and not fam.hi_incl and (near - far.shifted()).eventual_sign()[0] == 0:
        holes = sequence(near, n_star)  # near(n) == far(n+1) at every index
    if isinstance(collapsed, (Interval, FinitePoints)):
        removals = (holes,) if isinstance(holes, Sequence) else ()
        head.append(Piece(collapsed, removals))
    head.extend(Piece(m, ()) for m in _members(fam, n_star))
    return tuple(head), None, None


def _members(tail: _Tail, stop: int) -> list[SetExpr]:
    """The nonempty members with index start <= n < stop; a sequence's
    values come as one point set."""
    if stop - tail.start > MAX_MATERIALIZE:
        raise UnsupportedIntersection(f"{tail.kind} head too large to materialize")
    if stop <= tail.start:
        return []
    if isinstance(tail, Sequence):
        return [points(*(tail.term.eval(n) for n in range(tail.start, stop)))]
    members = (tail.member(n) for n in range(tail.start, stop))
    return [m for m in members if not isinstance(m, EmptySet)]


def member_at(tail: _Tail, info: TailInfo, x: Q) -> int | None:
    """Index of the member of a canonical tail (with its TailInfo) whose
    closure holds x, if any."""
    return _member_at(tail.start, info, *info.coords(x))


def _member_at(start: int, info: TailInfo, a: int, b: int) -> int | None:
    """member_at for the distance a/b.  Members are strictly separated, so
    it can only be the last member whose far edge is not nearer the limit."""
    if a <= 0:
        return None
    n = info.far.first(start, a, b, True)
    if n == start or info.near.sign(n - 1, a, b) > 0:
        return None
    return n - 1


def _tail_tester(atom: _Tail) -> Callable[[Q], bool]:
    """Membership in a sequence or family: the testers of its head's pieces,
    built once and tried in turn, then the member lookup of its canonical
    tail, which only points within the tail's distance range reach."""
    head, tail, info = _resolve(atom)
    in_head = _any_of([piece_tester(h) for h in head]) if head else _never
    if tail is None:
        return in_head
    start, near, far, near_incl, far_incl = tail.start, info.near, info.far, info.near_incl, info.far_incl
    first = far.term.eval_bounds(start)[1]  # no member lies farther out
    fn, fd = first.numerator, first.denominator

    def test(x: Q) -> bool:
        if in_head(x):
            return True
        a, b = info.coords(x)
        if a <= 0 or a * fd > fn * b:
            return False
        m = _member_at(start, info, a, b)
        # the member's closure holds x: it holds x unless x is a left-out edge
        return (
            m is not None
            and (near_incl or near.sign(m, a, b) != 0)
            and (far_incl or far.sign(m, a, b) != 0)
        )

    return test


def _dist_edges(box: Interval, info: TailInfo):
    """The box's (near, far) edges in the tail's distance coordinates: each
    an (a, b, included) triple for the distance a/b, or None for an
    unbounded end."""
    lo = None if box.lo is None else (*info.coords(box.lo), box.lo_incl)
    hi = None if box.hi is None else (*info.coords(box.hi), box.hi_incl)
    return (lo, hi) if info.side > 0 else (hi, lo)


def _tail_clip(tail: _Tail, box: Interval) -> list[Piece]:
    """Pieces of a canonical tail intersected with box.

    In distance coordinates the box runs from its near edge to its far
    edge.  When it holds the limit side, the tail goes on from the first
    member wholly within the far edge; when it sits away from the limit,
    no member wholly nearer the limit than its near edge meets it.  The
    members before that cut whose near edge is within the far edge are
    clipped to the box one by one; those beyond it cannot meet the box."""
    info = tail_info(tail)
    near, far = _dist_edges(box, info)
    if far is not None and far[0] <= 0:
        return []  # the box stays at or before the limit, where no member is
    rest = None
    if near is None or near[0] <= 0:
        cut = tail.start if far is None else info.far.first(tail.start, far[0], far[1], info.far_incl and not far[2])
        rest = tail._replace(start=cut)
    else:
        cut = info.far.first(tail.start, near[0], near[1], True)
    first = tail.start if far is None else info.near.first(tail.start, far[0], far[1], False)
    out = [q for m in _members(tail._replace(start=first), cut) for q in _core_intersect(m, box)]
    if rest is not None:
        out.append(Piece(rest, ()))
    return out


# --- pieces and normal forms -------------------------------------------------


@record
class Piece:
    """core minus the union of the removal atoms.

    Cores: Interval, FinitePoints, RationalsIn, CantorAffine, Sequence
    (canonical tail), IntervalFamily (canonical tail).  Removals, once filed:
    RationalsIn, Sequence, CantorAffine (all measure zero), plus family tails
    (positive measure, accounted for explicitly by the analyzers), each
    clipped to the closed box of its core.  Every core and removal atom but
    FinitePoints has a box(): the closed interval it lies in, which the
    pairwise rules clip other atoms to.
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


@record
class Normal(SetExpr):
    """A normal form: the union of its pieces, sorted by _piece_rank.  Solids
    (plain intervals) are merged and meet no piece but a Cantor piece, which
    goes only under a single solid; points meet no other piece; co-thin
    intervals meet no other co-thin interval.  Other pieces may overlap: a
    Cantor piece, a sequence, rationals, a co-thin interval.  A set expression
    node that _normal returns unchanged; to_expr() prints it as a tree of
    atoms, for normalize() and text only."""

    pieces: tuple[Piece, ...]

    def tester(self) -> Callable[[Q], bool]:
        return _any_of([piece_tester(p) for p in self.pieces])

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
        return _tail_clip(b, a)
    if ta is RationalsIn:
        if tb is CantorAffine:
            raise UnsupportedIntersection("rationals ∩ Cantor image is outside the algebra")
        if tb is Sequence:
            return _tail_clip(b, a.iv)  # sequence values are rational
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
        if a.limit == b.limit:
            raise UnsupportedIntersection("sequence and family share an accumulation point")
        return _finite_meet(a, b, "sequence tail does not reduce to finitely many values here")
    if a.limit == b.limit and tail_info(a).side == tail_info(b).side:
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
    for piece in _tail_clip(b, window):
        if isinstance(piece.core, Sequence):
            raise AssertionError("a sequence tail cannot accumulate away from its limit")
        shared.update(v for v in piece.core.points if in_a(v))
    for piece in _outside(a, [(window.low, window.high)]):
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
    """Pieces of a \\ b for core atoms.  An interval b, or points, clip a to
    the gaps around them (_outside).  On an interval, rationals or family
    core, any other b (but a family tail, on a family core) is reduced as a
    removal (_reduce_removal_piece)."""
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
        return _outside(a, [(b.low, b.high)])
    if ta is RationalsIn and tb is RationalsIn:
        return _core_subtract(a, b.iv)
    if ta is Interval or ta is RationalsIn or (ta is IntervalFamily and tb is not IntervalFamily):
        return _reduce_removal_piece(a, (b,))
    if tb is FinitePoints:
        return _outside(a, _point_holes(a, b.points))
    if tb is RationalsIn:
        if ta is CantorAffine:
            if _iv_disjoint(a.box(), b.box()):
                return [Piece(a, ())]
            raise UnsupportedIntersection("Cantor image minus rationals is outside the algebra")
        return _core_subtract(a, b.iv)  # every member of a is rational
    if tb is CantorAffine:
        if ta is CantorAffine and (a.offset, a.scale) == (b.offset, b.scale):
            return _core_subtract(a, b.box())
        raise UnsupportedIntersection("difference with a Cantor image is outside the algebra")
    if tb is Sequence:
        if ta is Sequence:
            if a.term == b.term:
                return [Piece(m, ()) for m in _members(a, b.start)]
            return _outside(a, _point_holes(a, _seq_shared_values(a, b)))
        if _iv_disjoint(a.box(), b.box()):
            return [Piece(a, ())]
        raise UnsupportedIntersection("difference with a sequence is outside the algebra")
    if tb is IntervalFamily:  # b is a canonical tail
        if ta is IntervalFamily and a._replace(start=b.start) == b:
            return [Piece(m, ()) for m in _members(a, b.start)]
        if _iv_disjoint(a.box(), b.box()):
            return [Piece(a, ())]
        if ta is Sequence:
            raise UnsupportedIntersection("sequence minus an overlapping family tail")
        raise UnsupportedIntersection("thin atom minus family tail is outside the algebra")
    raise AssertionError(f"unhandled difference {ta} \\ {tb}")


def _outside(core: SetExpr, holes: list[tuple]) -> list[Piece]:
    """Pieces of core outside the holes, (low, high) pairs of cuts sorted by
    low, a point p being ((0, p, False), (0, p, True)): the core clipped to
    each gap between them.  A hole within an earlier one leaves no gap."""
    if not holes:
        return [Piece(core, ())]
    out, low = [], CUT_BOTTOM
    for h_low, h_high in [*holes, (CUT_TOP, CUT_TOP)]:
        out += _core_intersect(core, between(low, h_low))
        low = max(low, h_high)
    return out


def _point_holes(core: SetExpr, pts) -> list[tuple]:
    """The holes (see _outside) of the points of pts that the core holds."""
    inside = core.tester() if pts else _never
    return [((0, p, False), (0, p, True)) for p in pts if inside(p)]


def _piece_intersect(p1: Piece, p2: Piece) -> list[Piece]:
    base = _core_intersect(p1.core, p2.core)
    return _attach_removals(base, _merge_removals(p1.removals, p2.removals))


def _piece_subtract(p1: Piece, p2: Piece) -> list[Piece]:
    # x in result iff x in p1 and (x not in core2 or x in some removal of p2)
    out = _attach_removals(_core_subtract(p1.core, p2.core), p1.removals)
    common = _attach_removals(_core_intersect(p1.core, p2.core), p1.removals) if p2.removals else []
    for r in p2.removals:
        for q in common:
            out.extend(_attach_removals(_core_intersect(q.core, r), q.removals))
    return out


# --- canonical unions ---------------------------------------------------------


def _canonical_union(pieces: list[Piece]) -> Normal:
    """The normal form of the union of the pieces: flatten, cover, finish
    (see the module docstring)."""
    solids: list[Interval] = []
    rest: list[Piece] = []
    pts: set[Q] = set()

    def file(p: Piece) -> None:
        """File a piece whose tails are canonical as a solid, as points or
        in the rest, reducing the removals of an interval, rationals or family core."""
        core = p.core
        if isinstance(core, FinitePoints):
            removed = _any_of([r.tester() for r in p.removals])
            pts.update(x for x in core.points if not removed(x))
        elif isinstance(core, (Interval, RationalsIn, IntervalFamily)):
            reduced = _reduce_removal_piece(core, p.removals) if p.removals else [p]
            if not (len(reduced) == 1 and reduced[0].core == core):
                for q in reduced:
                    file(q)
            elif isinstance(core, Interval) and not reduced[0].removals:
                solids.append(core)
            else:
                rest.append(reduced[0])
        elif isinstance(core, (CantorAffine, Sequence)):
            # Cantor and sequence cores lose their removals here, so the piece
            # stands for the whole atom: a known defect, pinned by strict
            # xfails in tests/test_sets.py.
            rest.append(Piece(core, ()))
        elif not isinstance(core, EmptySet):
            raise AssertionError(f"unexpected piece core {core!r}")

    # flatten
    work = list(pieces)
    while work:
        p = work.pop()
        if isinstance(p.core, _Tail):
            head, tail, _ = _resolve(p.core)
            if tail != p.core:
                work.extend(Piece(h.core, _merge_removals(h.removals, p.removals)) for h in head)
                if tail is not None:
                    work.append(Piece(tail, p.removals))
                continue
        file(p)

    # cover: the parts of the rest are filed again, and a plain interval split
    # off a piece joins the cover.  Parts are cut from the rest and never added
    # to it, and a round runs again only when the last one moved a nonempty
    # part of the rest into the cover.  The first round runs even with no
    # solid: reading a tail's box refuses a first member past the exact budget.
    cover: list[Interval] = []
    while True:
        cover = merge_intervals(cover + solids)
        solids, pieces, rest = [], rest, []
        for p in pieces:
            if not isinstance(p.core, CantorAffine):
                for q in _minus_cover(p.core, cover):
                    file(Piece(q.core, p.removals))
            elif not any(_iv_covers(s, p.core.box()) for s in cover):
                rest.append(p)  # a Cantor piece goes only under a single solid
        if not solids:
            break
    # plain rationals also cover sequences, whose members are rational
    plain = merge_intervals([p.core.iv for p in rest if isinstance(p.core, RationalsIn) and not p.removals])
    seqs = [p for p in rest if isinstance(p.core, Sequence)]
    rest = [p for p in rest if not isinstance(p.core, Sequence)]
    for p in seqs:
        for q in _minus_cover(p.core, plain):
            file(q)

    # finish: distinct family tails must not share an accumulation side
    fams = [p for p in rest if isinstance(p.core, IntervalFamily)]
    for i, f1 in enumerate(fams):
        for f2 in fams[i + 1 :]:
            i1, i2 = tail_info(f1.core), tail_info(f2.core)
            if i1.limit == i2.limit and i1.side == i2.side and f1.core != f2.core:
                raise UnsupportedIntersection("two family tails accumulate on the same side")
    co_thin = sorted((p for p in rest if isinstance(p.core, Interval)), key=_piece_rank)
    for i, p1 in enumerate(co_thin):
        for p2 in co_thin[i + 1 :]:
            if not _iv_disjoint(p1.core, p2.core) and p1.removals != p2.removals:
                raise UnsupportedIntersection("overlapping co-thin regions with different removals")
    out: list[Piece] = []
    for p in co_thin:
        if out and out[-1].removals == p.removals and _iv_mergeable(out[-1].core, p.core):
            out[-1] = Piece(_iv_hull(out[-1].core, p.core), p.removals)
        else:
            out.append(p)
    for fp in fams:
        for rp in out:
            if not _iv_disjoint(fp.core.box(), rp.core):
                raise UnsupportedIntersection("family tail overlaps a co-thin region")
    for p in rest:  # of equal pieces, only Cantor pieces are deduped
        plain_rational = isinstance(p.core, RationalsIn) and not p.removals
        if not (isinstance(p.core, Interval) or plain_rational or isinstance(p.core, CantorAffine) and p in out):
            out.append(p)

    # points: drop covered ones, then close the open ends they touch
    # ([a,b) + {b} -> [a,b]) of solids and of plain rational pieces
    if pts:
        others = out + [Piece(s, ()) for s in cover] + [Piece(RationalsIn(iv), ()) for iv in plain]
        covered = _any_of([piece_tester(p) for p in others])
        pts = {x for x in pts if not covered(x)}
    if pts:
        cover = merge_intervals([_absorb_ends(s, pts) for s in cover])
    # a closed end can join two plain rational pieces: Q((0,1]) + Q((1,2))
    plain = merge_intervals([_absorb_ends(iv, pts) for iv in plain])
    out += [Piece(s, ()) for s in cover] + [Piece(RationalsIn(iv), ()) for iv in plain]
    if pts:
        out.append(Piece(FinitePoints(tuple(sorted(pts))), ()))
    return Normal(tuple(sorted(out, key=_piece_rank)))


def _minus_cover(core: SetExpr, cover: list[Interval]) -> list[Piece]:
    """The pieces of core outside the sorted, merged cover: the core clipped
    to the gaps between the cover's intervals that meet its box (_outside)."""
    box, holes = core.box(), []
    for c in cover:
        if c.low >= box.high:
            break
        if box.low < c.high:
            holes.append((c.low, c.high))
    return _outside(core, holes)


def _absorb_ends(iv: Interval, pts: set) -> Interval:
    """iv with each open end that is one of pts closed; those points leave pts."""
    lo_incl, hi_incl = iv.lo_incl or iv.lo in pts, iv.hi_incl or iv.hi in pts
    pts.difference_update((iv.lo, iv.hi))
    return Interval(iv.lo, iv.hi, lo_incl, hi_incl)


def _reduce_removal_piece(core: SetExpr, removals: tuple) -> list[Piece]:
    """The one place that reduces the removals of a core that keeps them: an
    interval, rationals or a family tail.  Each is clipped to the core's box
    (_core_intersect), and a family tail's members that the clip takes one
    by one turn solid.  The core is clipped to the gaps (_outside) between
    the solids (and rationals from rationals) and the points it holds, and
    the thin rest stays, removed rationals merged so that equal sets compare
    equal.  A family core is refused when its clipped removals hold a solid
    and a family tail on its own limit and side: the solid cuts its tail,
    and each shorter tail could be cut again."""
    box = core.box()
    clipped = [part.core for r in removals for part in _core_intersect(r, box)]
    cut = isinstance(core, IntervalFamily) and any(isinstance(r, Interval) for r in clipped)
    if cut and any(isinstance(r, IntervalFamily) and tail_info(r)[:2] == tail_info(core)[:2] for r in clipped):
        raise UnsupportedIntersection("family tails interleave; not reducible")  # [:2]: limit and side
    rats = [RationalsIn(iv) for iv in merge_intervals([r.iv for r in clipped if isinstance(r, RationalsIn)])]
    cleaned = {r for r in clipped if not isinstance(r, RationalsIn)}.union(rats)
    pts = {p for r in cleaned if isinstance(r, FinitePoints) for p in r.points}
    exact = (Interval, RationalsIn) if isinstance(core, RationalsIn) else (Interval,)
    holes = [(r.box().low, r.box().high) for r in cleaned if isinstance(r, exact)] + _point_holes(core, pts)
    thin = tuple(r for r in cleaned if not isinstance(r, (FinitePoints, *exact)))
    return _attach_removals(_outside(core, sorted(holes)), thin)


# --- normalization entry points -----------------------------------------------


@lru_cache(maxsize=None)
def _normal_or_refusal(expr: SetExpr) -> Normal | str:
    """The one memo of normalization: the normal form of expr, or the
    message of its refusal, so that a refused tree is not normalized again.
    The message is kept rather than the exception, which would gather
    traceback frames on every re-raise."""
    try:
        return _normal_of(expr)
    except UnsupportedIntersection as exc:
        return str(exc)


def _normal(expr: SetExpr) -> Normal:
    """The normal form of expr; a Normal is returned at once, unhashed."""
    if isinstance(expr, Normal):
        return expr
    out = _normal_or_refusal(expr)
    if isinstance(out, str):
        raise UnsupportedIntersection(out)
    return out


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
    """The normal form printed as a tree of atoms, for the public API; the
    package itself passes the Normal of _normal on."""
    return _normal(expr).to_expr()


# A bound keeps the table from growing with the requests (ROADMAP item 3).
# A set query asks about one set; a decomposition check about f's domain and
# guards, g's union and h's clipped parts, at most 17 in 6,000 benchmark
# requests.  h's parts are not capped, so a larger check can evict f's
# guards: that costs rebuilds, never answers.
@lru_cache(maxsize=32)
def membership(expr: SetExpr) -> Callable[[Q], bool]:
    """Exact membership test of expr on rationals, resolved once and cached,
    keyed by expression, for the last 32 sets: the testers of the normal
    form's pieces.  A tree that is refused is tested by its own tester()
    instead: a union tries its arguments in order, an intersection needs all
    of them in order, a difference tests its left side and then its right,
    and a sequence or family resolves on the first point that reaches it.  A
    resolution that refuses raises the same UnsupportedIntersection at each
    point that reaches the atom, from a cached test too."""
    try:
        normal = _normal(expr)
    except UnsupportedIntersection:
        return expr.tester()
    return normal.tester()


def contains(expr: SetExpr, x) -> bool:
    """Exact membership by the cached test of membership(expr).  A tree that
    does not normalize is tested node by node, so a union can still answer;
    the test raises UnsupportedIntersection only when the point reaches an
    atom that cannot be resolved, such as a sequence whose head is too large
    to materialize."""
    return membership(expr)(Q(x))


# --- local traces --------------------------------------------------------------


def punctured_window(a, delta) -> SetExpr:
    a, delta = Q(a), Q(delta)
    return Union((Interval(a - delta, a, False, False), Interval(a, a + delta, False, False)))


def window_trace(expr: SetExpr, a, delta) -> Normal:
    """The normal form of expr ∩ ((a - delta, a + delta) minus {a}): the set
    a limit type asks to be small, whose pieces the analyzers read."""
    if Q(delta) <= 0:
        raise RangeError("window radius must be positive")
    return _normal(Intersection((expr, punctured_window(a, delta))))


# --- accumulation structure at a point ------------------------------------------


def _removed_around(piece: Piece, a: Q) -> Q | None:
    """Distance from a to the edges of a removed family member that holds a
    strictly inside, if one does."""
    for r in piece.removals:
        if isinstance(r, IntervalFamily):
            m = member_at(r, tail_info(r), a)
            member = None if m is None else r.member(m)
            if member is not None and member.lo < a < member.hi:
                return min(a - member.lo, member.hi - a)
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
