"""Six-way limit checking for piecewise functions.

A value L is a limit of type t at a when, for every eps > 0, some punctured
window makes the exceptional set {x : |f(x) - L| >= eps} "small" in the
sense of t: empty (T1), zero-density (T2), finite (T3), without
accumulation points (T4), countable (T5), or of measure zero (T6).

Whether some window works depends only on the *germ* of the exceptional set
at a, and for a piecewise polynomial f that germ is known without solving
for it.  On an effective region whose branch has p(a) = L, continuity keeps
|p - L| below any eps near a, so the region adds nothing to the germ.  On a
region with p(a) != L, every eps below |p(a) - L| keeps the whole region near
a.  So for eps below the smallest nonzero gap the germ is the union of the
germs of the regions with p(a) != L, and it only shrinks as eps grows.  Each
notion of small holds for a finite union exactly when it holds for every
part.  Hence L is a type-t limit exactly when every region with p(a) != L
has a t-small germ at a: one table of (p(a), small) per region decides
every candidate L, with no eps bands and no root isolation.

One walk over the eps bands up to the largest gap, `_bands`, is the only
place that needs root isolation.  At each test eps it isolates every
region's superlevel set once and yields the parts region ∩ outer sandwich
side, with a witness radius delta read from their union, or, when the union
cannot be normalized, from each part, the smallest radius serving.  A `pass`
from `check` carries these (eps, delta) witnesses; `decompose` clips the
parts of the smallest eps to the smallest witness radius.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._record import record
from .analyzers import density_at
from .errors import UndecidableDensity, UnsupportedIntersection
from .functions import PiecewiseFn, effective_regions, isolate_superlevel
from .sets import (
    COUNTABLE_KINDS,
    NULL_KINDS,
    Intersection,
    Normal,
    SetExpr,
    Union,
    _normal,
    piece_reaches,
    vanish_radius,
)

Q = Fraction


class LimitType(enum.Enum):
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    T4 = "t4"
    T5 = "t5"
    T6 = "t6"


# strictly increasing tolerance: passing an earlier group implies passing
# every later one (the first three are mutually equivalent)
CHAIN = ((LimitType.T1, LimitType.T3, LimitType.T4), (LimitType.T5,), (LimitType.T6,), (LimitType.T2,))


@record
class Verdict:
    status: str  # 'pass' | 'fail' | 'undecidable'
    witness: tuple[tuple[Q, Q], ...] = ()  # (eps, delta) per tested band
    evidence: str = ""

    def passed(self) -> bool:
        return self.status == "pass"

    def failed(self) -> bool:
        return self.status == "fail"


@record
class TypeOutcome:
    exists: str  # 'yes' | 'no' | 'undecidable'
    value: Q | None


@record
class LimitReport:
    point: Q
    outcomes: dict
    chain_consistent: bool
    candidates: tuple[Q, ...]
    matrix: dict  # (LimitType, candidate) -> status string


def candidates(f: PiecewiseFn, a) -> tuple[Q, ...]:
    """Values the branch polynomials take at a; the only possible limits."""
    a = Q(a)
    vals = {p(a) for _, p in f.branches}
    vals.add(f.default(a))
    return tuple(sorted(vals))


# atom kinds a small germ may contain, by limit type (T2 is decided by density)
_SMALL_KINDS = {LimitType.T5: COUNTABLE_KINDS, LimitType.T6: NULL_KINDS}


def _reaching_kinds(expr: SetExpr, a: Q) -> set[str]:
    kinds = set()
    for piece in _normal(expr).pieces:
        if piece_reaches(piece, a):
            kinds.add(piece.core.germ_kind(a))
    return kinds


def _germ_small(expr: SetExpr, a: Q, t: LimitType) -> bool | None:
    """Is the germ of expr at a small in the sense of t?  None: undecidable."""
    if t is LimitType.T2:
        try:
            return density_at(expr, a).is_zero()
        except UndecidableDensity:
            return None
    return _reaching_kinds(expr, a) <= _SMALL_KINDS.get(t, frozenset())


def _witness_delta(normal: Normal, a: Q, t: LimitType) -> Q | None:
    """A concrete radius at which the trace of the set is t-small."""
    if t is LimitType.T2:
        return Q(1)
    allowed = _SMALL_KINDS.get(t, frozenset())
    blockers = tuple(p for p in normal.pieces if p.core.germ_kind(a) not in allowed)
    return vanish_radius(blockers, a)


def _test_epsilons(regions, a: Q, L: Q) -> list[Q]:
    gaps = sorted({abs(p(a) - L) for _, p in regions} - {Q(0)})
    if not gaps:
        return [Q(1)]
    tests = [gaps[0] / 2]
    for i, g in enumerate(gaps):
        tests.append(g)
        if i + 1 < len(gaps):
            tests.append((g + gaps[i + 1]) / 2)
    return tests


def _germ_fact(read, *args):
    """read(*args), or the reason the set algebra or the density rules cannot give it."""
    try:
        fact = read(*args)
    except UnsupportedIntersection as exc:
        return f"set algebra: {exc}"
    return "density asymptotics outside the rule table" if fact is None else fact


def _region_germs(f: PiecewiseFn, a: Q, types) -> tuple[tuple, tuple]:
    """The effective regions of f, and for each type in types one (p(a), small)
    row per region: small is whether the region's germ at a is t-small, or the
    reason that is unknown.  A region's reaching kinds are read once if a type
    other than T2 is asked, and its density once if T2 is."""
    try:
        regions = effective_regions(f)
    except UnsupportedIntersection as exc:
        return (), tuple(((None, f"set algebra: {exc}"),) for _ in types)  # one region of unknown value
    rows = tuple([] for _ in types)
    for region, p in regions:
        value = p(a)
        kinds = _germ_fact(_reaching_kinds, region, a) if set(types) - {LimitType.T2} else None
        zero = _germ_fact(_germ_small, region, a, LimitType.T2) if LimitType.T2 in types else None
        for t, row in zip(types, rows):
            fact = zero if t is LimitType.T2 else kinds
            row.append((value, fact <= _SMALL_KINDS.get(t, frozenset()) if isinstance(fact, set) else fact))
    return regions, tuple(map(tuple, rows))


def _status(germs, L: Q) -> tuple[str, str]:
    """('fail', '') if a region with p(a) != L is not small, ('undecidable',
    the first unknown region's reason) if one is unknown, ('pass', '') else."""
    smalls = [small for value, small in germs if value != L]
    if any(small is False for small in smalls):
        return "fail", ""
    unknown = [small for small in smalls if small is not True]
    return ("undecidable", unknown[0]) if unknown else ("pass", "")


def _bands(regions, a: Q, L: Q, t: LimitType):
    """Yield (eps, delta, parts) for each test eps, in increasing eps.

    parts holds region ∩ outer, the outer sandwich side of the region's
    superlevel set, for every effective region.  delta is the witness radius
    of their union, or, when the union cannot be normalized, the smallest
    radius serving every part; None when a part reaches a.
    """
    for eps in _test_epsilons(regions, a, L):
        parts = tuple(Intersection((region, isolate_superlevel(p, L, eps).outer)) for region, p in regions)
        try:
            delta = _witness_delta(_normal(Union(parts)), a, t)
        except UnsupportedIntersection:
            deltas = [_witness_delta(_normal(part), a, t) for part in parts]
            delta = None if None in deltas else min(deltas)
        yield eps, delta, parts


def check(f: PiecewiseFn, a, L, t: LimitType) -> Verdict:
    """Decide whether L is a limit of type t for f at a."""
    a, L = Q(a), Q(L)
    regions, (germs,) = _region_germs(f, a, (t,))
    return _verdict(regions, germs, a, L, t)[0]


def _verdict(regions, germs, a: Q, L: Q, t: LimitType):
    """check's verdict from the regions and their type-t rows, with the smallest eps's parts of a pass."""
    status, reason = _status(germs, L)
    if status == "undecidable":
        return Verdict("undecidable", evidence=reason), ()
    if status == "fail":
        evidence = f"the exceptional set stays non-{_small_name(t)} in every window"
        return Verdict("fail", evidence=f"eps={_test_epsilons(regions, a, L)[0]}: {evidence}"), ()
    witness, first = [], ()
    try:
        for eps, delta, parts in _bands(regions, a, L, t):
            if delta is None:
                # the germ is small, but a root enclosure of the sandwich reaches a
                return Verdict("undecidable", evidence=f"eps={eps}: sandwich sides disagree at the point"), ()
            witness.append((eps, delta))
            first = first or parts
    except UnsupportedIntersection as exc:
        return Verdict("undecidable", evidence=f"set algebra: {exc}"), ()
    return Verdict("pass", witness=tuple(witness)), first


def _small_name(t: LimitType) -> str:
    return {
        LimitType.T1: "empty",
        LimitType.T2: "zero-density",
        LimitType.T3: "finite",
        LimitType.T4: "isolated",
        LimitType.T5: "countable",
        LimitType.T6: "null",
    }[t]


def classify(f: PiecewiseFn, a) -> LimitReport:
    """Read every type over every candidate value from one region table.

    The types of one CHAIN group are equivalent, so each group is decided
    once and its result stands for all of its types.  When nothing passes,
    two distinct values of non-small regions rule out every limit value.
    """
    a = Q(a)
    cands = candidates(f, a)
    _, tables = _region_germs(f, a, tuple(group[0] for group in CHAIN))
    statuses = {}  # per type, one status per candidate
    outcomes = {}
    for group, germs in zip(CHAIN, tables):
        status = [_status(germs, L)[0] for L in cands]
        if "pass" in status:
            outcome = TypeOutcome("yes", cands[status.index("pass")])
        elif "undecidable" in status:
            outcome = TypeOutcome("undecidable", None)
        else:
            persistent = {value for value, small in germs if small is False}
            outcome = TypeOutcome("no" if len(persistent) >= 2 else "undecidable", None)
        for member in group:
            statuses[member] = status
            outcomes[member] = outcome
    matrix = {(t, L): s for t in LimitType for L, s in zip(cands, statuses[t])}
    outcomes = {t: outcomes[t] for t in LimitType}
    return LimitReport(a, outcomes, _chain_consistent([statuses[group[0]] for group in CHAIN]), cands, matrix)


def _chain_consistent(statuses) -> bool:
    """Passing a stronger group must propagate to every weaker group, candidate by candidate."""
    for i, stronger in enumerate(statuses):
        for weaker in statuses[i + 1 :]:
            if any(s == "pass" and w == "fail" for s, w in zip(stronger, weaker)):
                return False
    return True


def uniqueness_precondition(domain: SetExpr, a, t: LimitType) -> bool:
    """Whether type-t limits over this domain are necessarily unique at a.

    T5: every punctured window around a must be uncountable; T6: every
    punctured window must have positive measure.
    """
    if t not in (LimitType.T5, LimitType.T6):
        raise ValueError("uniqueness characterization applies to T5 and T6 only")
    return _germ_small(domain, Q(a), t) is False
