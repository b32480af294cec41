"""Six-way limit checking for piecewise functions.

A value L is a limit of type t at a when, for every eps > 0, some punctured
window makes the exceptional set {x : |f(x) - L| >= eps} "small" in the
sense of t: empty (T1), zero-density (T2), finite (T3), without
accumulation points (T4), countable (T5), or of measure zero (T6).

The checker reduces the universal eps-quantifier to finitely many tests:
the structure of the exceptional set near a only changes at the thresholds
|p(a) - L| over the branch polynomials, so one representative inside each
band plus the thresholds themselves decide every eps.  For each test the
engine classifies the *germ* of the exceptional set at a - which pieces of
its normal form accumulate at a - and certifies Pass on the outer sandwich
side, Fail on the inner side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .analyzers import density_at
from .errors import UndecidableDensity, UnsupportedIntersection
from .functions import PiecewiseFn, SandwichSet, effective_regions, superlevel_sandwich
from .sets import (
    COUNTABLE_KINDS,
    NULL_KINDS,
    Interval,
    IntervalFamily,
    Piece,
    SetExpr,
    _normal,
    family_tail_info,
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


@dataclass(frozen=True)
class Verdict:
    status: str  # 'pass' | 'fail' | 'undecidable'
    witness: tuple[tuple[Q, Q], ...] = ()  # (eps, delta) per tested band
    evidence: str = ""

    def passed(self) -> bool:
        return self.status == "pass"

    def failed(self) -> bool:
        return self.status == "fail"


@dataclass(frozen=True)
class TypeOutcome:
    exists: str  # 'yes' | 'no' | 'undecidable'
    value: Q | None


@dataclass(frozen=True)
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


@lru_cache(maxsize=None)
def _carrier(f: PiecewiseFn, L: Q, eps: Q) -> SandwichSet:
    """Sandwich of {x in domain : |f(x) - L| >= eps} (no window applied)."""
    return superlevel_sandwich(f, L, eps)


# atom kinds a small germ may contain, by limit type (T2 is decided by density)
_SMALL_KINDS = {LimitType.T5: COUNTABLE_KINDS, LimitType.T6: NULL_KINDS}


def _piece_kind(piece: Piece, a: Q) -> str:
    """Kind of the piece's germ at a: a family tail reaches any point other
    than its limit through one member, like an interval."""
    core = piece.core
    if isinstance(core, IntervalFamily) and family_tail_info(core).limit != a:
        return Interval.kind
    return core.kind


def _reaching_kinds(expr: SetExpr, a: Q) -> set[str]:
    kinds = set()
    for piece in _normal(expr).pieces:
        if piece_reaches(piece, a):
            kinds.add(_piece_kind(piece, a))
    return kinds


def _germ_small(expr: SetExpr, a: Q, t: LimitType) -> bool | None:
    """Is the germ of expr at a small in the sense of t?  None: undecidable."""
    if t is LimitType.T2:
        try:
            return density_at(expr, a).is_zero()
        except UndecidableDensity:
            return None
    return _reaching_kinds(expr, a) <= _SMALL_KINDS.get(t, frozenset())


def _witness_delta(expr: SetExpr, a: Q, t: LimitType) -> Q | None:
    """A concrete radius at which the trace of expr is t-small."""
    if t is LimitType.T2:
        return Q(1)
    allowed = _SMALL_KINDS.get(t, frozenset())
    blockers = tuple(
        p for p in _normal(expr).pieces if _piece_kind(p, a) not in allowed
    )
    return vanish_radius(blockers, a)


def _test_epsilons(f: PiecewiseFn, a: Q, L: Q) -> list[Q]:
    gaps = sorted({abs(p(a) - L) for _, p in effective_regions(f)} - {Q(0)})
    if not gaps:
        return [Q(1)]
    tests = [gaps[0] / 2]
    for i, g in enumerate(gaps):
        tests.append(g)
        if i + 1 < len(gaps):
            tests.append((g + gaps[i + 1]) / 2)
    return tests


def check(f: PiecewiseFn, a, L, t: LimitType) -> Verdict:
    """Decide whether L is a limit of type t for f at a."""
    a, L = Q(a), Q(L)
    witness = []
    try:
        eps_tests = _test_epsilons(f, a, L)
        for eps in eps_tests:
            carrier = _carrier(f, L, eps)
            inner_small = _germ_small(carrier.inner, a, t)
            if inner_small is False:
                return Verdict(
                    "fail",
                    evidence=f"eps={eps}: the exceptional set stays non-{_small_name(t)} "
                    "in every window",
                )
            outer_small = _germ_small(carrier.outer, a, t)
            if outer_small is True:
                delta = _witness_delta(carrier.outer, a, t)
                witness.append((eps, delta if delta is not None else Q(1)))
                continue
            reason = (
                "density asymptotics outside the rule table"
                if outer_small is None or inner_small is None
                else f"sandwich sides disagree (gap {carrier.gap})"
            )
            return Verdict("undecidable", evidence=f"eps={eps}: {reason}")
        return Verdict("pass", witness=tuple(witness))
    except UnsupportedIntersection as exc:
        return Verdict("undecidable", evidence=f"set algebra: {exc}")


def _small_name(t: LimitType) -> str:
    return {
        LimitType.T1: "empty",
        LimitType.T2: "zero-density",
        LimitType.T3: "finite",
        LimitType.T4: "isolated",
        LimitType.T5: "countable",
        LimitType.T6: "null",
    }[t]


def _persistent_values(f: PiecewiseFn, a: Q, t: LimitType) -> set[Q]:
    """Branch values whose carrying regions are non-small arbitrarily close
    to a; two distinct ones rule out every limit value of type t."""
    values = set()
    for region, p in effective_regions(f):
        small = _germ_small(region, a, t)
        if small is False:
            values.add(p(a))
    return values


def classify(f: PiecewiseFn, a) -> LimitReport:
    """Run every type over every candidate value and assemble the report.

    The types of one CHAIN group are equivalent, so each group is checked
    once and its result stands for all of its types.
    """
    a = Q(a)
    cands = candidates(f, a)
    statuses = {}
    outcomes = {}
    for group in CHAIN:
        t = group[0]
        status = {L: check(f, a, L, t).status for L in cands}
        passing = [L for L in cands if status[L] == "pass"]
        if passing:
            outcome = TypeOutcome("yes", passing[0])
        elif "undecidable" in status.values():
            outcome = TypeOutcome("undecidable", None)
        else:
            try:
                persistent = _persistent_values(f, a, t)
            except UnsupportedIntersection:
                persistent = set()
            outcome = TypeOutcome("no" if len(persistent) >= 2 else "undecidable", None)
        for member in group:
            statuses[member] = status
            outcomes[member] = outcome
    matrix = {(t, L): statuses[t][L] for t in LimitType for L in cands}
    outcomes = {t: outcomes[t] for t in LimitType}
    chain_ok = _chain_consistent(matrix, cands)
    return LimitReport(a, outcomes, chain_ok, cands, matrix)


def _chain_consistent(matrix, cands) -> bool:
    """Passing a stronger group must propagate to every weaker group."""
    for L in cands:
        for i, stronger in enumerate(CHAIN):
            for weaker in CHAIN[i + 1 :]:
                if matrix[(stronger[0], L)] == "pass" and matrix[(weaker[0], L)] == "fail":
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
