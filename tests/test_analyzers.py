import random
from fractions import Fraction as Q

import pytest

from limitlab.analyzers import (
    cardinality,
    density_at,
    family_tail_measure,
    has_no_accumulation_point,
    measure,
)
from limitlab.errors import UndecidableDensity, UnsupportedIntersection
from limitlab.sets import (
    FULL_LINE,
    Difference,
    Intersection,
    Union,
    cantor_affine,
    contains,
    family,
    interval,
    open_interval,
    points,
    rationals_in,
    sequence,
    window_trace,
)
from limitlab.terms import Term

from conftest import rand_set_expr, sample_rats


# --- measure ---------------------------------------------------------------


def test_measure_interval_union():
    m = measure(Union((interval(0, 1), interval(2, 3))))
    assert m.value == 2 and m.exact


def test_measure_cantor_zero():
    m = measure(cantor_affine(0, 1))
    assert m.value == 0 and m.exact


def test_measure_omega_exact(omega_set):
    m = measure(omega_set)
    assert m.exact
    assert 0 < m.value <= 1
    assert m.value == Q(69, 80)


def test_measure_omega_against_materialized_oracle(omega_set):
    # independent check: materialize the first 64 members exactly, merge,
    # and bound the remaining tail by its geometric series
    members = []
    for n in range(1, 65):
        lo = Q(1, n) - Q(1, 2**n)
        hi = Q(1, n)
        members.append((lo, hi))
    members.sort()
    merged = []
    for lo, hi in members:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    explicit = sum(hi - lo for lo, hi in merged)
    tail_hi = Q(1, 2**64)  # sum_{n>=65} 2^-n
    m = measure(omega_set)
    assert explicit <= m.value <= explicit + tail_hi


def test_measure_subadditive_random():
    rng = random.Random(41)
    done = 0
    for _ in range(60):
        a = rand_set_expr(rng, 1)
        b = rand_set_expr(rng, 1)
        try:
            ma, mb = measure(a), measure(b)
            mu = measure(Union((a, b)))
        except UnsupportedIntersection:
            continue
        if ma.infinite or mb.infinite or mu.infinite:
            continue
        assert mu.value <= ma.value + mb.value + ma.bound_gap + mb.bound_gap + mu.bound_gap
        done += 1
    assert done >= 25


def test_family_tail_measure_geometric_exact(omega_set):
    lo, hi = family_tail_measure(omega_set)
    # whole-family atom resolves before tail measurement; build a tail directly
    from limitlab.sets import _resolve

    _, tail, _ = _resolve(omega_set)
    t_lo, t_hi = family_tail_measure(tail)
    assert t_lo == t_hi  # purely geometric widths sum exactly


def test_measure_unbounded_flagged():
    m = measure(FULL_LINE)
    assert m.infinite


# --- cardinality ----------------------------------------------------------------


def test_cardinality_examples(cantor_set):
    assert cardinality(window_trace(cantor_set, 0, Q(1, 2))).kind == "uncountable"
    c = cardinality(window_trace(points(1, 2, 3), 0, 10))
    assert c.kind == "finite" and c.count == 3
    assert cardinality(window_trace(rationals_in(open_interval(-1, 1)), 0, 1)).kind == "countably_infinite"


def test_cardinality_family_tail_uncountable(omega_set):
    assert cardinality(window_trace(omega_set, 0, Q(1, 100))).kind == "uncountable"


def test_cardinality_empty():
    assert cardinality(window_trace(points(5), 0, 1)).kind == "empty"


def test_countable_trace_has_zero_measure_random():
    rng = random.Random(43)
    done = 0
    for _ in range(80):
        expr = rand_set_expr(rng, 1)
        a = rng.choice((Q(0), Q(1, 2)))
        try:
            tr = window_trace(expr, a, Q(1))
        except UnsupportedIntersection:
            continue
        card = cardinality(tr)
        if card.kind in ("empty", "finite", "countably_infinite"):
            m = measure(tr)
            assert m.value == 0 and m.bound_gap == 0
            done += 1
    assert done >= 20


# --- accumulation ---------------------------------------------------------------


def test_accumulation_examples():
    assert has_no_accumulation_point(window_trace(points(1, 2), 0, 10))
    s = sequence(Term.power(1, 1))
    assert not has_no_accumulation_point(window_trace(s, 0, 1))
    assert not has_no_accumulation_point(window_trace(interval(0, 1), Q(1, 2), Q(1, 4)))


def test_no_accumulation_implies_finite_random():
    rng = random.Random(47)
    done = 0
    for _ in range(80):
        expr = rand_set_expr(rng, 2)
        a = rng.choice((Q(0), Q(1, 2), Q(-1, 3)))
        try:
            tr = window_trace(expr, a, Q(1, 2))
        except UnsupportedIntersection:
            continue
        if has_no_accumulation_point(tr):
            assert cardinality(tr).kind in ("empty", "finite")
            done += 1
    assert done >= 10


# --- density ---------------------------------------------------------------------


def test_density_examples(omega_set, cantor_set):
    assert density_at(omega_set, 0).is_zero()
    v = density_at(interval(0, 1), 0)
    assert v.kind == "value" and v.value == Q(1, 2)
    assert density_at(cantor_set, 0).is_zero()


def test_density_interior_and_outside():
    assert density_at(interval(0, 1), Q(1, 2)).value == 1
    assert density_at(interval(0, 1), 5).is_zero()


def test_density_of_family_complement(omega_set):
    v = density_at(Difference(FULL_LINE, omega_set), 0)
    assert v.kind == "value" and v.value == 1


def test_density_value_in_unit_range_random():
    rng = random.Random(53)
    for _ in range(80):
        expr = rand_set_expr(rng, 2)
        a = rng.choice((Q(0), Q(1, 2), Q(-1, 3)))
        try:
            v = density_at(expr, a)
        except (UnsupportedIntersection, UndecidableDensity):
            continue
        if v.kind == "value":
            assert 0 <= v.value <= 1
        if v.kind == "positive":
            assert v.lower_bound > 0


def test_measure_zero_sets_have_zero_density_everywhere():
    rng = random.Random(59)
    pts = [Q(0), Q(1, 2), Q(-1, 3), Q(1, 4)]
    done = 0
    for _ in range(60):
        expr = rand_set_expr(rng, 1)
        try:
            m = measure(expr)
        except UnsupportedIntersection:
            continue
        if m.infinite or m.value != 0 or m.bound_gap != 0:
            continue
        for a in pts:
            try:
                assert density_at(expr, a).is_zero()
            except UndecidableDensity:
                continue
        done += 1
    assert done >= 10


def test_density_rule_table_power_widths():
    # members [1/n - 1/(4n^3), 1/n): width order 3 > 2 -> zero density at 0
    hi = Term.power(1, 1)
    fam3 = family(hi - Term.make(pw=[(3, 0, Q(1, 4))]), hi)
    assert density_at(fam3, 0).is_zero()
    # width order exactly 2 -> positive liminf
    fam2 = family(hi - Term.make(pw=[(2, 0, Q(1, 4))]), hi)
    v = density_at(fam2, 0)
    assert v.kind == "positive" and v.lower_bound > 0


def test_refinement_bracket_holds_the_measure():
    # power-law widths only ever get certified bounds; the disjoint members
    # [1/n - 1/(4n^3), 1/n) have total length zeta(3)/4, and every bracket
    # must hold it, the finer target's no wider than the coarser one's
    hi = Term.power(1, 1)
    fam = family(hi - Term.make(pw=[(3, 0, Q(1, 4))]), hi)
    zeta3 = Q("1.202056903159594285399738161511449990764986292")  # rounded down
    coarse = measure(fam, target_gap=Q(1, 2**10))
    fine = measure(fam, target_gap=Q(1, 2**60))
    for m in (coarse, fine):
        assert m.bound_gap > 0
        assert m.value - m.bound_gap <= zeta3 / 4
        assert zeta3 / 4 + Q(1, 10**45) <= m.value + m.bound_gap
    assert fine.bound_gap <= coarse.bound_gap


def test_density_rule_table_geometric_positions():
    # members [(1/2)^n - (1/4)^n, (1/2)^n): width ratio smaller -> zero
    hi = Term.geometric(1, Q(1, 2))
    fam = family(hi - Term.geometric(1, Q(1, 4)), hi)
    assert density_at(fam, 0).is_zero()
    # same ratio widths -> positive liminf
    hi2 = Term.geometric(1, Q(1, 2))
    fam2 = family(hi2 - Term.geometric(Q(1, 8), Q(1, 2)), hi2)
    v = density_at(fam2, 0)
    assert v.kind == "positive" and v.lower_bound > 0
