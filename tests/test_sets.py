import random
from fractions import Fraction as Q

import pytest

from limitlab.dsl import parse_set
from limitlab.errors import UnsupportedIntersection
from limitlab.sets import (
    EMPTY,
    FULL_LINE,
    CantorAffine,
    Difference,
    EmptySet,
    FinitePoints,
    Intersection,
    Interval,
    RationalsIn,
    Sequence,
    Union,
    cantor_affine,
    cantor_meets_interval,
    contains,
    family,
    interval,
    normalize,
    open_interval,
    points,
    rationals_in,
    sequence,
    window_trace,
)
from limitlab.terms import Term

from conftest import rand_set_expr, sample_rats


def test_interval_clipping_example():
    e = normalize(Difference(interval(0, 2), open_interval(1, 3)))
    assert e == interval(0, 1)


def test_rationals_clip_example():
    e = normalize(Intersection((rationals_in(open_interval(0, 1)), interval(Q(1, 2), 2))))
    assert e == rationals_in(interval(Q(1, 2), 1, True, False))


def test_cantor_middle_third_empty():
    e = normalize(Intersection((cantor_affine(0, 1), open_interval(Q(1, 3), Q(2, 3)))))
    assert isinstance(e, EmptySet)


def test_degenerate_interval_normalization():
    assert interval(1, 1) == points(1)
    assert isinstance(interval(1, 1, True, False), EmptySet)
    assert isinstance(interval(2, 1), EmptySet)


def test_normalize_idempotent_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(160):
        expr = rand_set_expr(rng, depth=2)
        try:
            once = normalize(expr)
        except UnsupportedIntersection:
            continue
        assert normalize(once) == once
        checked += 1
    assert checked >= 80


def test_contains_agrees_with_normalize():
    rng = random.Random(13)
    pts = sample_rats(rng, 60)
    checked = 0
    for _ in range(120):
        expr = rand_set_expr(rng, depth=2)
        try:
            norm = normalize(expr)
        except UnsupportedIntersection:
            continue
        checked += 1
        for x in pts:
            assert contains(expr, x) == contains(norm, x), (expr, x)
    assert checked >= 60


def test_de_morgan_on_sampled_points():
    rng = random.Random(17)
    pts = sample_rats(rng, 1000)
    for _ in range(25):
        a = rand_set_expr(rng, 1)
        b = rand_set_expr(rng, 1)
        c = rand_set_expr(rng, 1)
        lhs = Difference(a, Union((b, c)))
        rhs = Intersection((Difference(a, b), Difference(a, c)))
        for x in pts[:40]:
            assert contains(lhs, x) == contains(rhs, x)


# --- membership -------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [
        (Q(1, 4), True),
        (Q(1, 2), False),
        (Q(1, 3), True),
        (Q(2, 3), True),
        (Q(3, 4), True),
        (Q(4, 9), False),
        (Q(0), True),
        (Q(1), True),
        (Q(7, 9), True),
        (Q(1, 5), False),
        (Q(3, 10), True),  # 0.0220 0220... repeating
    ],
)
def test_cantor_membership(x, expected):
    assert cantor_affine(0, 1).contains(x) is expected


def test_cantor_membership_affine():
    c = cantor_affine(1, Q(1, 2))  # {1 + v/2 : v in the unit Cantor set}
    assert contains(c, 1 + Q(1, 8))  # base point 1/4
    assert not contains(c, 1 + Q(1, 4))  # base point 1/2
    assert contains(c, Q(3, 2))  # base point 1
    neg = cantor_affine(0, -1)  # mirrored copy in [-1, 0]
    assert contains(neg, -Q(1, 4))
    assert not contains(neg, -Q(1, 2))


def test_rationals_membership():
    assert contains(rationals_in(open_interval(0, 1)), Q(1, 2))
    assert not contains(rationals_in(open_interval(0, 1)), Q(3, 2))


def test_sequence_membership():
    s = sequence(Term.power(1, 1))  # {1/n}
    assert contains(s, Q(1, 7))
    assert not contains(s, Q(2, 7))
    assert not contains(s, 0)


def test_family_membership(omega_set):
    assert contains(omega_set, Q(1, 2))
    assert contains(omega_set, Q(3, 4))
    assert not contains(omega_set, Q(167, 1000))
    assert not contains(omega_set, 0)
    assert contains(omega_set, Q(1, 64) - Q(1, 2**64) + Q(1, 2**65))


# --- cantor interval meets -----------------------------------------------------


def test_cantor_meets_examples():
    c = cantor_affine(0, 1)
    assert not cantor_meets_interval(c, Interval(Q(1, 3), Q(2, 3), False, False))
    assert cantor_meets_interval(c, Interval(Q(3, 10), Q(2, 5), False, False))
    for k in (1, 5, 20, 63):
        assert cantor_meets_interval(c, Interval(Q(0), Q(1, 2**k), False, False))


def test_cantor_meets_agrees_with_contains():
    rng = random.Random(23)
    c = cantor_affine(0, 1)
    probes = [Q(0), Q(1), Q(1, 4), Q(3, 4), Q(1, 3), Q(2, 9), Q(7, 9), Q(1, 13)]
    for _ in range(120):
        a, b = sorted((Q(rng.randint(-4, 12), 9), Q(rng.randint(-4, 12), 9)))
        if a == b:
            continue
        iv = Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
        meets = cantor_meets_interval(c, iv)
        for x in probes:
            if c.contains(x) and iv.contains(x):
                assert meets


# --- window traces --------------------------------------------------------------


def test_window_trace_examples(omega_set):
    tr = window_trace(Union((interval(0, 1), points(5))), 0, Q(1, 2))
    assert tr.pieces == (Interval(Q(0), Q(1, 2), False, False),)
    assert tr.thin == ()

    tr2 = window_trace(FULL_LINE, 1, 1)
    assert tr2.pieces == (
        Interval(Q(0), Q(1), False, False),
        Interval(Q(1), Q(2), False, False),
    )

    tr3 = window_trace(omega_set, 0, Q(1, 4))
    # members with index <= 4 lie outside/straddle; a symbolic tail remains
    assert any(hasattr(p.core, "start") for p in tr3.thin)
    assert all(iv.lo >= 0 for iv in tr3.pieces)


def test_window_trace_monotone_in_radius():
    rng = random.Random(31)
    pts = sample_rats(rng, 120, -2, 2)
    for _ in range(40):
        expr = rand_set_expr(rng, 1)
        a = rng.choice((Q(0), Q(1, 2)))
        try:
            big = window_trace(expr, a, Q(1))
            small = window_trace(expr, a, Q(1, 3))
        except UnsupportedIntersection:
            continue
        for x in pts:
            in_small = any(
                __import__("limitlab.sets", fromlist=["piece_contains"]).piece_contains(p, x)
                for p in small.all_pieces()
            )
            if in_small:
                assert 0 < abs(x - a) < Q(1, 3)
                in_big = any(
                    __import__("limitlab.sets", fromlist=["piece_contains"]).piece_contains(p, x)
                    for p in big.all_pieces()
                )
                assert in_big


def test_trace_excludes_center():
    tr = window_trace(interval(-1, 1), 0, Q(1, 2))
    for piece in tr.all_pieces():
        from limitlab.sets import piece_contains

        assert not piece_contains(piece, Q(0))


# --- known defect: the canonical union drops removals of thin cores ----------------
# A Sequence or CantorAffine core that carries removals keeps its whole atom,
# so a thin set minus itself can come back non-empty.  These pin the defect
# until the algebra keeps such removals.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="canonical union drops removals of sequence cores")
@pytest.mark.parametrize(
    "text",
    ["seq(1/n) & ([0,1] \\ seq(1/n))", "seq(1/n) & (Q((0, 1)) \\ seq(1/n))"],
)
def test_sequence_minus_itself_is_empty(text):
    assert normalize(parse_set(text)) == EMPTY


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="canonical union drops removals of Cantor cores")
def test_removed_cantor_point_is_not_contained():
    expr = parse_set("cantor(-1/2,-1) & ([-1,1/8) \\ cantor(-3/4,1/2))")
    assert not contains(expr, Q(-3, 4))
