import random
from fractions import Fraction as Q

import pytest

from limitlab.errors import (
    DivisionByPossiblyZero,
    NonPolynomialQuotient,
    OutsideDomain,
    UnsupportedIntersection,
)
from limitlab.functions import (
    PiecewiseFn,
    exceptional_set,
    fn_add,
    fn_div,
    fn_eval,
    fn_mul,
    fn_scale,
    indicator_fn,
    _sign_regions,
    isolate_superlevel,
    nonzero_set,
)
from limitlab.poly import Poly
from limitlab.sampling import sample_points
from limitlab.sets import (
    FULL_LINE,
    Interval,
    Piece,
    Union,
    _normal,
    cantor_affine,
    contains,
    interval,
    open_interval,
    points,
    rationals_in,
)

from conftest import rand_fn, rand_poly, rand_rat, reference_sign_regions, sample_rats


def test_eval_examples(dirichlet, cantor_indicator):
    assert fn_eval(dirichlet, Q(1, 2)) == 1
    assert fn_eval(cantor_indicator, Q(1, 2)) == 0
    assert fn_eval(cantor_indicator, Q(1, 4)) == 1


def test_eval_outside_domain():
    f = PiecewiseFn(interval(0, 1), (), Poly.const(3))
    with pytest.raises(OutsideDomain):
        fn_eval(f, 5)


def test_add_of_complementary_indicators(dirichlet):
    anti = PiecewiseFn(FULL_LINE, ((rationals_in(FULL_LINE), Poly.const(0)),), Poly.const(1))
    total = fn_add(dirichlet, anti)
    for x in (Q(0), Q(1, 2), Q(-7, 3), Q(22, 7)):
        assert fn_eval(total, x) == 1


def test_mul_idempotent_indicator(cantor_indicator):
    prod = fn_mul(cantor_indicator, cantor_indicator)
    for x in (Q(0), Q(1, 4), Q(1, 2), Q(2, 3), Q(5)):
        assert fn_eval(prod, x) == fn_eval(cantor_indicator, x)


def test_scale(dirichlet):
    tripled = fn_scale(dirichlet, 3)
    assert fn_eval(tripled, Q(1, 2)) == 3
    assert fn_eval(tripled, Q(2) ** Q(1) / 2) == 3  # still rational input


def test_pointwise_sum_random():
    rng = random.Random(61)
    pts = sample_rats(rng, 40)
    done = 0
    for _ in range(25):
        f1, f2 = rand_fn(rng), rand_fn(rng)
        try:
            s = fn_add(f1, f2)
        except UnsupportedIntersection:
            continue
        for x in pts:
            assert fn_eval(s, x) == fn_eval(f1, x) + fn_eval(f2, x)
        done += 1
    assert done >= 10


def test_division_rules(dirichlet):
    two = PiecewiseFn(FULL_LINE, (), Poly.const(2))
    halved = fn_div(dirichlet, two)
    assert fn_eval(halved, Q(1, 3)) == Q(1, 2)
    zeroish = PiecewiseFn(FULL_LINE, ((interval(0, 1), Poly.const(0)),), Poly.const(1))
    with pytest.raises(DivisionByPossiblyZero):
        fn_div(dirichlet, zeroish)
    linear = PiecewiseFn(FULL_LINE, (), Poly.make([1, 1]))
    with pytest.raises(DivisionByPossiblyZero):
        fn_div(dirichlet, linear)  # root at -1 inside the domain
    safe_linear = PiecewiseFn(interval(1, 2), (), Poly.make([1, 1]))
    with pytest.raises(NonPolynomialQuotient):
        fn_div(PiecewiseFn(interval(1, 2), (), Poly.const(1)), safe_linear)


# --- superlevel sandwiches ---------------------------------------------------


def test_superlevel_rational_roots_exact():
    sl = isolate_superlevel(Poly.make([0, 0, 1]), 0, Q(1, 4))
    assert sl.exact
    assert contains(sl.inner, Q(-1, 2)) and contains(sl.inner, Q(1, 2))
    assert not contains(sl.inner, Q(499, 1000)) and not contains(sl.inner, 0)


def test_superlevel_constant():
    sl = isolate_superlevel(Poly.const(0), 0, 1)
    assert sl.inner.pieces == () and sl.exact
    sl2 = isolate_superlevel(Poly.const(5), 0, 1)
    assert sl2.inner.pieces == (Piece(FULL_LINE),)


def test_superlevel_irrational_roots_sandwich():
    sl = isolate_superlevel(Poly.make([0, 0, 1]), 2, 1)
    assert sl.gap <= Q(8, 2**20)
    rng = random.Random(67)
    p = Poly.make([0, 0, 1])
    for x in sample_rats(rng, 300):
        if contains(sl.inner, x):
            assert abs(p(x) - 2) >= 1
        if not contains(sl.outer, x):
            assert abs(p(x) - 2) < 1


def test_sign_regions_agree_with_the_root_loop():
    # root cells against the earlier per-root loop: equal normal forms on
    # each side and an equal gap, for constants, rational, irrational and
    # repeated roots
    rng = random.Random(73)
    polys = [Poly.const(0), Poly.const(3), Poly.make([0, 0, 1]), Poly.make([-2, 0, 1])]
    for _ in range(120):
        p = rand_poly(rng, max_deg=3)
        for _ in range(rng.choice((0, 1, 2))):
            p = p * rand_poly(rng, max_deg=2)
        polys.append(p)
    compared = widened = 0
    for p in polys:
        for _ in range(3):
            L, eps = rand_rat(rng), abs(rand_rat(rng)) + Q(1, 8)
            for q in (p - Poly.const(L + eps), Poly.const(L - eps) - p):
                inner, outer, gap = _sign_regions(q)
                ref_inner, ref_outer, ref_gap = reference_sign_regions(q)
                assert _normal(Union(inner)) == _normal(Union(ref_inner)), q
                assert _normal(Union(outer)) == _normal(Union(ref_outer)), q
                assert gap == ref_gap, q
                compared += 1
                widened += gap > 0
    assert compared == 6 * len(polys) and widened > 50


def test_exceptional_set_examples(dirichlet, cantor_indicator):
    es = exceptional_set(dirichlet, 0, 0, 1, Q(1, 2))
    assert es.exact
    expected = rationals_in(open_interval(-1, 1))
    for x in (Q(1, 2), Q(-1, 3), Q(9, 10)):
        assert contains(es.inner, x)
    assert not contains(es.inner, 0)
    assert not contains(es.inner, Q(3, 2))

    es2 = exceptional_set(cantor_indicator, 0, 0, Q(1, 2), 1)
    assert es2.exact
    # equal to the Cantor part of (0, 1/2)
    assert contains(es2.inner, Q(1, 4))
    assert not contains(es2.inner, Q(-1, 4))
    assert not contains(es2.inner, 0)

    ident = PiecewiseFn(FULL_LINE, (), Poly.make([0, 1]))
    es3 = exceptional_set(ident, 0, 0, 1, Q(1, 2))
    assert es3.exact
    assert contains(es3.inner, Q(1, 2)) and contains(es3.inner, Q(-3, 4))
    assert not contains(es3.inner, Q(1, 4)) and not contains(es3.inner, Q(1))


def test_exceptional_monotone_in_eps_and_delta(dirichlet, identity_fn):
    rng = random.Random(71)
    pts = sample_rats(rng, 200, -1, 1)
    for f in (dirichlet, identity_fn):
        e_small = exceptional_set(f, 0, 0, 1, Q(1, 4))
        e_big = exceptional_set(f, 0, 0, 1, Q(1, 2))
        for x in pts:
            if contains(e_big.outer, x):
                assert contains(e_small.outer, x)
        d_small = exceptional_set(f, 0, 0, Q(1, 2), Q(1, 4))
        for x in pts:
            if contains(d_small.outer, x):
                assert contains(e_small.outer, x)


def test_sandwich_soundness_random():
    rng = random.Random(73)
    pts = sample_rats(rng, 120, -2, 2)
    done = 0
    for _ in range(20):
        f = rand_fn(rng)
        a = Q(0)
        L = Q(rng.randint(-2, 2))
        eps = Q(1, rng.choice((2, 3, 4)))
        try:
            es = exceptional_set(f, a, L, 1, eps)
        except UnsupportedIntersection:
            continue
        for x in pts:
            if abs(x - a) >= 1 or x == a:
                continue
            if contains(es.inner, x):
                assert abs(fn_eval(f, x) - L) >= eps
            if not contains(es.outer, x):
                assert abs(fn_eval(f, x) - L) < eps
        done += 1
    assert done >= 8


def test_nonzero_set(dirichlet):
    # the support of the Dirichlet indicator is exactly the rationals
    nz = nonzero_set(dirichlet)
    assert nz.exact
    assert contains(nz.inner, Q(1, 2)) and contains(nz.outer, Q(5, 7))
    poly_fn = PiecewiseFn(FULL_LINE, (), Poly.make([0, 1]))
    nz2 = nonzero_set(poly_fn)
    assert not contains(nz2.inner, 0)
    assert contains(nz2.inner, Q(1, 3)) and contains(nz2.inner, -2)


def test_sample_points_respect_membership(omega_set):
    pts = sample_points(omega_set, count=80, seed=3)
    assert len(pts) >= 20
    for x in pts:
        assert contains(omega_set, x)


@pytest.mark.parametrize(
    "expr, lo, hi",
    [
        (interval(5, None), Q(5), Q(7)),
        (interval(None, -5), Q(-7), Q(-5)),
        (rationals_in(interval(7, None)), Q(7), Q(9)),
    ],
)
def test_half_unbounded_pieces_away_from_the_center_are_sampled(expr, lo, hi):
    # the piece misses [center - spread, center + spread] = [-2, 2]: its
    # points are drawn within spread of its bounded end
    pts = sample_points(expr, 5)
    assert len(pts) == 5
    for x in pts:
        assert contains(expr, x) and lo <= x <= hi
