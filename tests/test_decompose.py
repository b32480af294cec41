import random
from fractions import Fraction as Q

import pytest

from limitlab.decompose import Decomposition, decompose, verify_decomposition
from limitlab.dsl import parse_fn, set_to_text
from limitlab.errors import PrerequisiteNotMet, UnsupportedIntersection
from limitlab.functions import PiecewiseFn, fn_add, fn_eval, indicator_fn, punctured_window
from limitlab.limits import LimitType, check, classify
from limitlab.poly import Poly
from limitlab.sampling import sample_points
from limitlab.sets import FULL_LINE, Intersection, _normal, contains, interval, rationals_in

from conftest import CORPUS_POINTS, certified_fn, corpus, mirror_fn

T5, T6 = LimitType.T5, LimitType.T6


def test_dirichlet_decomposition(dirichlet):
    d = decompose(dirichlet, 0, 0, T5)
    assert d.delta0 > 0
    # the exceptional union covers the rationals near 0
    for x in (Q(1, 7), Q(-3, 8)):
        assert contains(d.exceptional_union, x * d.delta0)
    # inside the certified window g is identically 0: the value is forced to
    # the limit on the union and f already vanishes off the rationals
    for x in sample_points(FULL_LINE, count=60, seed=1):
        if 0 < abs(x) < d.delta0:
            assert fn_eval(d.g, x) == 0
        else:
            assert fn_eval(d.g, x) == fn_eval(dirichlet, x)
    assert verify_decomposition(d, dirichlet, 0, 0, T5)


def test_identity_decomposition(identity_fn):
    d = decompose(identity_fn, 0, 0, T5)
    assert d.exceptional_union.pieces == ()
    for x in sample_points(FULL_LINE, count=40, seed=2):
        assert fn_eval(d.h, x) == 0
    assert verify_decomposition(d, identity_fn, 0, 0, T5)


def test_cantor_decomposition(cantor_indicator):
    d = decompose(cantor_indicator, 0, 0, T6)
    assert verify_decomposition(d, cantor_indicator, 0, 0, T6)


def test_decompose_requires_limit(cantor_indicator):
    with pytest.raises(PrerequisiteNotMet):
        decompose(cantor_indicator, 0, 0, T5)  # countable-type limit fails


def test_tampered_sum_detected(dirichlet):
    d = decompose(dirichlet, 0, 0, T5)
    bad_h = fn_add(d.h, indicator_fn(interval(0, Q(1, 4))))
    bad = Decomposition(d.g, bad_h, d.delta0, d.exceptional_union)
    assert not verify_decomposition(bad, dirichlet, 0, 0, T5)


def test_tampered_smallness_detected(dirichlet):
    # replace both parts so the pointwise identity holds but h is fat
    fat = indicator_fn(interval(-1, 1))
    g = PiecewiseFn(FULL_LINE, ((interval(-1, 1), Poly.const(0)),), Poly.const(1))
    d = Decomposition(g, fat, Q(1), interval(-1, 1))
    ok_pointwise = all(
        fn_eval(g, x) + fn_eval(fat, x) == 1 for x in sample_points(FULL_LINE, 30, seed=4)
    )
    constant_one = PiecewiseFn(FULL_LINE, (), Poly.const(1))
    assert ok_pointwise
    assert not verify_decomposition(d, constant_one, 0, 1, T5)


def test_roundtrip_over_certified_corpus():
    rng = random.Random(8080)
    done = 0
    for t6 in (False, True):
        t = T6 if t6 else T5
        for _ in range(10):
            a = rng.choice(CORPUS_POINTS)
            f, L = certified_fn(rng, a, t6)
            d = decompose(f, a, L, t)
            assert verify_decomposition(d, f, a, L, t), (f, a, L, t)
            done += 1
    assert done == 20


def test_support_of_h_inside_union(dirichlet):
    d = decompose(dirichlet, 0, 0, T5)
    for x in sample_points(rationals_in(interval(-Q(1, 2), Q(1, 2))), count=50, seed=5):
        if x == 0 or abs(x) >= d.delta0:
            continue
        if fn_eval(d.h, x) != 0:
            assert contains(d.exceptional_union, x)


def test_region_parts_decompose_where_the_global_carrier_is_refused():
    # the union of this function's exceptional regions does not normalize,
    # but each region's part clipped to the witness window does
    f, a = corpus(11, 60)[25]
    for g, b in ((f, a), (mirror_fn(f), -a)):
        for t in (T5, T6):
            out = classify(g, b).outcomes[t]
            assert out.exists == "yes"
            d = decompose(g, b, out.value, t)
            assert verify_decomposition(d, g, b, out.value, t)


def test_delta0_is_the_largest_eps_witness():
    # every decomposition of the corpus and its mirror images is built: none
    # is refused by the set algebra
    done = 0
    for f, a in corpus(11, 60):
        for g, b in ((f, a), (mirror_fn(f), -a)):
            rep = classify(g, b)
            for t in (T5, T6):
                out = rep.outcomes[t]
                if out.exists != "yes":
                    continue
                d = decompose(g, b, out.value, t)
                assert d.delta0 == max(check(g, b, out.value, t).witness)[1]
                done += 1
    assert done == 218


def test_sum_reproduces_f_at_the_probe_points():
    # h is built from the band parts, not as f - g, so the pointwise identity
    # holds by construction at every probe point verify_decomposition uses;
    # on the two named functions f - g went through a normal form that drops
    # a sequence's removals, and g + h missed f
    rng = random.Random(8181)
    cases = []
    for t in (T5, T6):
        for _ in range(15):
            a = rng.choice(CORPUS_POINTS)
            f, L = certified_fn(rng, a, t is T6)
            cases.append((f, a, L, t))
    cases += [
        (parse_fn("piecewise { -1 - x on seq(-1/2 + 2*(1/2)^n, 2); -11/4 on Q((-11/4, 1/4]); else -3/8 + 3/2*x }"),
         Q(0), Q(-3, 8), T5),
        (parse_fn("piecewise { -1/2 - 7/8*x on seq(3/n^2, 3); -2 + 2/3*x on Q([-7/4, 1/4]); else -1/2 }"),
         Q(1, 2), Q(-1, 2), T5),
    ]
    for f, a, L, t in cases:
        d = decompose(f, a, L, t)
        for x in sample_points(f.domain, count=1000, seed=7, center=a, spread=max(d.delta0, 1)):
            assert fn_eval(d.g, x) + fn_eval(d.h, x) == fn_eval(f, x), (f, a, L, t, x)


def test_undecidable_classical_limit_of_g_is_a_refusal():
    # at 1/3 the T6 exceptional union holds Cantor pieces and rationals minus
    # the Cantor image; g's regions take it out of cantor(0, 1), which the set
    # algebra refuses, and the verifier says so instead of rejecting the
    # decomposition
    f = parse_fn("piecewise { 1/3 on cantor(0, 1); 7/3 on Q((0, 2]); else -1 }")
    a = Q(1, 3)
    assert classify(f, a).outcomes[T6].value == -1
    d = decompose(f, a, -1, T6)
    with pytest.raises(UnsupportedIntersection, match="classical limit of g: set algebra: Cantor image minus rationals"):
        verify_decomposition(d, f, a, -1, T6)


def test_h_has_no_repeated_branches():
    # h has one branch per region whose clipped part is nonempty, and g + h = f
    # still holds.  The named function has the classical limit -1/2 at 1/2:
    # no region with p(1/2) != -1/2 reaches 1/2, every clipped part is empty,
    # and h is 0
    found = parse_fn("piecewise { -1/2 - 7/8*x on seq(3/n^2, 3); -2 + 2/3*x on Q([-7/4, 1/4]); else -1/2 }")
    checked = 0
    for f, a in [(found, Q(1, 2))] + corpus(11, 60):
        rep = classify(f, a)
        for t in (T5, T6):
            out = rep.outcomes[t]
            if out.exists != "yes":
                continue
            try:
                d = decompose(f, a, out.value, t)
            except UnsupportedIntersection:
                continue
            assert len(set(d.h.branches)) == len(d.h.branches), (f, a, t)
            for x in sample_points(f.domain, count=200, seed=5, center=a, spread=max(d.delta0, 1)):
                assert fn_eval(d.g, x) + fn_eval(d.h, x) == fn_eval(f, x), (f, a, t, x)
            checked += 1
    assert checked > 60
    assert decompose(found, Q(1, 2), Q(-1, 2), T5).h.branches == ()


def _corpus_decompositions():
    """(f, a, L, t, d) for every T5/T6 decomposition of corpus(11, 60) and its mirrors."""
    out = []
    for f, a in corpus(11, 60):
        for g, b in ((f, a), (mirror_fn(f), -a)):
            rep = classify(g, b)
            for t in (T5, T6):
                if rep.outcomes[t].exists == "yes":
                    L = rep.outcomes[t].value
                    out.append((g, b, L, t, decompose(g, b, L, t)))
    assert len(out) == 218
    return out


def test_exceptional_union_holds_each_piece_once():
    # one band's parts, from disjoint regions, are clipped once: no piece of
    # the union repeats, as pieces clipped by several bands did
    for f, a, L, t, d in _corpus_decompositions():
        pieces = d.exceptional_union.pieces
        assert len(set(pieces)) == len(pieces), (f, a, t, set_to_text(d.exceptional_union))


def test_exceptional_union_lies_in_the_smallest_witness_window():
    # every part is clipped to the punctured window of the smallest witness
    # radius of check, not to the larger windows of the larger eps bands
    for f, a, L, t, d in _corpus_decompositions():
        radius = min(delta for _, delta in check(f, a, L, t).witness)
        clipped = _normal(Intersection((d.exceptional_union, punctured_window(a, radius))))
        assert clipped == d.exceptional_union, (f, a, t, set_to_text(d.exceptional_union))
