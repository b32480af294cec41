import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import terms
from limitlab.errors import RangeError, UnsupportedIntersection
from limitlab.terms import Term


def reciprocal(k=1):
    return Term.power(1, k)


def test_eval_exact():
    t = Term.make(const=Q(1, 3), geo=[(Q(1, 2), 2)], pw=[(1, 0, 1)])
    assert t.eval(2) == Q(1, 3) + 2 * Q(1, 4) + Q(1, 2)


def test_ratio_range_validated():
    with pytest.raises(RangeError):
        Term.make(geo=[(Q(3, 2), 1)])
    with pytest.raises(RangeError):
        Term.make(geo=[(1, 1)])


def test_shift():
    t = Term.make(geo=[(Q(1, 2), 1)], pw=[(2, 0, 3)])
    s = t.shifted()
    for n in range(1, 8):
        assert s.eval(n) == t.eval(n + 1)


def test_eventual_sign_constant_dominates():
    t = Term.make(const=Q(1, 10), geo=[(Q(1, 2), -50)])
    sign, n0 = t.eventual_sign()
    assert sign == 1
    for n in range(n0, n0 + 10):
        assert t.eval(n) > 0


def test_sign_certified_only_past_the_index_bound_is_a_range_error():
    # 1/n drops below the constant 10^-30 only past index 10^30 > 2^62
    t = Term.make(const=Q(1, 10**30), pw=[(1, 0, -1)])
    with pytest.raises(RangeError, match="2\\^62"):
        t.eventual_sign()


def test_eventual_sign_power_beats_geometric():
    # -100*(1/2)^n + 1/n is eventually positive
    t = Term.make(geo=[(Q(1, 2), -100)], pw=[(1, 0, 1)])
    sign, n0 = t.eventual_sign()
    assert sign == 1
    assert t.eval(n0) > 0


def test_eventual_sign_power_orders():
    # 1/n^2 - 1/n is eventually negative
    t = Term.make(pw=[(2, 0, 1), (1, 0, -1)])
    sign, _ = t.eventual_sign()
    assert sign == -1


def test_eventual_sign_shifted_cancellation():
    # 1/n - 1/(n+1) = 1/(n(n+1)) > 0
    t = Term.make(pw=[(1, 0, 1), (1, 1, -1)])
    sign, _ = t.eventual_sign()
    assert sign == 1


def test_eventual_sign_geometric_ratio_order():
    t = Term.make(geo=[(Q(1, 2), 1), (Q(1, 3), -1000)])
    sign, n0 = t.eventual_sign()
    assert sign == 1
    assert t.eval(n0) > 0


def test_zero_term():
    t = Term.make()
    assert t.eventual_sign() == (0, 1)
    assert t.is_constant()


def test_deviation_bound_is_valid_envelope():
    rng = random.Random(5)
    for _ in range(40):
        t = Term.make(
            const=Q(rng.randint(-2, 2)),
            geo=[(Q(1, rng.choice((2, 3, 4))), Q(rng.randint(-3, 3)))],
            pw=[(rng.randint(1, 3), 0, Q(rng.randint(-3, 3)))],
        )
        for n in range(1, 40):
            bound = t.deviation_bound(n)
            for m in range(n, n + 5):
                assert abs(t.eval(m) - t.limit) <= bound


def test_eval_bounds_contain_value():
    t = Term.make(const=1, geo=[(Q(1, 2), 3)], pw=[(1, 0, -2)])
    for n in (1, 5, 17, 400):
        lo, hi = t.eval_bounds(n)
        assert lo <= t.eval(n) <= hi


def test_tail_sum_geometric_exact():
    t = Term.geometric(1, Q(1, 2))
    lo, hi = t.tail_sum_bounds(3)
    assert lo == hi == Q(1, 4)  # sum_{n>=3} 2^-n


def test_tail_sum_power_bracket():
    t = Term.power(1, 2)
    lo, hi = t.tail_sum_bounds(10)
    true = sum(Q(1, n * n) for n in range(10, 4000)) + Q(1, 3999)  # crude
    assert lo <= true <= hi + Q(1, 1000)
    assert hi - lo < Q(1, 50)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(-4, 4),
    r_den=st.sampled_from([2, 3, 5]),
    k=st.integers(1, 3),
    d=st.integers(-4, 4),
)
def test_eventual_sign_agrees_with_far_samples(c, r_den, k, d):
    t = Term.make(geo=[(Q(1, r_den), c)], pw=[(k, 0, d)])
    sign, n0 = t.eventual_sign()
    probe = max(n0, 1)
    for n in (probe, probe + 7, probe * 3 + 1):
        v = t.eval(n)
        if sign == 0:
            assert v == 0
        elif sign > 0:
            assert v > 0
        else:
            assert v < 0


class _TooFar(Exception):
    """The reference would need an exact geometric power past 2^16."""


def _reference_first(term, start, x, strict):
    """The first n >= start with term(n) < x (<= x when not strict), by
    galloping and bisecting over exact Fraction comparisons, with the 2^62
    bound: the search that the integer lookup replaces."""

    def below(n):
        lo, hi = term.eval_bounds(n)
        if hi < x or (not strict and hi == x):
            return True
        if lo > x or (strict and lo == x):
            return False
        if n > 2**16 and term.geo:
            raise _TooFar
        v = term.eval(n)
        return v < x if strict else v <= x

    if below(start):
        return start
    lo, span = start, 1
    while not below(start + span):
        lo = start + span
        span *= 2
        if span > 1 << 62:
            raise UnsupportedIntersection("tail index search passed 2^62")
    hi = start + span
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rand_dist_term(rng, shape):
    """A positive, strictly decreasing term with limit 0 of the given shape."""

    def coeff():
        return Q(rng.randint(1, 40), rng.randint(1, 40))

    def power():
        return (rng.randint(1, 5), rng.randint(0, 4), coeff())

    def geo():
        q = rng.choice((2, 3, 5, 7, 9, 10, 16, 1000))
        return (Q(rng.randint(1, q - 1), q), coeff())

    if shape == "power":
        return Term.make(pw=[power()])
    if shape == "geo":
        return Term.make(geo=[geo()])
    parts = rng.choice((("pw", "geo"), ("pw", "pw"), ("geo", "geo"), ("pw", "geo", "geo")))
    return Term.make(geo=[geo() for p in parts if p == "geo"], pw=[power() for p in parts if p == "pw"])


def _lookup_probes(rng, term, start):
    """Exact member values, member values moved by 2^-k, and points of the
    2^-40 dyadic grid that mc_measure samples from."""
    far = 10**6 if not term.geo else 60
    idx = [start + i for i in range(4)] + [start + rng.randrange(0, far) for _ in range(4)]
    xs = [term.eval(n) for n in idx]
    xs += [v + sign * Q(1, 2 ** rng.randint(1, 80)) for v in xs for sign in (1, -1)]
    xs += [Q(rng.randrange(1, 2**40), 2**40) for _ in range(6)]
    return [x for x in xs if x > 0]


_GALLOP = terms._gallop


@pytest.mark.parametrize("shape", ["power", "geo", "mixed"])
def test_integer_lookup_matches_the_galloping_reference(monkeypatch, shape):
    gallops = []

    def counting_gallop(*args):
        gallops.append(args)
        return _GALLOP(*args)

    monkeypatch.setattr(terms, "_gallop", counting_gallop)
    rng = random.Random({"power": 41, "geo": 43, "mixed": 47}[shape])
    checked = 0
    for _ in range(100):
        term = _rand_dist_term(rng, shape)
        dist = terms._compile(term)
        start = rng.choice((1, 1, 2, 3, 7, 20))
        for x in _lookup_probes(rng, term, start):
            for strict in (True, False):
                try:
                    want = _reference_first(term, start, x, strict)
                except _TooFar:
                    continue
                assert dist.first(start, x.numerator, x.denominator, strict) == want, (term, start, x, strict)
                checked += 1
    assert checked > 4000
    # one power monomial or one geometric part never gallops
    assert (len(gallops) > 0) == (shape == "mixed")


def test_integer_lookup_keeps_the_index_bound():
    # the reference and the integer lookup refuse the same crossings past
    # start + 2^62, and answer the same at the bound
    for term, start in ((Term.power(1, 1), 1), (Term.make(pw=[(2, 3, Q(5, 2))]), 7)):
        dist = terms._compile(term)
        for x in (term.eval(start + 2**62), term.eval(start + 2**62 + 1), Q(1, 2**70), Q(3, 2**200)):
            for strict in (True, False):
                try:
                    want = _reference_first(term, start, x, strict)
                except UnsupportedIntersection as exc:
                    with pytest.raises(UnsupportedIntersection, match=str(exc).replace("^", "\\^")):
                        dist.first(start, x.numerator, x.denominator, strict)
                else:
                    assert dist.first(start, x.numerator, x.denominator, strict) == want


@pytest.mark.parametrize("shape", ["power", "geo", "mixed"])
def test_crossing_sign_is_the_exact_comparison(shape):
    compiled = {"power": terms._PowerDist, "geo": terms._GeoDist, "mixed": terms._Dist}[shape]
    rng = random.Random({"power": 53, "geo": 59, "mixed": 61}[shape])
    signs, forms = set(), set()
    for _ in range(100):
        term = _rand_dist_term(rng, shape)
        dist = terms._compile(term)
        assert isinstance(dist, compiled)
        forms.add(type(dist))
        start = rng.choice((1, 1, 2, 3, 7, 20))
        far = 10**6 if not term.geo else 60
        idx = [start + i for i in range(4)] + [start + rng.randrange(0, far) for _ in range(4)]
        for x in _lookup_probes(rng, term, start):
            for n in idx:
                v = term.eval(n)
                want = (v > x) - (v < x)
                assert dist.sign(n, x.numerator, x.denominator) == want, (term, n, x)
                signs.add(want)
    assert signs == {-1, 0, 1}
    assert compiled in forms  # two mixed parts of one ratio merge into one


def test_crossing_sign_refuses_a_geometric_power_past_2_to_the_20_bits():
    # (1/2)^n has a 2-bit denominator, so exact comparisons stop past n = 2^19
    for pw in ([], [(2, 0, 1)]):
        term = Term.make(geo=[(Q(1, 2), 1)], pw=pw)
        dist = terms._compile(term)
        n = 2**19
        x = term.eval(n)
        assert dist.sign(n, x.numerator, x.denominator) == 0
        # Term.eval refuses this power too, so the value is built from its parts
        x = Q(1, 2 ** (n + 1)) + Term.make(pw=pw).eval(n + 1)
        with pytest.raises(UnsupportedIntersection, match="2\\^20 bits"):
            dist.sign(n + 1, x.numerator, x.denominator)
    # the general form asks for the exact power only when the bounds do not decide
    assert dist.sign(2**40, 1, 1) == -1
