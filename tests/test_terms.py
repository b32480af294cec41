import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.errors import RangeError
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
