import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import functions, poly
from limitlab.decompose import decompose
from limitlab.errors import LimitLabError
from limitlab.limits import LimitType, classify
from limitlab.poly import Poly, isolate_roots, refine_root

from conftest import corpus, count_roots


def test_eval_and_arithmetic():
    p = Poly.make([1, 2, 3])  # 1 + 2x + 3x^2
    q = Poly.make([0, 1])
    assert p(2) == 17
    assert (p + q)(2) == 19
    assert (p * q)(2) == 34
    assert (p - p).is_zero()
    assert p.scale(Q(1, 2))(2) == Q(17, 2)


def test_sturm_root_count():
    p = Poly.make([-2, 0, 1])  # x^2 - 2
    assert count_roots(p, Q(0), Q(2)) == 1
    assert count_roots(p, Q(-2), Q(2)) == 2
    assert count_roots(p, Q(2), Q(10)) == 0


def test_isolate_rational_roots_exactly():
    # (x - 1/2)(x + 3)(x - 2)
    p = Poly.make([-Q(1, 2), 1]) * Poly.make([3, 1]) * Poly.make([-2, 1])
    locs = isolate_roots(p)
    assert locs == [Q(-3), Q(1, 2), Q(2)]


def test_isolate_mixed_roots():
    # (x^2 - 2)(x - 1): roots -sqrt2, 1, sqrt2
    p = Poly.make([-2, 0, 1]) * Poly.make([-1, 1])
    locs = isolate_roots(p)
    assert Q(1) in locs
    encs = [loc for loc in locs if not isinstance(loc, Q)]
    assert len(encs) == 2
    for lo, hi in encs:
        assert p(lo) != 0 and p(hi) != 0
        assert count_roots(p, lo, hi) == 1


def test_refine_root_width():
    p = Poly.make([-2, 0, 1])
    (lo, hi) = [
        loc for loc in isolate_roots(p) if not isinstance(loc, Q) and loc[0] + loc[1] > 0
    ][0]
    lo2, hi2 = refine_root(p, lo, hi, Q(1, 2**30))
    assert hi2 - lo2 <= Q(1, 2**30)
    assert lo2 < hi2
    assert lo2 * lo2 < 2 < hi2 * hi2


def test_refine_root_needs_a_positive_width():
    with pytest.raises(ValueError):
        refine_root(Poly.make([-2, 0, 1]), Q(1), Q(2), Q(0))


def test_no_real_roots():
    p = Poly.make([1, 0, 1])  # x^2 + 1
    assert isolate_roots(p) == []


def test_to_text():
    p = Poly.make([Q(-1, 2), 0, 1])
    assert p.to_text() == "-1/2 + x^2"
    assert Poly.make([0]).to_text() == "0"



# --- exact rational roots at any coefficient size ---------------------------------


def test_large_rational_roots_are_exact():
    big = 3**27
    assert isolate_roots(Poly.make([-(big**2), 0, 1])) == [Q(-big), Q(big)]
    assert isolate_roots(Poly.make([0, -(big**2), 0, 1])) == [Q(-big), Q(0), Q(big)]


def test_rational_root_with_large_denominator():
    # (3^27 x - 5)(x^3 - 2): a rational root 5/3^27 next to the real cube root of 2
    p = Poly.make([-5, 3**27]) * Poly.make([-2, 0, 0, 1])
    locs = isolate_roots(p)
    assert locs[0] == Q(5, 3**27)
    (lo, hi), = locs[1:]
    assert lo**3 < 2 < hi**3 and count_roots(p, lo, hi) == 1


def test_large_rational_roots_give_an_exact_sandwich():
    assert functions.isolate_superlevel(Poly.make([0, 0, 1]), 0, 3**54).gap == 0


def _is_square(q: Q) -> bool:
    return q >= 0 and math.isqrt(q.numerator) ** 2 == q.numerator and math.isqrt(q.denominator) ** 2 == q.denominator


_small_rat = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(
    linear=st.lists(st.tuples(st.integers(-(10**15), 10**15), st.integers(1, 10**15)), max_size=3),
    quadratic=st.lists(st.tuples(_small_rat, _small_rat.filter(lambda k: k != 0 and not _is_square(k))), max_size=2),
    scale=_small_rat.filter(lambda q: q != 0),
)
def test_roots_of_products_of_linear_and_irreducible_quadratic_factors(linear, quadratic, scale):
    """Exactly the linear factors' roots come back as Fractions; each irrational
    root u ± sqrt(k) of a factor (x - u)^2 - k with k > 0 gets one interval."""
    p = Poly.const(scale)
    for num, den in linear:
        p = p * Poly.make([-num, den])
    for u, k in quadratic:
        p = p * Poly.make([u * u - k, -2 * u, 1])
    locs = isolate_roots(p)
    assert [loc for loc in locs if isinstance(loc, Q)] == sorted({Q(num, den) for num, den in linear})
    intervals = [loc for loc in locs if not isinstance(loc, Q)]
    assert len(intervals) == 2 * len({(u, k) for u, k in quadratic if k > 0})
    for lo, hi in intervals:
        assert p(lo) != 0 and p(hi) != 0
        assert count_roots(p, lo, hi) == 1


# --- golden roots ---------------------------------------------------------------
#
# `golden/roots.json` freezes `isolate_roots` and `refine_root` (at widths
# 2^-20 and 2^-40) on every polynomial whose roots classify, decompose,
# nonzero_set and the divisor check reach over corpus(11, 60), plus seeded
# products of linear and quadratic factors of degree 1-4 with repeated,
# rational and irrational roots.  Inputs whose square-free part has a constant
# or leading coefficient above 10^9 are left out: an earlier root finder
# enumerated divisors and gave up on those, returning rational roots as
# intervals.  Rewrite the file after a deliberate change with
# `PYTHONPATH=src python tests/test_poly.py` and review the diff.

ROOTS_GOLDEN = Path(__file__).parent / "golden" / "roots.json"
GOLDEN_WIDTHS = (("2^-20", Q(1, 2**20)), ("2^-40", Q(1, 2**40)))
_COEFF_CAP = 10**9


def _small_coefficients(p: Poly) -> bool:
    ints = poly._square_free(poly._int_form(p))
    while ints and ints[0] == 0:
        ints.pop(0)
    return all(abs(c) <= _COEFF_CAP for c in (ints[:1] + ints[-1:]))


def _reached_polys() -> list[Poly]:
    seen: dict[tuple, Poly] = {}
    real = functions.isolate_roots

    def record(p):
        seen.setdefault(p.coeffs, p)
        return real(p)

    functions.isolate_roots = record
    try:
        for f, a in corpus(11, 60):
            rep = classify(f, a)
            calls = [lambda: functions.nonzero_set(f), lambda: functions._check_nonvanishing(f)]
            for t in (LimitType.T5, LimitType.T6):
                out = rep.outcomes[t]
                if out.exists == "yes":
                    calls.append(lambda t=t, L=out.value: decompose(f, a, L, t))
            for call in calls:
                try:
                    call()
                except LimitLabError:
                    pass
    finally:
        functions.isolate_roots = real
    return list(seen.values())


def _random_polys(seed: int = 7, count: int = 300) -> list[Poly]:
    rng = random.Random(seed)
    x = Poly.x()

    def rat(span=4):
        den = rng.choice((1, 2, 3, 5, 7, 12))
        return Q(rng.randint(-span * den, span * den), den)

    out = []
    while len(out) < count:
        p = Poly.const(rng.choice((1, -1)) * abs(rat() or Q(1)))
        while p.degree < rng.randint(1, 4):
            roll = rng.random()
            if roll < 0.4:
                factor = x - Poly.const(rat())
            elif roll < 0.7:
                k = rng.choice((2, 3, 5, 6, 7, Q(1, 2), Q(3, 4), Q(5, 9)))
                factor = x * x - Poly.const(k)
            else:
                factor = Poly.make([rat(), rat(), rng.choice((1, 2, 3, -1))])
            p = p * factor
            if p.degree <= 2 and rng.random() < 0.3:
                p = p * factor  # a repeated root
        if p.degree <= 4:
            out.append(p)
    return out


def _loc_text(loc):
    return str(loc) if isinstance(loc, Q) else [str(loc[0]), str(loc[1])]


def _roots_record(p: Poly) -> dict:
    locs = isolate_roots(p)
    refined = {
        name: [_loc_text(refine_root(p, loc[0], loc[1], w)) for loc in locs if not isinstance(loc, Q)]
        for name, w in GOLDEN_WIDTHS
    }
    return {"poly": [str(c) for c in p.coeffs], "roots": [_loc_text(loc) for loc in locs], "refined": refined}


def _golden_polys() -> list[Poly]:
    frozen = json.loads(ROOTS_GOLDEN.read_text(encoding="utf-8"))
    return [Poly.make(Q(c) for c in rec["poly"]) for rec in frozen]


def golden_roots() -> list[dict]:
    """The committed polynomials in their committed order, then the reached
    and random ones that are not among them yet: a polynomial that the
    corpus stops reaching keeps its record."""
    polys = _golden_polys() if ROOTS_GOLDEN.exists() else []
    known = {p.coeffs for p in polys}
    for p in _reached_polys() + _random_polys():
        if p.coeffs not in known and _small_coefficients(p):
            known.add(p.coeffs)
            polys.append(p)
    return [_roots_record(p) for p in polys]


def test_golden_roots():
    frozen = json.loads(ROOTS_GOLDEN.read_text(encoding="utf-8"))
    assert frozen
    for rec in frozen:
        p = Poly.make(Q(c) for c in rec["poly"])
        assert _roots_record(p) == rec


def _horner(coeffs, x: Q) -> Q:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_call_agrees_with_fraction_horner():
    # __call__ runs the integer kernel on coefficients over their common
    # denominator; the reference runs Horner's rule on the Fractions
    polys = _golden_polys() + [Poly(()), Poly.const(0), Poly.const(5), Poly.const(Q(-7, 3))]
    xs = [Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(10**12 + 1)]
    xs += [Q(-5, 2**40), Q(-(10**9) - 7, 3**25), Q(123456789, 10**18 + 9), Q(-1, 7**30), Q(2**61 - 1, 2**62)]
    for p in polys:
        for x in xs:
            assert p(x) == _horner(p.coeffs, x), (p, x)
    assert Poly.make([Q(1, 2), Q(-3, 4)])(2) == Q(-1)  # an int point


if __name__ == "__main__":
    ROOTS_GOLDEN.parent.mkdir(exist_ok=True)
    ROOTS_GOLDEN.write_text(json.dumps(golden_roots(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ROOTS_GOLDEN}")
