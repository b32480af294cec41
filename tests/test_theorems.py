"""Corpus-level verification of the structural facts the engine must respect:
equivalence of the empty/finite/isolated conditions, the strict tolerance
chain, uniqueness characterizations, and limit arithmetic."""

import random
from fractions import Fraction as Q

import pytest

from limitlab.errors import UnsupportedIntersection
from limitlab.functions import (
    PiecewiseFn,
    fn_add,
    fn_div,
    fn_mul,
    fn_scale,
    indicator_fn,
)
from limitlab.limits import LimitType, check, classify, uniqueness_precondition
from limitlab.poly import Poly
from limitlab.sets import FULL_LINE, cantor_affine, open_interval, rationals_in

from conftest import CORPUS_POINTS, certified_fn, corpus, rand_nonzero_rat

T1, T2, T3, T4, T5, T6 = (
    LimitType.T1,
    LimitType.T2,
    LimitType.T3,
    LimitType.T4,
    LimitType.T5,
    LimitType.T6,
)

STRENGTH = ((T1, T3, T4), (T5,), (T6,), (T2,))


@pytest.fixture(scope="module")
def corpus_reports():
    """Status matrices over a 200-strong seeded corpus."""
    out = []
    for f, a in corpus(seed=2024, size=200):
        rep = classify(f, a)
        out.append((f, a, rep))
    return out


def test_equivalence_of_first_three_types(corpus_reports):
    # classify checks one type per equivalence group, so compare the
    # checker's own verdicts, witnesses included, type by type
    disagreements = 0
    for f, a, rep in corpus_reports:
        for L in rep.candidates:
            verdicts = {(v.status, v.witness) for v in (check(f, a, L, t) for t in (T1, T3, T4))}
            if len(verdicts) > 1:
                disagreements += 1
    assert disagreements == 0


def test_chain_soundness(corpus_reports):
    violations = 0
    for f, a, rep in corpus_reports:
        if not rep.chain_consistent:
            violations += 1
        for L in rep.candidates:
            for i, stronger in enumerate(STRENGTH):
                for weaker_group in STRENGTH[i + 1 :]:
                    for ts in stronger:
                        for tw in weaker_group:
                            if rep.matrix[(ts, L)] == "pass" and rep.matrix[(tw, L)] == "fail":
                                violations += 1
    assert violations == 0


def test_strict_separations(dirichlet, cantor_indicator, omega_indicator):
    # three witnesses that each inclusion in the tolerance chain is strict
    assert check(dirichlet, 0, 0, T5).passed() and check(dirichlet, 0, 0, T1).failed()
    assert check(cantor_indicator, 0, 0, T6).passed() and check(cantor_indicator, 0, 0, T5).failed()
    assert check(omega_indicator, 0, 0, T2).passed() and check(omega_indicator, 0, 0, T6).failed()


# --- uniqueness and non-uniqueness ---------------------------------------------


def test_non_uniqueness_over_countable_domain():
    dom = rationals_in(open_interval(-1, 1))
    assert not uniqueness_precondition(dom, 0, T5)
    rng = random.Random(99)
    for _ in range(10):
        f = PiecewiseFn(dom, (), Poly.make([rand_nonzero_rat(rng), 1]))
        assert check(f, 0, 0, T5).passed()
        assert check(f, 0, 1, T5).passed()  # two distinct passing values


def test_non_uniqueness_over_null_domain():
    dom = cantor_affine(0, 1)
    assert not uniqueness_precondition(dom, 0, T6)
    f = PiecewiseFn(dom, (), Poly.make([0, 1]))
    assert check(f, 0, 0, T6).passed()
    assert check(f, 0, 1, T6).passed()


def test_uniqueness_over_full_domain(corpus_reports):
    # the corpus lives on the full line, whose windows are uncountable and
    # of positive measure: at most one passing value per type
    assert uniqueness_precondition(FULL_LINE, 0, T5)
    assert uniqueness_precondition(FULL_LINE, 0, T6)
    violations = 0
    for f, a, rep in corpus_reports:
        for t in (T5, T6):
            passing = [L for L in rep.candidates if rep.matrix[(t, L)] == "pass"]
            if len(passing) > 1:
                violations += 1
    assert violations == 0


# --- arithmetic of certified limits ------------------------------------------------


def _certified_pairs(t6: bool, count: int):
    rng = random.Random(4242 if t6 else 2323)
    pairs = []
    while len(pairs) < count:
        a = rng.choice(CORPUS_POINTS)
        f1, L1 = certified_fn(rng, a, t6)
        f2, L2 = certified_fn(rng, a, t6)
        pairs.append((a, f1, L1, f2, L2))
    return pairs


@pytest.mark.parametrize("t6", [False, True], ids=["countable", "null"])
def test_limit_arithmetic(t6):
    t = T6 if t6 else T5
    violations = 0
    tested = 0
    for a, f1, L1, f2, L2 in _certified_pairs(t6, 30):
        assert check(f1, a, L1, t).passed()
        assert check(f2, a, L2, t).passed()
        try:
            if not check(fn_add(f1, f2), a, L1 + L2, t).passed():
                violations += 1
            if not check(fn_mul(f1, f2), a, L1 * L2, t).passed():
                violations += 1
            lam = Q(3, 2)
            if not check(fn_scale(f1, lam), a, lam * L1, t).passed():
                violations += 1
            tested += 3
        except UnsupportedIntersection:
            continue
    assert tested >= 60
    assert violations == 0


@pytest.mark.parametrize("t6", [False, True], ids=["countable", "null"])
def test_limit_quotient_with_constant_divisor(t6):
    t = T6 if t6 else T5
    rng = random.Random(777 if t6 else 555)
    violations = 0
    tested = 0
    while tested < 12:
        a = rng.choice(CORPUS_POINTS)
        f1, L1 = certified_fn(rng, a, t6)
        f2, L2 = certified_fn(rng, a, t6, constant_only=True)
        if L2 == 0:
            continue
        try:
            quot = fn_div(f1, f2)
        except Exception:
            continue
        if not check(quot, a, L1 / L2, t).passed():
            violations += 1
        tested += 1
    assert violations == 0


def test_two_sided_decomposition_composition():
    # build g with a classical limit plus h supported on a thin set, and
    # confirm the sum has the corresponding weak-type limit
    rng = random.Random(31415)
    for t6 in (False, True):
        t = T6 if t6 else T5
        for _ in range(12):
            a = rng.choice(CORPUS_POINTS)
            f, L = certified_fn(rng, a, t6)
            assert check(f, a, L, t).passed()
