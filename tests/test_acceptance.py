"""Acceptance gate: one test per criterion, each printing a pass line.

Criteria cover the three reference fixtures, the corpus-level structural
suites (equivalence, chain, uniqueness, arithmetic, decomposition), oracle
consistency, and parser robustness, together with their runtime budgets.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from limitlab.analyzers import density_at, measure
from limitlab.decompose import Decomposition, decompose, verify_decomposition
from limitlab.dsl import parse_set, set_to_text
from limitlab.errors import DslSyntaxError, RangeError, UnknownAtom, UnsupportedIntersection
from limitlab.functions import PiecewiseFn, fn_add, fn_div, fn_mul, fn_scale, indicator_fn
from limitlab.limits import LimitType, check, classify, uniqueness_precondition
from limitlab.oracle import SampleConfig, density_profile, mc_measure
from limitlab.poly import Poly
from limitlab.sets import (
    FULL_LINE,
    Union,
    cantor_affine,
    interval,
    open_interval,
    rationals_in,
)

from conftest import CORPUS_POINTS, certified_fn, corpus, rand_nonzero_rat
from test_dsl import _rand_grammar_set

T1, T2, T3, T4, T5, T6 = (
    LimitType.T1,
    LimitType.T2,
    LimitType.T3,
    LimitType.T4,
    LimitType.T5,
    LimitType.T6,
)


def _report(n: int, label: str):
    print(f"[PASS] criterion {n}: {label}")


@pytest.fixture(scope="module")
def acceptance_corpus():
    t0 = time.monotonic()
    reports = []
    for f, a in corpus(seed=424242, size=200):
        reports.append((f, a, classify(f, a)))
    return reports, time.monotonic() - t0


def test_criterion_1_dirichlet_fixture(dirichlet):
    t0 = time.monotonic()
    for a in (Q(0), Q(1, 3)):
        rep = classify(dirichlet, a)
        for t in (T1, T3, T4):
            assert rep.outcomes[t].exists == "no"
        for t in (T5, T6, T2):
            assert rep.outcomes[t].exists == "yes" and rep.outcomes[t].value == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(1, f"rational-indicator classification at 0 and 1/3 ({elapsed:.3f}s)")


def test_criterion_2_cantor_fixture(cantor_indicator):
    t0 = time.monotonic()
    rep = classify(cantor_indicator, 0)
    assert rep.outcomes[T5].exists == "no"
    assert rep.outcomes[T6].exists == "yes" and rep.outcomes[T6].value == 0
    assert rep.outcomes[T2].exists == "yes" and rep.outcomes[T2].value == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(2, f"Cantor-indicator classification at 0 ({elapsed:.3f}s)")


def test_criterion_3_omega_fixture(omega_indicator, omega_set):
    t0 = time.monotonic()
    rep = classify(omega_indicator, 0)
    assert rep.outcomes[T6].exists == "no"
    assert rep.outcomes[T2].exists == "yes" and rep.outcomes[T2].value == 0
    m = measure(omega_set)
    assert m.exact and 0 < m.value <= 1
    assert density_at(omega_set, 0).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(3, f"overlapping-family fixture: measure {m.value}, zero density ({elapsed:.3f}s)")


def test_criterion_4_equivalence_suite(acceptance_corpus):
    reports, elapsed = acceptance_corpus
    assert len(reports) >= 200
    disagreements = 0
    for f, a, rep in reports:
        for L in rep.candidates:
            verdicts = {(v.status, v.witness) for v in (check(f, a, L, t) for t in (T1, T3, T4))}
            if len(verdicts) > 1:
                disagreements += 1
    assert disagreements == 0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(4, f"empty/finite/isolated verdicts agree over {len(reports)} cases ({elapsed:.1f}s)")


def test_criterion_5_chain_suite(acceptance_corpus, dirichlet, cantor_indicator, omega_indicator):
    reports, _ = acceptance_corpus
    strength = ((T1, T3, T4), (T5,), (T6,), (T2,))
    violations = 0
    for f, a, rep in reports:
        for L in rep.candidates:
            for i, stronger in enumerate(strength):
                for weaker in strength[i + 1 :]:
                    for ts in stronger:
                        for tw in weaker:
                            if rep.matrix[(ts, L)] == "pass" and rep.matrix[(tw, L)] == "fail":
                                violations += 1
    assert violations == 0
    # the three fixtures witness every strict separation in the chain
    assert check(dirichlet, 0, 0, T5).passed() and check(dirichlet, 0, 0, T1).failed()
    assert check(cantor_indicator, 0, 0, T6).passed() and check(cantor_indicator, 0, 0, T5).failed()
    assert check(omega_indicator, 0, 0, T2).passed() and check(omega_indicator, 0, 0, T6).failed()
    _report(5, "tolerance chain sound on the corpus; all three separations strict")


def test_criterion_6_uniqueness_suite(acceptance_corpus):
    reports, _ = acceptance_corpus
    rng = random.Random(606)
    # countable domain: two distinct values pass the countable type
    dom = rationals_in(open_interval(-1, 1))
    assert not uniqueness_precondition(dom, 0, T5)
    for _ in range(5):
        f = PiecewiseFn(dom, (), Poly.make([rand_nonzero_rat(rng), 1]))
        assert check(f, 0, 0, T5).passed() and check(f, 0, 1, T5).passed()
    # null domain: two distinct values pass the null type
    cdom = cantor_affine(0, 1)
    assert not uniqueness_precondition(cdom, 0, T6)
    fc = PiecewiseFn(cdom, (), Poly.make([0, 1]))
    assert check(fc, 0, 0, T6).passed() and check(fc, 0, 1, T6).passed()
    # full line: never two distinct passing values
    violations = 0
    for f, a, rep in reports:
        for t in (T5, T6):
            passing = [L for L in rep.candidates if rep.matrix[(t, L)] == "pass"]
            if len(passing) > 1:
                violations += 1
    assert violations == 0
    _report(6, "uniqueness characterizations hold (countable and null domains vs the line)")


def test_criterion_7_arithmetic_suite():
    t0 = time.monotonic()
    violations = 0
    pairs_checked = 0
    for t6, seed in ((False, 9001), (True, 9002)):
        t = T6 if t6 else T5
        rng = random.Random(seed)
        while pairs_checked < (30 if not t6 else 60):
            a = rng.choice(CORPUS_POINTS)
            f1, L1 = certified_fn(rng, a, t6)
            f2, L2 = certified_fn(rng, a, t6)
            try:
                if not check(fn_add(f1, f2), a, L1 + L2, t).passed():
                    violations += 1
                if not check(fn_mul(f1, f2), a, L1 * L2, t).passed():
                    violations += 1
                if not check(fn_scale(f1, Q(-5, 3)), a, Q(-5, 3) * L1, t).passed():
                    violations += 1
            except UnsupportedIntersection:
                continue
            pairs_checked += 1
    # quotients with branchwise-constant divisors
    rng = random.Random(9003)
    quotients = 0
    while quotients < 10:
        a = rng.choice(CORPUS_POINTS)
        f1, L1 = certified_fn(rng, a, False)
        f2, L2 = certified_fn(rng, a, False, constant_only=True)
        if L2 == 0:
            continue
        try:
            q = fn_div(f1, f2)
        except Exception:
            continue
        if not check(q, a, L1 / L2, T5).passed():
            violations += 1
        quotients += 1
    assert pairs_checked >= 50
    assert violations == 0
    _report(7, f"limit arithmetic over {pairs_checked} pairs + {quotients} quotients ({time.monotonic()-t0:.1f}s)")


def test_criterion_8_decomposition_suite(dirichlet, cantor_indicator, identity_fn):
    rng = random.Random(808)
    passes = 0
    for t6 in (False, True):
        t = T6 if t6 else T5
        for _ in range(8):
            a = rng.choice(CORPUS_POINTS)
            f, L = certified_fn(rng, a, t6)
            d = decompose(f, a, L, t)
            assert verify_decomposition(d, f, a, L, t)
            passes += 1
    for f, a, L, t in (
        (dirichlet, Q(0), Q(0), T5),
        (cantor_indicator, Q(0), Q(0), T6),
        (identity_fn, Q(0), Q(0), T5),
    ):
        d = decompose(f, a, L, t)
        assert verify_decomposition(d, f, a, L, t)
        passes += 1
    # tampering must be detected
    d = decompose(dirichlet, 0, 0, T5)
    bad = Decomposition(d.g, fn_add(d.h, indicator_fn(interval(0, Q(1, 4)))), d.delta0, d.exceptional_union)
    assert not verify_decomposition(bad, dirichlet, 0, 0, T5)
    _report(8, f"decomposition round-trips over {passes} cases; tampering detected")


def test_criterion_9_oracle_suite(omega_set):
    t0 = time.monotonic()
    expr = Union((interval(Q(-3, 2), Q(-1, 2)), interval(0, Q(3, 4)), interval(1, Q(9, 8))))
    exact = float(measure(expr).value)
    agree = 0
    for seed in range(100):
        est = mc_measure(expr, SampleConfig(seed, 2500, Q(0), Q(2)))
        if abs(est.value - exact) <= est.three_sigma:
            agree += 1
    assert agree >= 99
    prof = density_profile(omega_set, 0, 14)
    ratios = [p.ratio for p in prof]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[12] < 0.05
    # independent tail-sum oracle: inside (0, 2^-12) the set is covered by
    # members from 4096 on, whose widths sum to 2^(1-4096) exactly
    tail_bound = 2.0 ** (1 - 4096) / (2 * 2.0**-12)
    assert ratios[12] <= max(tail_bound, 1e-300)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(9, f"oracle agreement {agree}/100; profile below 0.05 by depth 12 ({elapsed:.1f}s)")


def test_criterion_10_parser_suite():
    rng = random.Random(1010)
    count = 0
    while count < 500:
        text = _rand_grammar_set(rng)
        try:
            expr = parse_set(text)
        except (RangeError, UnknownAtom):
            continue
        assert parse_set(set_to_text(expr)) == expr
        count += 1
    # malformed inputs produce positioned syntax errors, never crashes
    bad_inputs = ["[0,", "Q((0,1)", "piecewise {", "family(1/n)", "cantor(1)", "[1, 0] |", "seq()"]
    for text in bad_inputs:
        try:
            parse_set(text)
        except DslSyntaxError as exc:
            assert exc.line >= 1 and exc.column >= 1
        except (RangeError, UnknownAtom):
            pass
    alphabet = "[](){}|&\\,;^*/+-0123456789xnQR "
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            parse_set(text)
        except (DslSyntaxError, RangeError, UnknownAtom):
            pass
    _report(10, "500 print-parse round trips; malformed inputs raise positioned errors")
