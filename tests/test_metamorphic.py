"""Metamorphic relations: reflection x -> -x and rational translation x -> x + c.

Mirroring a set maps membership at x to membership at -x and keeps its
measure, its density at a (read at -a) and the cardinality of its window
traces.  Mirroring a function into x -> f(-x) keeps every limit verdict at a,
read at -a.  Translating a set by c moves the same facts from x to x + c, and
translating a function into x -> f(x - c) keeps the outcomes and candidates
of its classification at a, read at a + c.  The mirror and the translate are
built in `conftest.py`, apart from the engine, so an orientation slip in the
engine's handling of tails that approach a point from the left, or an offset
slip in its integer coordinates, shows up here, not only in a hand-written
expectation.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from operator import neg

import pytest

from limitlab.analyzers import cardinality, density_at, has_no_accumulation_point, measure
from limitlab.dsl import parse_set, set_to_text
from limitlab.errors import LimitLabError
from limitlab.limits import LimitType, check, classify
from limitlab.sets import contains, normalize, window_trace

from conftest import corpus, mirror, mirror_fn, rand_set_expr, sample_rats, translate, translate_fn

# points where the random atoms accumulate or end, and their mirror images
_SPECIAL = (Q(0), Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(1, 3), Q(-1, 4))


def _outcome(fn):
    """fn(), or the name of the engine error it raises."""
    try:
        return fn()
    except LimitLabError as exc:
        return type(exc).__name__


def _trace_facts(e, a, r):
    trace = window_trace(e, a, r)
    return cardinality(trace), has_no_accumulation_point(trace)


def _set_mismatches(e, m, move, rng: random.Random) -> list[str]:
    """The facts of e at x that differ from those of its image m at move(x)."""
    out = []
    for x in list(_SPECIAL) + sample_rats(rng, 12, -2, 2):
        if contains(e, x) != contains(m, move(x)):
            out.append(f"contains at {x}")
    if _outcome(lambda: measure(e)) != _outcome(lambda: measure(m)):
        out.append("measure")
    for a in _SPECIAL:
        if _outcome(lambda: density_at(e, a)) != _outcome(lambda: density_at(m, move(a))):
            out.append(f"density at {a}")
        for r in (Q(1), Q(1, 8)):
            if _outcome(lambda: _trace_facts(e, a, r)) != _outcome(lambda: _trace_facts(m, move(a), r)):
                out.append(f"window trace at {a} radius {r}")
    return out


@pytest.mark.parametrize("depth, seed, count", [(2, 7, 160), (3, 8, 80)])
def test_reflection_of_set_trees(depth, seed, count):
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        e = rand_set_expr(rng, depth)
        failures += [f"{set_to_text(e)}: {what}" for what in _set_mismatches(e, mirror(e), neg, rng)]
    assert not failures, failures[:10]


# one-sided tails the random trees rarely build: families that collapse into
# an interval, touch, or have positive density at their limit, removals of
# such families, and a family beside an unbounded solid that touches its limit
_TAIL_SETS = (
    "[-1, 1] \\ family(1/n - 1/2/n^2, 1/n)",
    "[0, 1] \\ family(1/n - 1/2/n^2, 1/n)",
    "family(1/n - 1/2/n^2, 1/n) | [-1, 0]",
    "family(0, 1/n) \\ seq(1/n)",
    "family(1/2*(1/2)^n, (1/2)^n, 1, 0, 0) | points(0)",
    "family(1/4*(1/2)^n, (1/2)^n)",
    "family(1/2 + 1/4*(1/2)^n, 1/2 + (1/2)^n, 2, 1, 1) \\ [3/4, 1]",
    "[-1, 1] \\ family(1/n - (1/2)^n, 1/n)",
    "family(1/n - (1/2)^n, 1/n) \\ points(1/3, 1/4)",
    "seq(1/n) | seq(-1/n^2) | [1/3, 1/2]",
    "family(1/n - (1/2)^n, 1/n) | (-inf, 0]",
)


@pytest.mark.parametrize("text", _TAIL_SETS)
def test_reflection_of_tail_sets(text):
    # a refusal on both sides would count as agreement, so each hand-picked
    # set must also normalize
    e = parse_set(text)
    normalize(e)
    assert _set_mismatches(e, mirror(e), neg, random.Random(text)) == []


def test_reflection_of_limit_verdicts():
    failures = []
    for i, (f, a) in enumerate(corpus(11, 30)):
        g = mirror_fn(f)
        rep, rep_m = classify(f, a), classify(g, -a)
        if rep.outcomes != rep_m.outcomes or rep.candidates != rep_m.candidates:
            failures.append(f"corpus11[{i}]: classify")
        for t in LimitType:
            for L in rep.candidates:
                v, v_m = check(f, a, L, t), check(g, -a, L, t)
                if (v.status, v.witness) != (v_m.status, v_m.witness):
                    failures.append(f"corpus11[{i}]: {t.value} at L={L}")
    assert not failures, failures[:10]


_SHIFTS = (Q(3, 8), Q(-5, 3))


@pytest.mark.parametrize("depth, seed, count", [(2, 7, 160), (3, 8, 80), (2, 9, 200)])
def test_translation_of_set_trees(depth, seed, count):
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        e = rand_set_expr(rng, depth)
        for c in _SHIFTS:
            found = _set_mismatches(e, translate(e, c), lambda x: x + c, rng)
            failures += [f"{set_to_text(e)} shifted by {c}: {what}" for what in found]
    assert not failures, failures[:10]


@pytest.mark.parametrize("seed", [11, 12])
def test_translation_of_classification(seed):
    # witnesses may differ: root enclosures are not translation-invariant
    failures = []
    for i, (f, a) in enumerate(corpus(seed, 60)):
        rep = classify(f, a)
        for c in _SHIFTS:
            rep_t = classify(translate_fn(f, c), a + c)
            if rep.outcomes != rep_t.outcomes or rep.candidates != rep_t.candidates:
                failures.append(f"corpus{seed}[{i}] shifted by {c}")
    assert not failures, failures[:10]
