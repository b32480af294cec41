"""Golden verdicts: every decided answer of the engine on a fixed corpus.

The file `golden/verdicts.json` freezes, for the three separating fixtures
and `corpus(11, 60)`, the classify report, each `check` verdict with its
witnesses and evidence, each T5/T6 decomposition and the uniqueness
preconditions; and, for 60 seeded set expressions, their measure, density
and window-trace cardinality.  A refactor must leave it byte-identical.

Rewrite the file after a deliberate behaviour change with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from pathlib import Path

from limitlab.analyzers import (
    cardinality,
    density_at,
    has_no_accumulation_point,
    measure,
    trace_measure,
)
from limitlab.decompose import decompose
from limitlab.dsl import fn_to_text, set_to_text
from limitlab.errors import LimitLabError
from limitlab.functions import indicator_fn
from limitlab.limits import LimitType, check, classify, uniqueness_precondition
from limitlab.sets import FULL_LINE, cantor_affine, family, rationals_in, window_trace
from limitlab.terms import Term

from conftest import corpus, rand_set_expr

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"


def _q(x) -> str | None:
    return None if x is None else str(x)


def _attempt(fn, render):
    """render(fn()), or the name of the engine error it raises."""
    try:
        return render(fn())
    except LimitLabError as exc:
        return {"error": type(exc).__name__}


def _fixtures():
    omega = family(Term.power(1, 1) - Term.geometric(1, Q(1, 2)), Term.power(1, 1))
    return [
        ("dirichlet", indicator_fn(rationals_in(FULL_LINE)), Q(0)),
        ("cantor", indicator_fn(cantor_affine(0, 1)), Q(0)),
        ("omega", indicator_fn(omega), Q(0)),
    ]


def _verdict(v) -> dict:
    return {
        "status": v.status,
        "witness": [[_q(e), _q(d)] for e, d in v.witness],
        "evidence": v.evidence,
    }


def _decomposition(d) -> dict:
    return {"delta0": _q(d.delta0), "union": set_to_text(d.exceptional_union)}


def _function_record(name: str, f, a: Q) -> dict:
    rep = classify(f, a)
    rec = {
        "name": name,
        "fn": fn_to_text(f),
        "a": _q(a),
        "candidates": [_q(L) for L in rep.candidates],
        "chain_consistent": rep.chain_consistent,
        "matrix": {f"{t.value}@{L}": s for (t, L), s in sorted(rep.matrix.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))},
        "outcomes": {t.value: [o.exists, _q(o.value)] for t, o in sorted(rep.outcomes.items(), key=lambda kv: kv[0].value)},
        "checks": {
            f"{t.value}@{L}": _verdict(check(f, a, L, t)) for t in LimitType for L in rep.candidates
        },
    }
    decomps = {}
    uniq = {}
    for t in (LimitType.T5, LimitType.T6):
        out = rep.outcomes[t]
        if out.exists == "yes":
            decomps[t.value] = _attempt(lambda: decompose(f, a, out.value, t), _decomposition)
        guards = [f.domain] + [g for g, _ in f.branches]
        uniq[t.value] = [_attempt(lambda g=g: uniqueness_precondition(g, a, t), bool) for g in guards]
    rec["decompose"] = decomps
    rec["unique"] = uniq
    return rec


def _measure(m) -> list:
    return [_q(m.value), m.certified, _q(m.bound_gap), m.infinite]


def _density(d) -> list:
    return [d.kind, _q(d.value), _q(d.lower_bound), d.reason]


def _set_record(e) -> dict:
    trace = lambda: window_trace(e, 0, 1)  # noqa: E731
    return {
        "set": set_to_text(e),
        "measure": _attempt(lambda: measure(e), _measure),
        "density": {str(a): _attempt(lambda a=a: density_at(e, a), _density) for a in (Q(0), Q(1, 2))},
        "trace_measure": _attempt(lambda: trace_measure(trace()), _measure),
        "cardinality": _attempt(lambda: cardinality(trace()), str),
        "no_accumulation": _attempt(lambda: has_no_accumulation_point(trace()), bool),
    }


def golden_records() -> dict:
    functions = [_function_record(name, f, a) for name, f, a in _fixtures()]
    functions += [_function_record(f"corpus11[{i}]", f, a) for i, (f, a) in enumerate(corpus(11, 60))]
    rng = random.Random(43)
    sets = [_set_record(rand_set_expr(rng, 2)) for _ in range(60)]
    return {"functions": functions, "sets": sets}


def render() -> str:
    return json.dumps(golden_records(), indent=1, sort_keys=True) + "\n"


def test_golden_verdicts():
    text = render()
    frozen_text = GOLDEN.read_text(encoding="utf-8")
    if text != frozen_text:
        fresh, frozen = json.loads(text), json.loads(frozen_text)
        for kind in ("functions", "sets"):
            assert len(fresh[kind]) == len(frozen[kind])
            for new, old in zip(fresh[kind], frozen[kind]):
                assert new == old
    assert text == frozen_text


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
