"""Command-line interface: classify, limit, measure, density, cardinality,
decompose, estimate, verify.

Exit codes: 0 for decided results (pass or fail), 2 for undecidable
results, 1 for errors (syntax, unsupported set algebra, bad flags or a
command line the parser does not accept).
Inputs given to --fn/--set are read from the named file when one exists,
otherwise treated as inline text in the DSL grammar.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from ._record import record
from .analyzers import cardinality, density_at, measure
from .decompose import decompose, verify_decomposition
from .dsl import fn_to_text, parse_fn, parse_rational, parse_set, rat_text, set_to_text
from .errors import LimitLabError, UndecidableDensity
from .limits import LimitType, check, classify, uniqueness_precondition
from .oracle import SampleConfig, mc_measure
from .sets import FULL_LINE, open_interval, rationals_in, window_trace

Q = Fraction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDABLE = 2


@record
class Report:
    command: str
    fields: dict
    exit_code: int
    lines: list | tuple

    def to_text(self) -> str:
        return "\n".join(self.lines)

    def to_structured(self) -> str:
        return json.dumps({"command": self.command, **self.fields}, indent=2)


def _read_source(value: str) -> str:
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _load_fn(value: str):
    return parse_fn(_read_source(value))


def _load_set(value: str):
    return parse_set(_read_source(value))


def _q(v) -> str:
    return rat_text(v)


def _outcome_fields(rep) -> dict:
    types = {}
    for t in LimitType:
        o = rep.outcomes[t]
        types[t.value] = {
            "exists": o.exists,
            "value": None if o.value is None else _q(o.value),
        }
    return {
        "point": _q(rep.point),
        "types": types,
        "chain_consistent": rep.chain_consistent,
        "candidates": [_q(c) for c in rep.candidates],
    }


def _cmd_classify(args) -> Report:
    f = _load_fn(args.fn)
    rep = classify(f, parse_rational(args.at))
    fields = _outcome_fields(rep)
    lines = [f"classification at {args.at}:"]
    for t in LimitType:
        o = rep.outcomes[t]
        val = "" if o.value is None else f" = {_q(o.value)}"
        lines.append(f"  {t.value}: {o.exists}{val}")
    lines.append(f"  chain consistent: {rep.chain_consistent}")
    undecided = any(rep.outcomes[t].exists == "undecidable" for t in LimitType)
    return Report("classify", fields, EXIT_UNDECIDABLE if undecided else EXIT_OK, lines)


def _cmd_limit(args) -> Report:
    f = _load_fn(args.fn)
    t = LimitType(args.type)
    verdict = check(f, parse_rational(args.at), parse_rational(args.value), t)
    fields = {
        "type": t.value,
        "point": args.at,
        "value": args.value,
        "status": verdict.status,
        "witness": [[_q(e), _q(d)] for e, d in verdict.witness],
        "evidence": verdict.evidence,
    }
    lines = [f"{t.value} limit {args.value} at {args.at}: {verdict.status}"]
    for e, d in verdict.witness:
        lines.append(f"  eps {_q(e)} -> delta {_q(d)}")
    if verdict.evidence:
        lines.append(f"  evidence: {verdict.evidence}")
    code = EXIT_UNDECIDABLE if verdict.status == "undecidable" else EXIT_OK
    return Report("limit", fields, code, lines)


def _cmd_measure(args) -> Report:
    expr = _load_set(args.set)
    m = measure(expr)
    fields = {
        "value": _q(m.value),
        "bound_gap": _q(m.bound_gap),
        "infinite": m.infinite,
        "exact": m.exact,
    }
    text = "infinite" if m.infinite else _q(m.value) + ("" if m.bound_gap == 0 else f" (+/- {_q(m.bound_gap)})")
    return Report("measure", fields, EXIT_OK, [f"measure: {text}"])


def _cmd_density(args) -> Report:
    expr = _load_set(args.set)
    a = parse_rational(args.at)
    try:
        v = density_at(expr, a)
    except UndecidableDensity as exc:
        fields = {"verdict": "undecided", "reason": str(exc)}
        return Report("density", fields, EXIT_UNDECIDABLE, [f"density at {args.at}: undecided ({exc})"])
    fields = {
        "verdict": v.kind,
        "value": None if v.value is None else _q(v.value),
        "lower_bound": None if v.lower_bound is None else _q(v.lower_bound),
    }
    if v.kind == "zero":
        text = "zero"
    elif v.kind == "value":
        text = f"value {_q(v.value)}"
    else:
        text = f"positive (liminf >= {_q(v.lower_bound)})"
    return Report("density", fields, EXIT_OK, [f"density at {args.at}: {text}"])


def _cmd_cardinality(args) -> Report:
    expr = _load_set(args.set)
    a = parse_rational(args.at)
    radius = parse_rational(args.radius)
    trace = window_trace(expr, a, radius)
    c = cardinality(trace)
    fields = {"kind": c.kind, "count": c.count, "point": args.at, "radius": args.radius}
    return Report(
        "cardinality",
        fields,
        EXIT_OK,
        [f"cardinality of the window trace at {args.at} (radius {args.radius}): {c}"],
    )


def _cmd_decompose(args) -> Report:
    f = _load_fn(args.fn)
    a = parse_rational(args.at)
    L = parse_rational(args.value)
    t = LimitType(args.type)
    d = decompose(f, a, L, t)
    ok = verify_decomposition(d, f, a, L, t)
    fields = {
        "delta0": _q(d.delta0),
        "exceptional_union": set_to_text(d.exceptional_union),
        "g": fn_to_text(d.g),
        "h": fn_to_text(d.h),
        "verified": ok,
    }
    lines = [
        f"decomposition for {t.value} limit {args.value} at {args.at}:",
        f"  delta0: {_q(d.delta0)}",
        f"  exceptional union: {set_to_text(d.exceptional_union)}",
        f"  verified: {ok}",
    ]
    return Report("decompose", fields, EXIT_OK if ok else EXIT_ERROR, lines)


def _cmd_estimate(args) -> Report:
    expr = _load_set(args.set)
    cfg = SampleConfig(args.seed, args.samples, parse_rational(args.at), parse_rational(args.radius))
    est = mc_measure(expr, cfg)
    fields = {
        "value": est.value,
        "three_sigma": est.three_sigma,
        "hits": est.hits,
        "samples": est.samples,
        "seed": args.seed,
    }
    return Report(
        "estimate",
        fields,
        EXIT_OK,
        [f"estimated measure: {est.value:.6f} +/- {est.three_sigma:.6f} ({est.hits}/{est.samples} hits)"],
    )


def _builtin_fixtures():
    dirichlet = parse_fn("piecewise { 1 on Q(R); else 0 }")
    cantor_fn = parse_fn("piecewise { 1 on cantor(0,1); else 0 }")
    omega_set = parse_set("family(1/n - (1/2)^n, 1/n)")
    omega_fn = parse_fn("piecewise { 1 on family(1/n - (1/2)^n, 1/n); else 0 }")
    return dirichlet, cantor_fn, omega_set, omega_fn


def _cmd_verify(args) -> Report:
    dirichlet, cantor_fn, omega_set, omega_fn = _builtin_fixtures()
    cases = []

    def add(name, ok):
        cases.append({"name": name, "ok": bool(ok)})

    rep = classify(dirichlet, 0)
    add("dirichlet: no classical limit at 0", rep.outcomes[LimitType.T1].exists == "no")
    add("dirichlet: countable-type limit 0", rep.outcomes[LimitType.T5].exists == "yes" and rep.outcomes[LimitType.T5].value == 0)
    add("dirichlet: null-type limit 0", rep.outcomes[LimitType.T6].exists == "yes" and rep.outcomes[LimitType.T6].value == 0)
    add("dirichlet: density-type limit 0", rep.outcomes[LimitType.T2].exists == "yes" and rep.outcomes[LimitType.T2].value == 0)

    rep_c = classify(cantor_fn, 0)
    add("cantor indicator: no countable-type limit", rep_c.outcomes[LimitType.T5].exists == "no")
    add("cantor indicator: null-type limit 0", rep_c.outcomes[LimitType.T6].exists == "yes" and rep_c.outcomes[LimitType.T6].value == 0)

    rep_o = classify(omega_fn, 0)
    add("omega indicator: no null-type limit", rep_o.outcomes[LimitType.T6].exists == "no")
    add("omega indicator: density-type limit 0", rep_o.outcomes[LimitType.T2].exists == "yes" and rep_o.outcomes[LimitType.T2].value == 0)

    m = measure(omega_set)
    add("omega measure exact, positive, at most 1", m.exact and 0 < m.value <= 1)
    add("omega density zero at 0", density_at(omega_set, 0).is_zero())
    add("uniqueness precondition holds on R", uniqueness_precondition(FULL_LINE, 0, LimitType.T5))
    add(
        "uniqueness precondition fails on the rationals",
        not uniqueness_precondition(rationals_in(open_interval(-1, 1)), 0, LimitType.T5),
    )

    all_ok = all(c["ok"] for c in cases)
    lines = [f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}" for c in cases]
    lines.append(f"{sum(c['ok'] for c in cases)}/{len(cases)} fixture checks passed")
    return Report("verify", {"cases": cases, "all_ok": all_ok}, EXIT_OK if all_ok else EXIT_ERROR, lines)


class UsageError(LimitLabError):
    """A command line the parser does not accept (argparse would exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="limitlab",
        description="Exact limit-type analysis of piecewise functions over structured real subsets.",
    )
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide all six limit types at a point")
    p.add_argument("--fn", required=True, help="function file or inline text")
    p.add_argument("--at", required=True, help="point, as p/q")

    p = sub.add_parser("limit", help="check one limit type for one value")
    p.add_argument("--fn", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--type", required=True, choices=[t.value for t in LimitType])

    p = sub.add_parser("measure", help="Lebesgue measure of a set")
    p.add_argument("--set", required=True)

    p = sub.add_parser("density", help="density of a set at a point")
    p.add_argument("--set", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("cardinality", help="cardinality of a punctured window trace")
    p.add_argument("--set", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--radius", default="1")

    p = sub.add_parser("decompose", help="split f = g + h realizing a T5/T6 limit")
    p.add_argument("--fn", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--type", required=True, choices=("t5", "t6"))

    p = sub.add_parser("estimate", help="Monte-Carlo measure estimate in a window")
    p.add_argument("--set", required=True)
    p.add_argument("--at", default="0")
    p.add_argument("--radius", default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)

    sub.add_parser("verify", help="run the built-in fixture corpus")
    return ap


_HANDLERS = {
    "classify": _cmd_classify,
    "limit": _cmd_limit,
    "measure": _cmd_measure,
    "density": _cmd_density,
    "cardinality": _cmd_cardinality,
    "decompose": _cmd_decompose,
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    args = argparse.Namespace()  # filled as parsing goes, so a usage error knows --format
    try:
        build_parser().parse_args(argv, args)
        report = _HANDLERS[args.command](args)
    except LimitLabError as exc:
        payload = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        if args.format == "structured":
            print(json.dumps(payload, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "structured":
        print(report.to_structured())
    else:
        print(report.to_text())
    return report.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
