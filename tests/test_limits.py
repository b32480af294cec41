from collections import Counter
from fractions import Fraction as Q

import pytest

from limitlab import limits
from limitlab.analyzers import cardinality, has_no_accumulation_point, measure
from limitlab.decompose import decompose, verify_decomposition
from limitlab.errors import PrerequisiteNotMet, UnsupportedIntersection
from limitlab.functions import PiecewiseFn, effective_regions, exceptional_set, indicator_fn, superlevel_sandwich
from limitlab.limits import (
    LimitType,
    _chain_consistent,
    _germ_small,
    _region_germs,
    _status,
    _test_epsilons,
    _witness_delta,
    candidates,
    check,
    classify,
    uniqueness_precondition,
)
from limitlab.poly import Poly
from limitlab.sets import (
    FULL_LINE,
    cantor_affine,
    interval,
    open_interval,
    points,
    rationals_in,
    sequence,
    window_trace,
)
from limitlab.terms import Term

from conftest import corpus, mirror_fn


T1, T2, T3, T4, T5, T6 = (
    LimitType.T1,
    LimitType.T2,
    LimitType.T3,
    LimitType.T4,
    LimitType.T5,
    LimitType.T6,
)


def test_check_fixture_verdicts(dirichlet, cantor_indicator, omega_indicator):
    assert check(dirichlet, 0, 0, T1).failed()
    assert check(dirichlet, 0, 0, T5).passed()
    assert check(cantor_indicator, 0, 0, T6).passed()
    assert check(cantor_indicator, 0, 0, T5).failed()
    assert check(omega_indicator, 0, 0, T2).passed()
    assert check(omega_indicator, 0, 0, T6).failed()


def test_pass_carries_witness_fail_carries_evidence(dirichlet):
    ok = check(dirichlet, 0, 0, T5)
    assert ok.passed() and len(ok.witness) >= 1
    for eps, delta in ok.witness:
        assert eps > 0 and delta > 0
    bad = check(dirichlet, 0, 0, T1)
    assert bad.failed() and bad.evidence


def test_candidates(dirichlet, identity_fn, omega_indicator):
    assert candidates(dirichlet, 0) == (0, 1)
    assert candidates(identity_fn, 2) == (2,)
    assert candidates(omega_indicator, 0) == (0, 1)


def test_classify_dirichlet(dirichlet):
    for a in (Q(0), Q(1, 3)):
        rep = classify(dirichlet, a)
        for t in (T1, T3, T4):
            assert rep.outcomes[t].exists == "no"
        for t in (T5, T6, T2):
            assert rep.outcomes[t].exists == "yes"
            assert rep.outcomes[t].value == 0
        assert rep.chain_consistent


def test_classify_cantor_indicator(cantor_indicator):
    rep = classify(cantor_indicator, 0)
    for t in (T1, T3, T4, T5):
        assert rep.outcomes[t].exists == "no"
    assert rep.outcomes[T6].exists == "yes" and rep.outcomes[T6].value == 0
    assert rep.outcomes[T2].exists == "yes" and rep.outcomes[T2].value == 0
    assert rep.chain_consistent


def test_classify_omega_indicator(omega_indicator):
    rep = classify(omega_indicator, 0)
    assert rep.outcomes[T6].exists == "no"
    assert rep.outcomes[T5].exists == "no"
    assert rep.outcomes[T2].exists == "yes" and rep.outcomes[T2].value == 0
    assert rep.chain_consistent


def test_classify_identity(identity_fn):
    rep = classify(identity_fn, 3)
    for t in LimitType:
        assert rep.outcomes[t].exists == "yes"
        assert rep.outcomes[t].value == 3
    assert rep.chain_consistent


def test_check_arbitrary_value_fails(cantor_indicator):
    # a value strictly between the two branch values fails every type
    for t in LimitType:
        assert check(cantor_indicator, 0, Q(1, 3), t).failed()


def test_restricted_domain_everything_passes():
    # over a countable domain, every value is a countable-type limit
    dom = rationals_in(open_interval(-1, 1))
    f = PiecewiseFn(dom, (), Poly.make([0, 1]))
    assert check(f, 0, 0, T5).passed()
    assert check(f, 0, 1, T5).passed()
    assert check(f, 0, Q(22, 7), T5).passed()


def test_uniqueness_preconditions():
    assert uniqueness_precondition(FULL_LINE, 0, T5)
    assert not uniqueness_precondition(rationals_in(open_interval(-1, 1)), 0, T5)
    assert not uniqueness_precondition(cantor_affine(0, 1), 0, T6)
    assert uniqueness_precondition(cantor_affine(0, 1), 0, T5)
    assert not uniqueness_precondition(points(1, 2), 0, T5)
    assert not uniqueness_precondition(sequence(Term.power(1, 1)), 0, T6)
    with pytest.raises(ValueError):
        uniqueness_precondition(FULL_LINE, 0, T1)


def test_sequence_domain_vacuous_pass_away_from_limit():
    # domain {1/n}: at a point that is not an accumulation point of the
    # domain the exceptional set is eventually empty for every value
    dom = sequence(Term.power(1, 1))
    f = PiecewiseFn(dom, (), Poly.const(7))
    assert check(f, Q(1, 2), Q(100), T1).passed()
    # at the accumulation point 0 only the true limit passes
    assert check(f, 0, 7, T1).passed()
    assert check(f, 0, 8, T1).failed()


# --- the region table against the eps-band reference -----------------------------


def _eps_band_reference(f, a, L, t):
    """(status, witness) of the eps-band check: at each test eps, the global
    carrier's inner sandwich side certifies a fail and its outer side a pass."""
    witness = []
    try:
        for eps in _test_epsilons(effective_regions(f), a, L):
            carrier = superlevel_sandwich(f, L, eps)
            if _germ_small(carrier.inner, a, t) is False:
                return "fail", ()
            if _germ_small(carrier.outer, a, t) is not True:
                return "undecidable", ()
            witness.append((eps, _witness_delta(carrier.outer, a, t)))
    except UnsupportedIntersection:
        return "undecidable", ()
    return "pass", tuple(witness)


def _window_small(f, a, L, eps, delta, t) -> bool:
    """Recheck a witness without the germ code: the exceptional set's outer
    sandwich side, traced on the punctured delta-window, is t-small."""
    trace = window_trace(exceptional_set(f, a, L, delta, eps).outer, a, delta)
    if t is T1:
        return cardinality(trace).kind == "empty"
    if t is T3:
        return cardinality(trace).kind in ("empty", "finite")
    if t is T4:
        return has_no_accumulation_point(trace)
    if t is T5:
        return cardinality(trace).kind != "uncountable"
    m = measure(trace)
    return m.value == 0 and m.bound_gap == 0


def _differential_cases(dirichlet, cantor_indicator, omega_indicator):
    cases = [(dirichlet, Q(0)), (cantor_indicator, Q(0)), (omega_indicator, Q(0))] + corpus(11, 60)
    return cases + [(mirror_fn(f), -a) for f, a in cases]


def test_region_table_agrees_with_the_eps_band_reference(dirichlet, cantor_indicator, omega_indicator):
    newly_decided = 0
    for f, a in _differential_cases(dirichlet, cantor_indicator, omega_indicator):
        rep = classify(f, a)
        _, tables = _region_germs(f, a, tuple(LimitType))
        for t, germs in zip(LimitType, tables):
            for L in rep.candidates:
                verdict = check(f, a, L, t)
                assert rep.matrix[(t, L)] == verdict.status == _status(germs, L)[0]
                ref_status, ref_witness = _eps_band_reference(f, a, L, t)
                if ref_status != "undecidable":
                    assert (verdict.status, verdict.witness) == (ref_status, ref_witness)
                    continue
                newly_decided += verdict.status != "undecidable"
                if verdict.passed() and t is not T2:  # a T2 witness is nominal
                    for eps, delta in verdict.witness:
                        assert _window_small(f, a, L, eps, delta, t), (a, L, t, eps, delta)
    assert newly_decided > 0


# --- one germ table per request ---------------------------------------------------


def test_chain_check_compares_groups_at_the_same_candidate():
    # one status list per CHAIN group (T1/T3/T4, T5, T6, T2), aligned with the candidates
    rest, mid = ["pass", "pass"], ["undecidable", "undecidable"]
    assert not _chain_consistent([["pass", "fail"], ["fail", "fail"], rest, rest])
    assert _chain_consistent([["fail", "fail"], ["pass", "fail"], rest, rest])
    assert not _chain_consistent([["fail", "pass"], mid, mid, ["undecidable", "fail"]])
    assert _chain_consistent([["undecidable", "fail"], mid, mid, ["fail", "pass"]])
    # a stronger pass and a weaker fail at different candidates break nothing
    assert _chain_consistent([["pass", "fail"], ["pass", "undecidable"], ["pass", "fail"], ["pass", "fail"]])


def test_one_germ_table_per_request(monkeypatch):
    counts = Counter()

    def counted(name):
        read = getattr(limits, name)

        def counting(*args):
            counts[name] += 1
            return read(*args)

        return counting

    for name in ("effective_regions", "_reaching_kinds", "density_at"):
        monkeypatch.setattr(limits, name, counted(name))
    decomposed = 0
    for f, a in corpus(11, 60):
        try:
            regions = len(effective_regions(f))
        except UnsupportedIntersection:
            regions = 0
        counts.clear()
        rep = classify(f, a)
        assert counts["effective_regions"] == 1
        assert counts["_reaching_kinds"] <= regions and counts["density_at"] <= regions
        for L in rep.candidates:
            for t in (T1, T5, T6):
                counts.clear()
                check(f, a, L, t)
                assert counts["effective_regions"] == 1 and counts["density_at"] == 0
            counts.clear()
            try:
                d = decompose(f, a, L, T5)
            except PrerequisiteNotMet:
                assert counts["effective_regions"] == 1
                continue
            assert counts["effective_regions"] == 1
            decomposed += 1
            counts.clear()
            try:
                verify_decomposition(d, f, a, L, T5, probes=10)
            except UnsupportedIntersection:
                pass
            assert counts["effective_regions"] == 1 and counts["density_at"] == 0
    assert decomposed > 0
