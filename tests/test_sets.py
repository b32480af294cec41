import json
import random
import time
from collections import Counter
from fractions import Fraction as Q
from functools import partial
from pathlib import Path

import pytest

from limitlab import sampling, sets
from limitlab.analyzers import cardinality, density_at, measure
from limitlab.decompose import decompose, verify_decomposition
from limitlab.dsl import parse_fn, parse_set, set_to_text
from limitlab.errors import UnsupportedIntersection
from limitlab.functions import effective_regions, fn_evaluator
from limitlab.limits import LimitType, check, classify
from limitlab.oracle import SampleConfig, mc_measure
from limitlab.sampling import sample_points
from limitlab.sets import (
    EMPTY,
    FULL_LINE,
    CantorAffine,
    Difference,
    EmptySet,
    FinitePoints,
    Intersection,
    Interval,
    IntervalFamily,
    Normal,
    Piece,
    RationalsIn,
    Sequence,
    Union,
    cantor_affine,
    cantor_meets_interval,
    contains,
    family,
    interval,
    membership,
    normalize,
    open_interval,
    piece_distance_floor,
    piece_reaches,
    piece_tester,
    points,
    rationals_in,
    sequence,
    window_trace,
)
from limitlab.terms import Term

from conftest import _tree_contains, cantor_bricks_meet_open, corpus, mirror, rand_set_expr, sample_rats


def test_interval_clipping_example():
    e = normalize(Difference(interval(0, 2), open_interval(1, 3)))
    assert e == interval(0, 1)


def test_rationals_clip_example():
    e = normalize(Intersection((rationals_in(open_interval(0, 1)), interval(Q(1, 2), 2))))
    assert e == rationals_in(interval(Q(1, 2), 1, True, False))


def test_cantor_middle_third_empty():
    e = normalize(Intersection((cantor_affine(0, 1), open_interval(Q(1, 3), Q(2, 3)))))
    assert isinstance(e, EmptySet)


def test_degenerate_interval_normalization():
    assert interval(1, 1) == points(1)
    assert isinstance(interval(1, 1, True, False), EmptySet)
    assert isinstance(interval(2, 1), EmptySet)


def test_normalize_idempotent_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(160):
        expr = rand_set_expr(rng, depth=2)
        try:
            once = normalize(expr)
        except UnsupportedIntersection:
            continue
        assert normalize(once) == once
        checked += 1
    assert checked >= 80
    # depth-3 trees and their mirrors: overlapping removed rationals (seed
    # 698) and a rational piece whose removals were all clipped away (seed
    # 1988) once left a second pass with more to merge
    checked = 0
    for seed in range(3000):
        expr = rand_set_expr(random.Random(seed), 3)
        for e in (expr, mirror(expr)):
            try:
                once = normalize(e)
            except UnsupportedIntersection:
                continue
            assert normalize(once) == once, (seed, set_to_text(e))
            checked += 1
    assert checked > 5400


def test_normal_form_is_a_fixpoint_when_a_point_joins_two_rational_pieces():
    once = normalize(parse_set("Q((0,1)) | Q((1,2)) | points(1)"))
    assert once == parse_set("Q((0,2))")
    assert normalize(once) == once


def test_contains_agrees_with_normalize():
    # the reference is node-by-node membership on the tree, which never
    # builds a normal form
    rng = random.Random(13)
    pts = sample_rats(rng, 60)
    checked = 0
    for _ in range(120):
        expr = rand_set_expr(rng, depth=2)
        try:
            norm = normalize(expr)
        except UnsupportedIntersection:
            continue
        checked += 1
        for x in pts:
            expected = _tree_contains(expr, x)
            assert contains(expr, x) == expected, (expr, x)
            assert contains(norm, x) == expected, (expr, x)
    assert checked >= 60


def test_de_morgan_on_sampled_points():
    rng = random.Random(17)
    pts = sample_rats(rng, 1000)
    for _ in range(25):
        a = rand_set_expr(rng, 1)
        b = rand_set_expr(rng, 1)
        c = rand_set_expr(rng, 1)
        lhs = Difference(a, Union((b, c)))
        rhs = Intersection((Difference(a, b), Difference(a, c)))
        for x in pts[:40]:
            assert contains(lhs, x) == contains(rhs, x)


# --- membership -------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [
        (Q(1, 4), True),
        (Q(1, 2), False),
        (Q(1, 3), True),
        (Q(2, 3), True),
        (Q(3, 4), True),
        (Q(4, 9), False),
        (Q(0), True),
        (Q(1), True),
        (Q(7, 9), True),
        (Q(1, 5), False),
        (Q(3, 10), True),  # 0.0220 0220... repeating
    ],
)
def test_cantor_membership(x, expected):
    assert cantor_affine(0, 1).contains(x) is expected


def test_cantor_membership_affine():
    c = cantor_affine(1, Q(1, 2))  # {1 + v/2 : v in the unit Cantor set}
    assert contains(c, 1 + Q(1, 8))  # base point 1/4
    assert not contains(c, 1 + Q(1, 4))  # base point 1/2
    assert contains(c, Q(3, 2))  # base point 1
    neg = cantor_affine(0, -1)  # mirrored copy in [-1, 0]
    assert contains(neg, -Q(1, 4))
    assert not contains(neg, -Q(1, 2))


def test_rationals_membership():
    assert contains(rationals_in(open_interval(0, 1)), Q(1, 2))
    assert not contains(rationals_in(open_interval(0, 1)), Q(3, 2))


def test_sequence_membership():
    s = sequence(Term.power(1, 1))  # {1/n}
    assert contains(s, Q(1, 7))
    assert not contains(s, Q(2, 7))
    assert not contains(s, 0)


def test_family_membership(omega_set):
    assert contains(omega_set, Q(1, 2))
    assert contains(omega_set, Q(3, 4))
    assert not contains(omega_set, Q(167, 1000))
    assert not contains(omega_set, 0)
    assert contains(omega_set, Q(1, 64) - Q(1, 2**64) + Q(1, 2**65))


def _outcome(test, x):
    try:
        return test(x)
    except UnsupportedIntersection as exc:
        return str(exc)


def _atoms(expr):
    if isinstance(expr, (Union, Intersection)):
        return [a for arg in expr.args for a in _atoms(arg)]
    if isinstance(expr, Difference):
        return _atoms(expr.left) + _atoms(expr.right)
    return [expr]


def _atom_probes(atom):
    """The atom's box ends, limit, first values (sequences), first member
    ends (families) and span ends (Cantor images)."""
    if isinstance(atom, EmptySet):
        return []
    if isinstance(atom, FinitePoints):
        return list(atom.points)
    if isinstance(atom, Sequence):
        return [atom.limit] + [atom.term.eval(n) for n in range(atom.start, atom.start + 6)]
    if isinstance(atom, IntervalFamily):
        return [atom.lo.limit, atom.hi.limit] + [
            t.eval(n) for n in range(atom.start, atom.start + 6) for t in (atom.lo, atom.hi)
        ]
    boxes = [atom.box()] + ([atom.span()] if isinstance(atom, CantorAffine) else [])
    return [v for b in boxes for v in (b.lo, b.hi) if v is not None]


def _printed(expr):
    """expr with each normal form in it printed as its tree of atoms, so
    that _tree_contains tests atoms and never the testers of pieces."""
    if isinstance(expr, Normal):
        return expr.to_expr()
    if isinstance(expr, (Union, Intersection)):
        return type(expr)(_printed(a) for a in expr.args)
    if isinstance(expr, Difference):
        return Difference(_printed(expr.left), _printed(expr.right))
    return expr


def _sets_normalized_by_the_fixtures(monkeypatch, fixtures):
    seen = {}
    body = sets._normal_of

    def recorded(expr):
        seen[_printed(expr)] = None
        return body(expr)

    monkeypatch.setattr(sets, "_normal_of", recorded)
    sets._normal_or_refusal.cache_clear()
    for f in fixtures:
        rep = classify(f, 0)
        for t in (LimitType.T5, LimitType.T6):
            out = rep.outcomes[t]
            if out.exists == "yes":
                d = decompose(f, 0, out.value, t)
                verify_decomposition(d, f, 0, out.value, t, probes=100)
    monkeypatch.undo()
    return list(seen)


def _corpus_sets():
    out = []
    for f, a in corpus(11, 60):
        out.extend(region.to_expr() for region, _ in effective_regions(f))
        rep = classify(f, a)
        for t in (LimitType.T5, LimitType.T6):
            out_t = rep.outcomes[t]
            if out_t.exists != "yes":
                continue
            try:
                d = decompose(f, a, out_t.value, t)
            except UnsupportedIntersection:
                continue
            out.append(d.exceptional_union.to_expr())
            out.extend(guard.to_expr() for guard, _ in d.h.branches)
    return out


# A family tail whose member 20 ends at 1/20, with closed edges, against
# boxes and solids with an edge at 1/20; the last set keeps its rationals
# removed from the members that a solid beside the limit leaves over.
_MEMBER_EDGE_SETS = [
    ("family(1/n - (1/2)^n, 1/n, 1, 1, 1) & [1/20, 1]", Q(1, 20)),
    ("family(1/n - (1/2)^n, 1/n, 1, 1, 1) \\ (-1, 1/20)", Q(1, 20)),
    ("family(-1/n, -1/n + (1/2)^n, 1, 1, 1) & [-1, -1/20]", Q(-1, 20)),
    ("family(1/n - (1/2)^n, 1/n, 1, 1, 1) | (0, 1/20)", Q(1, 20)),
]
_MEMBERS_MINUS_RATIONALS = "(family(1/n - (1/2)^n, 1/n, 1, 1, 1) \\ Q([0, 1])) | [0, 1/20]"


def _member_edge_sets():
    exprs = [parse_set(text) for text, _ in _MEMBER_EDGE_SETS] + [parse_set(_MEMBERS_MINUS_RATIONALS)]
    return exprs + [mirror(e) for e in exprs]


@pytest.mark.parametrize("text, edge", _MEMBER_EDGE_SETS)
def test_closed_member_edge_on_a_box_edge_is_kept(text, edge):
    e = parse_set(text)
    assert contains(e, edge) is True
    assert contains(mirror(e), -edge) is True
    assert contains(normalize(e), edge) is True


def test_members_left_beside_a_solid_keep_their_removals():
    e = parse_set(_MEMBERS_MINUS_RATIONALS)
    for x in (Q(1, 19), Q(1, 2), Q(3, 4)):
        assert contains(e, x) is False
        assert contains(mirror(e), -x) is False
    assert contains(e, Q(1, 40)) is True


def test_tail_lookup_past_its_index_bound_refuses():
    # 1/2^70 is the member of index 2^70 and 3/2^71 lies between two members
    # past index 2^62, where the index search stops
    s = parse_set("seq(1/n)")
    for x in (Q(1, 2**70), Q(3, 2**71)):
        with pytest.raises(UnsupportedIntersection, match="2\\^62"):
            contains(s, x)
    with pytest.raises(UnsupportedIntersection, match="2\\^62"):
        piece_distance_floor(sets.Piece(s), Q(1, 2**70) + Q(1, 2**200))


def test_mixed_tail_lookup_past_the_exponent_cap_answers_exactly():
    # the member of index 20000 holds (1/2)^20000, past the exponent cap of
    # Term.eval_bounds, so only an exact comparison tells it from its neighbours
    s = parse_set("seq((1/2)^n + 1/n^2)")
    x = s.term.eval(20000)
    assert contains(s, x) is True
    assert contains(s, x + Q(1, 2**30000)) is False
    assert contains(s, s.term.eval(20001)) is True


def test_geometric_tail_lookup_past_the_exact_budget_refuses():
    # the crossing index is 600000, and (1/2)^600000 needs more bits than an
    # exact comparison may build
    with pytest.raises(UnsupportedIntersection, match="2\\^20 bits"):
        contains(parse_set("seq((1/2)^n)"), Q(3, 2**600001))


@pytest.mark.parametrize("text", ["seq((1/2)^n, 100000000000)", "family(1/n - (1/2)^n, 1/n, 100000000000)"])
def test_geometric_tail_with_a_far_start_refuses_at_once(text):
    # the first member holds (1/2)^(10^11), 10^11 bits long: its value, like
    # an exact comparison, refuses past 2^20 bits instead of building it
    began = time.perf_counter()
    with pytest.raises(UnsupportedIntersection, match="2\\^20 bits"):
        measure(parse_set(text))
    assert time.perf_counter() - began < 1


def test_membership_agrees_with_the_tree(monkeypatch, dirichlet, cantor_indicator, omega_indicator, identity_fn):
    # membership(e) compiles the testers of e's normal form; _tree_contains
    # tests e node by node without normalizing
    fixtures = (dirichlet, cantor_indicator, omega_indicator, identity_fn)
    # the set of test_removed_cantor_point_is_not_contained shows the known
    # defect of the normal form
    removed_cantor_point = parse_set("cantor(-1/2,-1) & ([-1,1/8) \\ cantor(-3/4,1/2))")
    exprs = _sets_normalized_by_the_fixtures(monkeypatch, fixtures) + _corpus_sets() + [removed_cantor_point]
    exprs += _member_edge_sets()
    rng = random.Random(29)
    exprs += [rand_set_expr(rng, 3) for _ in range(400)]
    checked, defective = 0, set()
    for e in dict.fromkeys(exprs):
        atoms = _atoms(e)
        try:
            pieces = sets._normal(e).pieces
        except UnsupportedIntersection:
            pieces = ()
        atoms += [a for p in pieces for a in (p.core, *p.removals)]
        xs = [x for atom in atoms for x in _atom_probes(atom)]
        try:
            xs += sample_points(e, count=50, seed=3)
        except UnsupportedIntersection:
            pass
        member = membership(e)
        for x in dict.fromkeys(xs):
            got, want = _outcome(member, x), _outcome(partial(_tree_contains, e), x)
            checked += 1
            if got != want:
                # the known defect of test_removed_cantor_point_is_not_contained:
                # the normal form drops the removals of a Cantor core, so it
                # keeps points that the tree removes
                holders = [p.core for p in pieces if piece_tester(p)(x)]
                assert (got, want) == (True, False) and all(isinstance(c, CantorAffine) for c in holders), (e, x)
                defective.add(e)
    assert checked > 25000
    assert defective == {removed_cantor_point}


def test_contains_refuses_only_where_a_point_reaches_the_refused_atom():
    # the sequence's head runs past MAX_MATERIALIZE, so the union does not
    # normalize and the tree is tested node by node
    e = parse_set("[0, 1] | seq(1/n - 30000/n^2)")
    assert contains(e, Q(1, 2)) is True
    with pytest.raises(UnsupportedIntersection, match="too large to materialize"):
        contains(e, 2)
    with pytest.raises(UnsupportedIntersection, match="too large to materialize"):
        contains(parse_set("seq(1/n - 30000/n^2)"), 1)
    with pytest.raises(UnsupportedIntersection, match="too large to materialize"):
        mc_measure(parse_set("seq(1/n - 30000/n^2)"), SampleConfig(7, 16, Q(0), Q(1)))


def test_refused_tree_builds_each_atom_tester_once(monkeypatch):
    builds = Counter()

    def counted(build):
        def tester(self):
            builds[id(self)] += 1
            return build(self)

        return tester

    for cls in (EmptySet, Interval, FinitePoints, RationalsIn, CantorAffine, Sequence, IntervalFamily):
        monkeypatch.setattr(cls, "tester", counted(cls.tester))
    # a tree cached by an earlier test would be tested without a build
    sets.membership.cache_clear()
    rng = random.Random(23)
    refused = []
    for _ in range(400):
        e = rand_set_expr(rng, 3)
        try:
            sets._normal(e)
        except UnsupportedIntersection:
            refused.append(e)
    assert len(refused) >= 20
    pad = sample_rats(random.Random(31), 64)
    built = 0
    for e in refused:
        atoms = _atoms(e)
        xs = list(dict.fromkeys([x for atom in atoms for x in _atom_probes(atom)] + pad))[:64]
        builds.clear()
        member = membership(e)
        got = [_outcome(member, x) for x in xs]
        in_tree = Counter(id(atom) for atom in atoms)
        assert all(builds[k] <= n for k, n in in_tree.items()), e
        built += sum(builds[k] for k in in_tree)
        assert got == [_outcome(partial(_tree_contains, e), x) for x in xs], e
    assert built > 2 * len(refused)
    # a refused build is retried, and refuses alike, at each point that reaches its atom
    member = membership(parse_set("[0, 1] | seq(1/n - 30000/n^2)"))
    assert [_outcome(member, x) for x in (Q(2), Q(1, 2), Q(2))] == [
        "sequence head too large to materialize", True, "sequence head too large to materialize"
    ]


def test_every_node_answers_contains():
    # x in e by e's own node testers agrees with contains(), which tests the
    # normal form and falls back to the node testers on a refusal
    e = parse_set("[0,1] | points(3)")
    assert e.contains(Q(1, 2)) and not (e & points(1)).contains(Q(1, 2)) and (e - points(1)).contains(Q(3))
    rng = random.Random(43)
    refused = checked = 0
    for _ in range(400):
        e = rand_set_expr(rng, 3)
        try:
            pieces = sets._normal(e).pieces
        except UnsupportedIntersection:
            refused, pieces = refused + 1, ()
        xs = dict.fromkeys(x for atom in _atoms(e) for x in _atom_probes(atom))
        for x in xs:
            got, want = _outcome(e.contains, x), _outcome(partial(contains, e), x)
            checked += 1
            if got != want:
                # the known defect of test_removed_cantor_point_is_not_contained
                holders = [p.core for p in pieces if piece_tester(p)(x)]
                assert (got, want) == (False, True) and all(isinstance(c, CantorAffine) for c in holders), (e, x)
    assert refused >= 20 and checked > 3000


def test_tail_head_testers_are_built_once(monkeypatch):
    # Cantor minus rationals is outside the algebra, so each union is tested
    # node by node and the tail's tester resolves the atom itself, head and all
    refused = parse_set("cantor(0, 1) \\ Q((0, 1))")
    xs = sample_rats(random.Random(37), 64, -1, 1)
    builds = Counter()
    body = sets.piece_tester

    def counted(piece):
        builds[piece] += 1
        return body(piece)

    monkeypatch.setattr(sets, "piece_tester", counted)
    # a cached tree would hold tail testers built before the count
    sets.membership.cache_clear()
    for text in ("seq(1/n - 3/n^2)", "family(1/n - (1/2)^n, 1/n)"):
        tail = parse_set(text)
        head = sets._resolve(tail)[0]
        assert head
        e = Union((tail, refused))
        want = [_tree_contains(e, x) for x in xs]
        member = membership(e)
        builds.clear()
        assert [member(x) for x in xs] == want, text
        assert any(want) and all(builds[h] == 1 for h in head), (text, builds)


def test_equal_trees_share_one_tester():
    text = "(0, 1] \\ seq(1/2 + 1/n) | family(1/n - (1/2)^n, 1/n) | cantor(2, 1)"
    first, second = parse_set(text), parse_set(text)
    assert first is not second and first == second
    assert membership(first) is membership(second)
    refused = "cantor(0, 1) \\ Q((0, 1))"
    assert membership(parse_set(refused)) is membership(parse_set(refused))


def test_fn_evaluator_builds_guard_testers_once(monkeypatch):
    f = parse_fn("piecewise { -1 - x on seq(-1/2 + 2*(1/2)^n, 2); -11/4 on Q((-11/4, 1/4]); else -3/8 + 3/2*x }")
    xs = [Q(1, 2), Q(5, 4), Q(-1, 2), Q(0), Q(-11, 4), Q(3)]
    builds = Counter()
    body = sets.piece_tester

    def counted(piece):
        builds[piece] += 1
        return body(piece)

    monkeypatch.setattr(sets, "piece_tester", counted)
    sets.membership.cache_clear()
    values = [[evaluate(x) for x in xs] for evaluate in (fn_evaluator(f), fn_evaluator(f))]
    assert values[0] == values[1]
    assert builds and all(n == 1 for n in builds.values()), builds


def test_membership_cache_churn_keeps_answers_and_refusals():
    # more trees than membership keeps, queried in turn, so each pass evicts
    # every tester and builds it again; the last tree refuses at the points
    # that reach its sequence
    sets.membership.cache_clear()
    bound = sets.membership.cache_info().maxsize
    rng = random.Random(67)
    trees = list(dict.fromkeys(rand_set_expr(rng, 3) for _ in range(3 * bound)))
    trees.append(parse_set("[0, 1] | seq(1/n - 30000/n^2)"))
    refused = []
    for e in trees:
        try:
            sets._normal(e)
        except UnsupportedIntersection:
            refused.append(e)
    assert len(trees) > 2 * bound and len(refused) >= 5
    probes = [list(dict.fromkeys(x for atom in _atoms(e) for x in _atom_probes(atom))) for e in trees]
    probes[-1].append(Q(2))
    passes = [[[_outcome(partial(contains, e), x) for x in xs] for e, xs in zip(trees, probes)] for _ in range(2)]
    assert sets.membership.cache_info().currsize == bound
    assert passes[1] == passes[0]
    for e, xs, got in zip(trees, probes, passes[1]):
        for x, outcome in zip(xs, got):
            want = _outcome(partial(_tree_contains, e), x)
            if outcome != want:
                # the known defect of test_removed_cantor_point_is_not_contained
                holders = [p.core for p in sets._normal(e).pieces if piece_tester(p)(x)]
                assert (outcome, want) == (True, False) and all(isinstance(c, CantorAffine) for c in holders), (e, x)
    assert passes[1][-1][-1] == "sequence head too large to materialize"



def _old_box_candidates(atom, rng, center, spread, want):
    box = atom.box()
    lo, hi = box.lo, box.hi
    if lo is None:
        lo = center - spread if hi is None or center - spread < hi else hi - spread
    if hi is None:
        hi = center + spread if center + spread > lo else lo + spread
    out = []
    for _ in range(want):
        den = rng.choice((64, 128, 256, 1024, 4096))
        out.append(lo + (hi - lo) * Q(rng.randrange(1, den), den))
    return out


# negative and integer centers, spreads with large denominators
_CENTERS = [(Q(0), Q(2)), (Q(-3), Q(1)), (Q(-7, 3), Q(5, 2**70 + 1)), (Q(4), Q(3**41, 7**30))]


@pytest.mark.parametrize("center, spread", _CENTERS)
def test_box_candidates_are_the_points_of_the_fraction_formula(center, spread):
    atoms = [
        interval(Q(-1, 3), Q(5, 7)),
        interval(-5, Q(1, 2**40) + Q(1, 3**30)),
        rationals_in(open_interval(Q(-9, 4), 0)),
        FULL_LINE,
        interval(None, Q(-11, 6), False, True),  # half-unbounded, on either side of the cut
        interval(None, Q(10**9 + 1, 3), False, False),
        interval(Q(1, 3), None, True, False),
        rationals_in(interval(Q(-10**9, 7), None, False, False)),
    ]
    for seed, atom in enumerate(atoms):
        got = atom.candidates(random.Random(seed), center, spread, 40)
        assert got == _old_box_candidates(atom, random.Random(seed), center, spread, 40), atom
        assert all(type(x) is Q for x in got)


@pytest.mark.parametrize("center, spread", _CENTERS)
def test_rejection_draws_are_the_points_of_the_fraction_formula(monkeypatch, center, spread):
    # the fallback of sample_points on a tree that does not normalize
    def refused(expr):
        raise UnsupportedIntersection("refused")

    drawn = []
    monkeypatch.setattr(sampling, "_normal", refused)
    monkeypatch.setattr(sampling, "membership", lambda expr: drawn.append)
    assert sample_points(FULL_LINE, count=10, seed=5, center=center, spread=spread) == []
    rng, old = random.Random(5), []
    for _ in range(200):
        den = rng.choice((64, 256, 1024, 4096))
        old.append(center - spread + 2 * spread * Q(rng.randrange(0, den + 1), den))
    assert drawn == old


# --- cantor interval meets -----------------------------------------------------


def test_cantor_meets_examples():
    c = cantor_affine(0, 1)
    assert not cantor_meets_interval(c, Interval(Q(1, 3), Q(2, 3), False, False))
    assert cantor_meets_interval(c, Interval(Q(3, 10), Q(2, 5), False, False))
    for k in (1, 5, 20, 63):
        assert cantor_meets_interval(c, Interval(Q(0), Q(1, 2**k), False, False))


def test_cantor_emptiness_agrees_with_the_brick_search():
    # bounded windows with triadic and mixed ends; a pair is skipped only
    # where the reference refuses
    rng = random.Random(53)
    dens = [3**k for k in range(13)] + [2**i * 3**j for i in range(11) for j in range(6)]

    def end():
        d = rng.choice(dens)
        return Q(rng.randint(-d // 4 - 1, d + d // 4 + 1), d)

    checked = 0
    for _ in range(101_000):
        lo, hi = sorted((end(), end()))
        if lo == hi:
            continue
        try:
            want = cantor_bricks_meet_open(lo, hi)
        except UnsupportedIntersection:
            continue
        assert sets._cantor_meets_open(lo, hi) == want, (lo, hi)
        checked += 1
    assert checked >= 100_000


def test_deep_cantor_window_is_decided():
    # the window's right end shares its first 500 ternary digits with 1/4,
    # past the depth at which the brick search gives up
    r = Q(1, 4) + Q(1, 3**500)
    with pytest.raises(UnsupportedIntersection):
        cantor_bricks_meet_open(Q(1, 4), r)
    e = Intersection((cantor_affine(0, 1), open_interval(Q(1, 4), r)))
    m = measure(e)
    assert m.certified and m.value == 0
    assert cardinality(window_trace(e, Q(1, 4), Q(1))).kind == "uncountable"


def test_cantor_emptiness_is_asked_of_nondegenerate_windows(monkeypatch, cantor_set, cantor_indicator):
    # the midpoint gap test needs lo < hi: for lo = hi = 1/3 it would say
    # the empty window meets the set
    calls = []
    body = sets._cantor_meets_open

    def recorded(lo, hi):
        calls.append((lo, hi))
        return body(lo, hi)

    monkeypatch.setattr(sets, "_cantor_meets_open", recorded)
    sets._normal_or_refusal.cache_clear()
    for a in (Q(0), Q(1, 4), Q(1, 2)):
        rep = classify(cantor_indicator, a)
        for t in (LimitType.T5, LimitType.T6):
            out = rep.outcomes[t]
            if out.exists == "yes":
                d = decompose(cantor_indicator, a, out.value, t)
                verify_decomposition(d, cantor_indicator, a, out.value, t, probes=100)
        cardinality(window_trace(cantor_set, a, Q(1, 8)))
    rng = random.Random(59)
    for _ in range(400):
        try:
            sets._normal(rand_set_expr(rng, 3))
        except UnsupportedIntersection:
            pass
    assert len(calls) > 100
    assert all(lo < hi for lo, hi in calls), [c for c in calls if c[0] >= c[1]][:5]


def test_cantor_meets_agrees_with_contains():
    rng = random.Random(23)
    c = cantor_affine(0, 1)
    probes = [Q(0), Q(1), Q(1, 4), Q(3, 4), Q(1, 3), Q(2, 9), Q(7, 9), Q(1, 13)]
    for _ in range(120):
        a, b = sorted((Q(rng.randint(-4, 12), 9), Q(rng.randint(-4, 12), 9)))
        if a == b:
            continue
        iv = Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
        meets = cantor_meets_interval(c, iv)
        for x in probes:
            if c.contains(x) and iv.contains(x):
                assert meets


# --- window traces --------------------------------------------------------------


def test_window_trace_examples(omega_set):
    tr = window_trace(Union((interval(0, 1), points(5))), 0, Q(1, 2))
    assert tr.pieces == (Piece(Interval(Q(0), Q(1, 2), False, False)),)

    tr2 = window_trace(FULL_LINE, 1, 1)
    assert tr2.pieces == (
        Piece(Interval(Q(0), Q(1), False, False)),
        Piece(Interval(Q(1), Q(2), False, False)),
    )

    tr3 = window_trace(omega_set, 0, Q(1, 4))
    # members with index <= 4 lie outside/straddle; a symbolic tail remains
    assert any(hasattr(p.core, "start") for p in tr3.pieces)
    assert all(p.core.lo >= 0 for p in tr3.pieces if isinstance(p.core, Interval))


def test_window_trace_monotone_in_radius():
    rng = random.Random(31)
    pts = sample_rats(rng, 120, -2, 2)
    for _ in range(40):
        expr = rand_set_expr(rng, 1)
        a = rng.choice((Q(0), Q(1, 2)))
        try:
            big = window_trace(expr, a, Q(1))
            small = window_trace(expr, a, Q(1, 3))
        except UnsupportedIntersection:
            continue
        small_tests = [piece_tester(p) for p in small.pieces]
        big_tests = [piece_tester(p) for p in big.pieces]
        for x in pts:
            if any(t(x) for t in small_tests):
                assert 0 < abs(x - a) < Q(1, 3)
                assert any(t(x) for t in big_tests)


def test_trace_excludes_center():
    tr = window_trace(interval(-1, 1), 0, Q(1, 2))
    for piece in tr.pieces:
        assert not piece_tester(piece)(Q(0))


@pytest.mark.parametrize("text, a", [("seq(1/n)", 0), ("seq(-1/n)", 0), ("seq(1 + 1/n^2)", 1)])
def test_a_window_near_a_tail_limit_clips_only_the_members_that_meet_it(text, a):
    # members whose near edge lies beyond the window cannot meet it, so a
    # window of radius 10^-9 needs no head of a billion members
    began = time.perf_counter()
    trace = window_trace(parse_set(text), a, Q(1, 10**9))
    assert cardinality(trace).kind == "countably_infinite"
    assert time.perf_counter() - began < 1


@pytest.mark.parametrize(
    "tail, solid",
    [("family(1/n - (1/2)^n, 1/n)", "(-inf, 0]"), ("family(-1/n, -1/n + (1/2)^n)", "[0, inf)")],
)
def test_family_tail_beside_unbounded_solid_touching_its_limit(tail, solid):
    # the solid meets the tail's hull only at the limit, which no member reaches
    fam, box = parse_set(tail), parse_set(solid)
    e = normalize(parse_set(f"{tail} | {solid}"))
    assert normalize(e) == e
    probes = [Q(0), Q(5, 4), Q(-5, 4), Q(-7), Q(7)]
    probes += [s * x for s in (1, -1) for n in range(1, 40) for x in (Q(1, n), Q(1, n) - Q(1, 2**n), Q(1, n) - Q(1, 2 ** (n + 1)))]
    for x in probes:
        assert contains(e, x) == (contains(fam, x) or contains(box, x)), x


# --- an atom's reach and distance floor against its window trace -------------------

_GERM_ATOMS = [
    "[0, 1]",
    "(0, 1)",
    "[1/2, inf)",
    "(-inf, -1)",
    "points(0, 1/3, 1)",
    "Q([-1, 1/2))",
    "Q((1/4, inf))",
    "cantor(0, 1)",
    "cantor(1/2, -1/2)",
    "cantor(0, 1) & [2/9, 7/9]",
    "cantor(0, 1) & (1/3, 1]",
    "cantor(0, 1) & [0, 2/3]",
    "seq(1/n)",
    "seq(1/2 + (1/3)^n, 2)",
    "family(1/n - (1/2)^n, 1/n)",
    "family(1/2 + 1/n - (1/3)^n, 1/2 + 1/n)",
    "[-1, 1] \\ family(1/n - (1/2)^n, 1/n)",
    "(0, 2) \\ Q((0, 1))",
]


def _germ_pieces():
    exprs = [parse_set(text) for text in _GERM_ATOMS]
    exprs += [mirror(e) for e in exprs]
    rng = random.Random(37)
    exprs += [rand_set_expr(rng, 2) for _ in range(40)]
    pieces = []
    for e in exprs:
        try:
            pieces.extend(sets._normal(e).pieces)
        except UnsupportedIntersection:
            continue
    return list(dict.fromkeys(pieces))


def _trace_or_none(expr, a, radius):
    try:
        return window_trace(expr, a, radius).pieces
    except UnsupportedIntersection:
        return None


def test_reach_and_distance_floor_agree_with_the_window_trace():
    # a piece that does not reach a misses the punctured window of radius
    # distance_floor(a); a piece that reaches a meets every window of radius
    # 2^-k, down to below the width of a removed family member
    rng = random.Random(41)
    reached = floored = 0
    for piece in _germ_pieces():
        atoms = (piece.core, *piece.removals)
        probes = [x for atom in atoms for x in _atom_probes(atom)]
        # points inside the first members of family tails
        probes += [
            (f.lo.eval(n) + f.hi.eval(n)) / 2
            for f in atoms
            if isinstance(f, IntervalFamily)
            for n in range(f.start, f.start + 6)
        ]
        probes += [Q(0), Q(1, 2), Q(-1, 3), Q(3, 4), Q(-3, 4)] + sample_rats(rng, 4, -2, 2)
        expr = piece.to_expr()
        for a in dict.fromkeys(probes):
            if piece_reaches(piece, a):
                traces = [_trace_or_none(expr, a, Q(1, 2**k)) for k in range(1, 25, 3)]
                assert all(tr != () for tr in traces), (piece, a)
                reached += 1
            else:
                floor = piece_distance_floor(piece, a)
                assert floor > 0, (piece, a)
                assert _trace_or_none(expr, a, floor) in ((), None), (piece, a, floor)
                floored += 1
    assert reached > 100 and floored > 1000


# --- points on the ends of solids and of clipped Cantor pieces ----------------------


def test_points_close_both_open_ends_of_an_interval():
    e = parse_set("(0, 1) | points(0, 1)")
    assert normalize(e) == interval(0, 1)
    assert contains(e, 0) and contains(e, 1) and contains(e, Q(1, 2))


def test_point_removal_reaches_pieces_left_by_an_earlier_split():
    # removing 1/3 splits off {2/3}, which the removal of 2/3 must then empty
    e = parse_set("(cantor(0, 1) & [0, 2/3]) \\ points(1/3, 2/3)")
    assert normalize(e) == normalize(parse_set("cantor(0, 1) & [0, 1/3)"))
    assert not contains(e, Q(2, 3)) and not contains(e, Q(1, 3))
    assert contains(e, 0) and contains(e, Q(2, 9))


def test_rationals_minus_rationals_cancels():
    e = parse_set("Q((0,1)) & ([0,1] \\ Q((0,1)))")
    assert normalize(e) == EMPTY
    assert cardinality(window_trace(e, Q(1, 2), Q(1, 4))).kind == "empty"
    assert normalize(parse_set("Q((0,2)) \\ Q((0,1))")) == rationals_in(interval(1, 2, True, False))


@pytest.mark.parametrize(
    "text",
    [
        "cantor(0, 1) \\ Q((2, 3))",  # Cantor image minus rationals
        "cantor(0, 1) \\ seq(3 + 1/n)",  # difference with a sequence
        "cantor(0, 1) \\ family(3 + 1/n - (1/2)^n, 3 + 1/n)",  # thin atom minus family tail
    ],
)
def test_cantor_minus_an_atom_with_a_disjoint_box_is_the_cantor_atom(text):
    e = parse_set(text)
    assert normalize(e) == cantor_affine(0, 1)
    assert measure(e).value == 0
    assert contains(e, Q(2, 3)) and not contains(e, Q(1, 2))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a family tail intersected keeps itself as a removal")
def test_family_tail_minus_itself_has_measure_zero():
    # _piece_intersect keeps the tail with itself as a removal, and the
    # measure counts the tail's members
    e = parse_set("family(1/n - (1/2)^n, 1/n) & (R \\ family(1/n - (1/2)^n, 1/n))")
    assert measure(e).value == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="canonical union keeps duplicate family tails")
def test_union_with_itself_has_the_same_measure():
    # _canonical_union dedupes Cantor pieces only: the family tail is kept
    # twice and its members are measured twice
    tail = "family(1/n - (1/2)^n, 1/n)"
    assert measure(parse_set(tail)).value == Q(69, 80)
    assert measure(parse_set(f"{tail} | {tail}")).value == Q(69, 80)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: measure ignores a family core's family removal"
)
def test_family_core_minus_a_nested_family_tail_has_the_difference_measure():
    # every member of the second family lies inside the member of the first
    # with the same index, so the measure is 69/80 - 1/3; the piece
    # family(.., 16) \ family(.., 16) is measured as its core
    e = parse_set("family(1/n - (1/2)^n, 1/n) & ([0, 1] \\ family(1/n - (1/4)^n, 1/n))")
    assert measure(e).value == Q(127, 240)


# --- one solid cover reaches every piece, and measure is additive -------------------


def test_a_family_tail_under_a_solid_split_off_a_co_thin_piece_is_covered():
    # the family's members cut (0, 1] minus the sequence into parts; the part
    # next to 0 misses the sequence, so it becomes a solid that holds the
    # family tail, which must not be kept and measured twice
    e = parse_set("(0, 1] \\ seq(1/2 + 1/n) | family(1/n - (1/2)^n, 1/n)")
    assert sets._normal(e) == sets._normal(open_interval(0, 1))
    m = measure(e)
    assert m.value == 1 and m.exact


def test_measure_is_additive_over_seeded_pairs():
    # m(A) = m(A \ B) + m(A ∩ B) within the certified gaps, on every pair
    # of depth-2 trees that all three measures decide
    decided = 0
    for seed in range(3000):
        rng = random.Random(seed)
        a, b = rand_set_expr(rng, 2), rand_set_expr(rng, 2)
        try:
            whole, minus, meet = (measure(x) for x in (a, Difference(a, b), Intersection((a, b))))
        except UnsupportedIntersection:
            continue
        decided += 1
        if whole.infinite or minus.infinite or meet.infinite:
            assert whole.infinite == (minus.infinite or meet.infinite), seed
        else:
            gap = whole.bound_gap + minus.bound_gap + meet.bound_gap
            assert abs(whole.value - minus.value - meet.value) <= gap, seed
    assert decided > 2000


# --- families whose members chain into an interval ---------------------------------


@pytest.mark.parametrize(
    "text, collapsed",
    [
        ("family(1/n, 1 + 1/n)", "(0, 2)"),  # distinct endpoint limits
        ("family(-1/n, 1/n)", "[-1, 1)"),  # members straddle the limit
        ("family(1/2*(1/2)^n, (1/2)^n, 1, 0, 0)", "(0, 1/2) \\ seq(1/2*(1/2)^n)"),  # open members touch
    ],
)
def test_chained_family_against_its_members(text, collapsed):
    e = parse_set(text)
    assert sets._normal(e) == sets._normal(parse_set(collapsed))
    members = [e.member(n) for n in range(1, 4001)]
    edges = [v for m in members[:12] for v in (m.lo, m.hi)] + [Q(k, 8) for k in range(-9, 18)]
    probes = edges + [(u + v) / 2 for u, v in zip(edges, edges[1:])] + [Q(1, 1000), Q(-1, 999)]
    for x in probes:
        assert contains(e, x) == any(m.contains(x) for m in members), x
    # the members past the 64th add less than 1/64 here
    m, first = measure(e), measure(Union(tuple(members[:64])))
    assert m.exact and 0 <= m.value - first.value <= Q(1, 64)
    assert m.value == measure(parse_set(collapsed)).value


# --- normal forms are values -----------------------------------------------------------


def test_the_engine_passes_normal_forms_without_printing_them(monkeypatch, dirichlet, cantor_indicator, omega_indicator):
    # a normal form handed from one module to the next is never printed into
    # a tree of atoms to be normalized again
    printed = Counter()
    to_expr = Normal.to_expr

    def counted(self):
        printed[self] += 1
        return to_expr(self)

    monkeypatch.setattr(Normal, "to_expr", counted)
    cases = [(f, Q(0)) for f in (dirichlet, cantor_indicator, omega_indicator)] + corpus(11, 60)
    passed = verified = 0
    for f, a in cases:
        rep = classify(f, a)
        for t in LimitType:
            out = rep.outcomes[t]
            if out.exists != "yes":
                continue
            assert check(f, a, out.value, t).passed()
            passed += 1
            if t not in (LimitType.T5, LimitType.T6):
                continue
            try:
                d = decompose(f, a, out.value, t)
                assert verify_decomposition(d, f, a, out.value, t, probes=100)
            except UnsupportedIntersection:
                continue
            verified += 1
    assert passed > 250 and verified > 90
    assert not printed


def test_a_normal_form_is_its_own_normal_form():
    # _normal hands a normal form back unchanged, and it prints as its tree,
    # alone and inside a larger tree
    rng = random.Random(43)
    exprs = [rand_set_expr(rng, 3) for _ in range(300)]
    checked = 0
    for e in exprs + [mirror(e) for e in exprs]:
        try:
            n = sets._normal(e)
        except UnsupportedIntersection:
            continue
        memo = sets._normal_or_refusal.cache_info()
        assert sets._normal(n) is n
        assert sets._normal_or_refusal.cache_info() == memo  # n is neither looked up nor stored
        tree = n.to_expr()
        assert set_to_text(n) == set_to_text(tree)
        outer = Difference(Intersection((n, interval(-1, 1))), Union((n, points(7))))
        assert set_to_text(outer) == set_to_text(Difference(Intersection((tree, interval(-1, 1))), Union((tree, points(7)))))
        checked += 1
    assert checked > 500


# --- refusals are remembered next to normal forms -------------------------------------


def test_refusals_are_memoized(monkeypatch):
    runs: dict = {}
    body = sets._normal_of

    def counted(expr):
        runs[expr] = runs.get(expr, 0) + 1
        return body(expr)

    monkeypatch.setattr(sets, "_normal_of", counted)
    sets._normal_or_refusal.cache_clear()
    entry_points = {
        "normalize": normalize,
        "measure": measure,
        "density_at": lambda e: density_at(e, 0),
        "window_trace": lambda e: window_trace(e, 0, Q(1, 2)),
    }
    rng = random.Random(23)
    pts = sample_rats(rng, 30)
    refused = []
    for _ in range(400):
        expr = rand_set_expr(rng, depth=3)
        try:
            normalize(expr)
        except UnsupportedIntersection:
            refused.append(expr)
    assert len(refused) >= 15
    for expr in refused:
        for name, call in entry_points.items():
            outcomes = []
            for _ in range(10):
                try:
                    call(expr)
                    outcomes.append(None)
                except UnsupportedIntersection as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] is not None or name == "window_trace", (name, expr)
            assert outcomes[9] == outcomes[0], (name, expr)
        for x in pts:
            assert contains(expr, x) == _tree_contains(expr, x), (expr, x)
        assert runs[expr] == 1, expr
    assert max(runs.values()) == 1


# --- known defect: the canonical union drops removals of thin cores ----------------
# A Sequence or CantorAffine core that carries removals keeps its whole atom,
# so a thin set minus itself can come back non-empty.  These pin the defect
# until the algebra keeps such removals.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="canonical union drops removals of sequence cores")
@pytest.mark.parametrize(
    "text",
    ["seq(1/n) & ([0,1] \\ seq(1/n))", "seq(1/n) & (Q((0, 1)) \\ seq(1/n))"],
)
def test_sequence_minus_itself_is_empty(text):
    assert normalize(parse_set(text)) == EMPTY


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="canonical union drops removals of Cantor cores")
def test_removed_cantor_point_is_not_contained():
    expr = parse_set("cantor(-1/2,-1) & ([-1,1/8) \\ cantor(-3/4,1/2))")
    assert not contains(expr, Q(-3, 4))


# --- the interval algebra against point membership ---------------------------------
# Every interval with ends in {-inf, -1, 0, 1/2, 1, inf}, each finite end in
# or out.  The ends lie on a grid, and every nonempty piece the helpers make
# of these intervals holds a probe: a grid point, a midpoint between two, or
# a point beyond the ends.  So each set question is decided on the probes,
# and a one-sided one at a grid point a on a - 1/1000 or a + 1/1000.

_GRID = (Q(-1), Q(0), Q(1, 2), Q(1))
_PROBES = (Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1), Q(2))
_EPS = Q(1, 1000)
_IVS = list(
    dict.fromkeys(
        iv
        for lo in (None, *_GRID)
        for hi in (*_GRID, None)
        for lo_incl in (False, True)
        for hi_incl in (False, True)
        if isinstance(iv := interval(lo, hi, lo_incl, hi_incl), Interval)
    )
)


def _held(pieces) -> tuple[bool, ...]:
    return tuple(any(p.contains(x) for p in pieces) for x in _PROBES)


def _assert_canonical(s):
    """EMPTY, one point, or an Interval with open unbounded ends and lo < hi."""
    if isinstance(s, FinitePoints):
        assert len(s.points) == 1, s
    elif isinstance(s, Interval):
        assert type(s.lo_incl) is bool and type(s.hi_incl) is bool, s
        assert (s.lo is not None or not s.lo_incl) and (s.hi is not None or not s.hi_incl), s
        assert s.lo is None or s.hi is None or s.lo < s.hi, s
    else:
        assert s is EMPTY, s


def _hull_held(pieces) -> tuple[bool, ...]:
    """The probes between two held probes."""
    held = [x for x, h in zip(_PROBES, _held(pieces)) if h]
    return tuple(bool(held) and held[0] <= x <= held[-1] for x in _PROBES)


def _runs(held: tuple[bool, ...]) -> int:
    return sum(1 for i, h in enumerate(held) if h and (i == 0 or not held[i - 1]))


def test_interval_construction_against_point_membership():
    for lo in (None, *_GRID):
        for hi in (*_GRID, None):
            for lo_incl in (False, True):
                for hi_incl in (False, True):
                    s = interval(lo, hi, lo_incl, hi_incl)
                    _assert_canonical(s)
                    want = tuple(
                        (lo is None or x > lo or x == lo and lo_incl) and (hi is None or x < hi or x == hi and hi_incl)
                        for x in _PROBES
                    )
                    assert _held([s]) == want, (lo, hi, lo_incl, hi_incl, s)


def test_interval_pair_questions_against_point_membership():
    for a in _IVS:
        ha = _held([a])
        complement = sets.iv_complement(a)
        for piece in complement:
            assert isinstance(piece, Interval), (a, piece)
            _assert_canonical(piece)
        assert _held(complement) == tuple(not h for h in ha), a
        for b in _IVS:
            hb = _held([b])
            both = tuple(x and y for x, y in zip(ha, hb))
            either = tuple(x or y for x, y in zip(ha, hb))
            meet = sets.iv_intersect(a, b)
            _assert_canonical(meet)
            assert _held([meet]) == both, (a, b, meet)
            hull = sets._iv_hull(a, b)
            assert isinstance(hull, Interval), (a, b, hull)
            _assert_canonical(hull)
            assert _held([hull]) == _hull_held([a, b]), (a, b, hull)
            assert sets._iv_covers(a, b) == all(x or not y for x, y in zip(ha, hb)), (a, b)
            assert sets._iv_disjoint(a, b) == (not any(both)), (a, b)
            assert sets._iv_mergeable(a, b) == (_runs(either) == 1), (a, b)
            merged = sets.merge_intervals([a, b])
            for piece in merged:
                _assert_canonical(piece)
            assert _held(merged) == either and len(merged) == _runs(either), (a, b, merged)
            firsts = [_PROBES.index(next(x for x in _PROBES if piece.contains(x))) for piece in merged]
            assert firsts == sorted(firsts), (a, b, merged)


def test_covered_sides_against_one_sided_membership():
    for iv in _IVS:
        for a in (*_GRID, Q(1, 4)):
            want = {side for side in (-1, 1) if iv.contains(a + side * _EPS)}
            assert sets.covered_sides(iv, a) == want, (iv, a)


def test_uncovered_against_point_membership():
    for i, b in enumerate(_IVS):
        for c in _IVS[i:]:
            solids = sets.merge_intervals([b, c])
            covered = _held(solids)
            for iv in _IVS:
                # the part of iv that the cover leaves: intervals and single points
                parts = [p.core for p in sets._minus_cover(iv, solids)]
                segs = [c for c in parts if not isinstance(c, FinitePoints)]
                ends = [x for c in parts if isinstance(c, FinitePoints) for x in c.points]
                for seg in segs:
                    assert isinstance(seg, Interval), (iv, solids, seg)
                    _assert_canonical(seg)
                pieces = segs + [points(p) for p in ends]
                want = tuple(x and not y for x, y in zip(_held([iv]), covered))
                assert _held(pieces) == want, (iv, solids, segs, ends)
                assert len(pieces) == _runs(want), (iv, solids, segs, ends)


# --- golden normal forms ---------------------------------------------------------
#
# `golden/normals.json` freezes the printed normal form, or the refusal, of
# `rand_set_expr(Random(s), 3)` for s = 0..2999 and of their mirrors, and of an
# interval core and a rationals core minus each kind of thin atom, then minus
# [0, 1], which clips the removal again to a smaller core, and minus the thin
# atom together with rationals less a sequence, which the core meets in a
# sequence core that keeps no removals.  Rewrite the file
# after a deliberate change with `PYTHONPATH=src python tests/test_sets.py`
# and review the diff.

NORMALS_GOLDEN = Path(__file__).parent / "golden" / "normals.json"
_CORES = ("[-1, 1]", "Q((-1, 1))")
_THIN = (
    "points(-1, 0, 1/2, 2)", "Q([-1/2, 2])", "cantor(0, 1)", "cantor(-1, 2)", "cantor(1, 1)",
    "seq(1/n)", "seq(1/n - 1/2)", "family(1/n - (1/2)^n, 1/n)",
)


def _normal_text(e) -> str:
    try:
        return set_to_text(sets._normal(e))
    except UnsupportedIntersection as exc:
        return f"refused: {exc}"


def golden_normals() -> dict[str, str]:
    out = {}
    for s in range(3000):
        e = rand_set_expr(random.Random(s), 3)
        out[f"rand {s}"] = _normal_text(e)
        out[f"mirror {s}"] = _normal_text(mirror(e))
    for core in _CORES:
        for x in _THIN:
            for text in (
                f"{core} \\ {x}",
                f"({core} \\ {x}) \\ [0, 1]",
                f"{core} \\ ({x} | (Q([-1/2, 2]) \\ seq(1/n)))",
                f"{core} \\ ({x} | (Q([-1/2, 2]) \\ seq(1/n - 1/2)))",
            ):
                out[text] = _normal_text(parse_set(text))
    return out


@pytest.mark.parametrize("text", [
    r"[-1, 1] \ (points(0) | (Q([-1/2, 1/2]) \ seq(1/n - 1/2)))",
    r"Q((-1, 1)) \ (points(-1, 0, 1/2, 2) | (Q([-1/2, 2]) \ seq(1/n)))",
    r"(0, 1] \ (points(1/2) | (Q([0, 1]) \ seq(1/n)))",
])
def test_thin_removal_is_not_carried_onto_a_sequence_core(text):
    # the core less a point meets Q \ seq in a sequence core; the point must
    # be gone from it already, since a sequence core keeps no removals
    e = parse_set(text)
    xs = [Q(0), Q(1, 2), Q(-1), Q(1)] + [Q(1, n) + d for n in range(1, 13) for d in (0, Q(-1, 2))]
    assert [contains(e, x) for x in xs] == [_tree_contains(e, x) for x in xs]


def _removal_in_closed_box(core, r) -> bool:
    box = core.box()
    closed = interval(box.lo, box.hi)
    if isinstance(r, FinitePoints):
        return all(closed.contains(p) for p in r.points)
    return sets._iv_covers(closed, r.box())


def test_every_removal_lies_in_the_closed_box_of_its_core():
    # each removal is clipped to its core, so one set has one normal form
    checked = 0
    for s in range(3000):
        e = rand_set_expr(random.Random(s), 3)
        for x in (e, mirror(e)):
            try:
                n = sets._normal(x)
            except UnsupportedIntersection:
                continue
            for p in (p for p in n.pieces if p.removals):
                checked += 1
                assert all(_removal_in_closed_box(p.core, r) for r in p.removals), (s, set_to_text(x), p)
    assert checked > 250


def test_a_family_core_keeps_only_the_rationals_in_its_box():
    n = sets._normal(parse_set("family(1/n - (1/2)^n, 1/n) & ([-1, 1] \\ Q(R))"))
    (tail,) = [p for p in n.pieces if isinstance(p.core, IntervalFamily)]
    assert tail.removals == (rationals_in(interval(0, Q(1, 16), True, False)),)


def test_a_clipped_and_an_unclipped_sequence_removal_give_one_normal_form():
    whole, clipped = r"[-1, 0) \ seq(1/n - 1/2)", r"[-1, 0) \ (seq(1/n - 1/2) & [-1, 0))"
    assert sets._normal(parse_set(whole)) == sets._normal(parse_set(clipped))
    m = measure(parse_set(f"({whole}) | ({clipped})"))
    assert m.value == 1 and m.exact


def test_a_family_removal_that_cuts_every_shorter_tail_of_its_core_is_refused():
    # a member of the removal straddles the far edge of each member of the
    # core, so every tail left by clipping the removal to the core's box would
    # be cut again
    text = "family(1/n, 1/n + 1/4/n^2) & ([0, 1] \\ family(1/n + 1/8/n^2, 1/n + 1/2/n^2))"
    with pytest.raises(UnsupportedIntersection, match="family tails interleave"):
        sets._normal(parse_set(text))


def test_golden_normals():
    frozen = json.loads(NORMALS_GOLDEN.read_text(encoding="utf-8"))
    fresh = golden_normals()
    assert fresh.keys() == frozen.keys()
    changed = [f"{key}: {frozen[key]!r} -> {fresh[key]!r}" for key in frozen if fresh[key] != frozen[key]]
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    NORMALS_GOLDEN.write_text(json.dumps(golden_normals(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
