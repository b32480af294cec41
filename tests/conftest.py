"""Shared fixtures: the three separating reference functions, seeded corpora,
the reflection and translation of sets and functions, and independent
references that the engine is checked against."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from limitlab.errors import UnsupportedIntersection
from limitlab.functions import ROOT_WIDTH, PiecewiseFn, indicator_fn
from limitlab.poly import Poly, isolate_roots, refine_root
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
    RationalsIn,
    Sequence,
    SetExpr,
    Union,
    cantor_affine,
    family,
    interval,
    open_interval,
    points,
    rationals_in,
    sequence,
)
from limitlab.terms import Term


@pytest.fixture(scope="session")
def dirichlet() -> PiecewiseFn:
    return indicator_fn(rationals_in(FULL_LINE))


@pytest.fixture(scope="session")
def cantor_set():
    return cantor_affine(0, 1)


@pytest.fixture(scope="session")
def cantor_indicator(cantor_set) -> PiecewiseFn:
    return indicator_fn(cantor_set)


@pytest.fixture(scope="session")
def omega_set():
    return family(Term.power(1, 1) - Term.geometric(1, Q(1, 2)), Term.power(1, 1))


@pytest.fixture(scope="session")
def omega_indicator(omega_set) -> PiecewiseFn:
    return indicator_fn(omega_set)


@pytest.fixture(scope="session")
def identity_fn() -> PiecewiseFn:
    return PiecewiseFn(FULL_LINE, (), Poly.make([0, 1]))


# --- random corpora ------------------------------------------------------------


_DENOMS = (1, 2, 3, 4, 6, 8)


def rand_rat(rng: random.Random, lo: int = -3, hi: int = 3) -> Q:
    den = rng.choice(_DENOMS)
    return Q(rng.randint(lo * den, hi * den), den)


def rand_nonzero_rat(rng: random.Random) -> Q:
    while True:
        v = rand_rat(rng)
        if v != 0:
            return v


def rand_poly(rng: random.Random, max_deg: int = 2) -> Poly:
    deg = rng.choice((0, 0, 0, 1, 1, max_deg))
    return Poly.make([rand_rat(rng) for _ in range(deg + 1)] or [Q(0)])


def rand_interval_atom(rng: random.Random) -> SetExpr:
    a, b = sorted((rand_rat(rng), rand_rat(rng)))
    if a == b:
        b = a + Q(1, rng.choice(_DENOMS))
    return interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def rand_points_atom(rng: random.Random) -> SetExpr:
    return points(*[rand_rat(rng) for _ in range(rng.randint(1, 3))])


def rand_q_atom(rng: random.Random) -> SetExpr:
    iv = rand_interval_atom(rng)
    while not hasattr(iv, "lo"):
        iv = rand_interval_atom(rng)
    return rationals_in(iv)


def rand_seq_atom(rng: random.Random, limit: Q | None = None) -> SetExpr:
    if limit is None:
        limit = rand_rat(rng, -1, 1)
    if rng.random() < 0.5:
        term = Term.make(const=limit, pw=[(rng.randint(1, 2), 0, Q(rng.randint(1, 3)))])
    else:
        term = Term.make(const=limit, geo=[(Q(1, rng.choice((2, 3))), Q(rng.randint(1, 2)))])
    return sequence(term, rng.randint(1, 3))


def rand_family_atom(rng: random.Random, limit: Q | None = None) -> SetExpr:
    if limit is None:
        limit = rng.choice((Q(0), Q(1, 2)))
    r = Q(1, rng.choice((2, 3)))
    hi = Term.make(const=limit, pw=[(1, 0, Q(1))])
    lo = hi - Term.geometric(1, r)
    return family(lo, hi)


def rand_guard_list(rng: random.Random) -> list[SetExpr]:
    roll = rng.random()
    guards: list[SetExpr] = []
    if roll < 0.18:
        offset = rng.choice((Q(0), Q(-1, 2)))
        scale = rng.choice((Q(1), Q(1, 2)))
        guards.append(cantor_affine(offset, scale))
        pool = (rand_interval_atom, rand_points_atom, rand_q_atom)
    elif roll < 0.33:
        pool = (rand_interval_atom, rand_points_atom, rand_q_atom)
    else:
        pool = (rand_interval_atom, rand_points_atom, rand_q_atom, rand_seq_atom)
    for _ in range(rng.randint(1, 2)):
        guards.append(rng.choice(pool)(rng))
    if roll >= 0.18 and roll < 0.33:
        guards.append(rand_family_atom(rng))
    return guards


def rand_fn(rng: random.Random) -> PiecewiseFn:
    guards = rand_guard_list(rng)
    branches = tuple((g, rand_poly(rng)) for g in guards)
    return PiecewiseFn(FULL_LINE, branches, rand_poly(rng))


CORPUS_POINTS = (Q(0), Q(1, 2), Q(-1, 3))


def corpus(seed: int, size: int):
    """Deterministic list of (function, point) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        out.append((rand_fn(rng), rng.choice(CORPUS_POINTS)))
    return out


# --- functions with a certified countable/null-type limit ------------------------


def thin_support(rng: random.Random, a: Q, t6: bool) -> SetExpr:
    kinds = ["points", "rationals", "sequence"]
    if t6:
        kinds.append("cantor")
    kind = rng.choice(kinds)
    if kind == "points":
        return points(a + Q(1, 4), a - Q(1, 3), a + 1)
    if kind == "rationals":
        return rationals_in(open_interval(a - 1, a + 1))
    if kind == "sequence":
        term = Term.make(const=a, pw=[(1, 0, Q(1))])
        return sequence(term)
    return cantor_affine(a, rng.choice((Q(1), Q(1, 2))))


def certified_fn(rng: random.Random, a: Q, t6: bool, constant_only: bool = False):
    """(f, L) where L is a certified countable-type (or null-type) limit at a:
    f equals a polynomial off a thin set."""
    base = Poly.const(rand_rat(rng)) if constant_only else rand_poly(rng, 2)
    support = thin_support(rng, a, t6)
    bump = rand_nonzero_rat(rng)
    branch_poly = base + Poly.const(bump)
    f = PiecewiseFn(FULL_LINE, ((support, branch_poly),), base)
    return f, base(a)


def certified_pairs(t6: bool, count: int):
    """(a, f1, L1, f2, L2): two functions with certified limits at one point,
    for the limit arithmetic of the theorems."""
    rng = random.Random(4242 if t6 else 2323)
    pairs = []
    while len(pairs) < count:
        a = rng.choice(CORPUS_POINTS)
        f1, L1 = certified_fn(rng, a, t6)
        f2, L2 = certified_fn(rng, a, t6)
        pairs.append((a, f1, L1, f2, L2))
    return pairs


# --- random set expressions for algebra properties ---------------------------------


def rand_atom(rng: random.Random) -> SetExpr:
    roll = rng.random()
    if roll < 0.3:
        return rand_interval_atom(rng)
    if roll < 0.5:
        return rand_points_atom(rng)
    if roll < 0.7:
        return rand_q_atom(rng)
    if roll < 0.85:
        return rand_seq_atom(rng)
    if roll < 0.95:
        return cantor_affine(rand_rat(rng, -1, 1), rng.choice((Q(1), Q(1, 2), Q(-1))))
    return rand_family_atom(rng)


def rand_set_expr(rng: random.Random, depth: int = 2) -> SetExpr:
    if depth == 0 or rng.random() < 0.4:
        return rand_atom(rng)
    op = rng.random()
    left = rand_set_expr(rng, depth - 1)
    right = rand_set_expr(rng, depth - 1)
    if op < 0.45:
        return Union((left, right))
    if op < 0.7:
        return Intersection((left, right))
    return Difference(left, right)


def sample_rats(rng: random.Random, count: int, lo=-3, hi=3) -> list[Q]:
    out = []
    for _ in range(count):
        den = rng.choice((4, 8, 16, 64, 256, 729, 1024))
        out.append(Q(rng.randint(int(lo * den), int(hi * den)), den))
    return out


# --- reflection x -> -x, built independently of the engine ------------------------


def _neg(v: Q | None) -> Q | None:
    return None if v is None else -v


def mirror(expr: SetExpr) -> SetExpr:
    """The set {-x : x in expr}, node by node."""
    if isinstance(expr, EmptySet):
        return EMPTY
    if isinstance(expr, Interval):
        return Interval(_neg(expr.hi), _neg(expr.lo), expr.hi_incl, expr.lo_incl)
    if isinstance(expr, FinitePoints):
        return FinitePoints(tuple(sorted(-p for p in expr.points)))
    if isinstance(expr, RationalsIn):
        return RationalsIn(mirror(expr.iv))
    if isinstance(expr, CantorAffine):
        clip = None if expr.clip is None else mirror(expr.clip)
        return CantorAffine(-expr.offset, -expr.scale, clip)
    if isinstance(expr, Sequence):
        return Sequence(-expr.term, expr.start)
    if isinstance(expr, IntervalFamily):
        return IntervalFamily(-expr.hi, -expr.lo, expr.hi_incl, expr.lo_incl, expr.start)
    if isinstance(expr, Union):
        return Union(tuple(mirror(a) for a in expr.args))
    if isinstance(expr, Intersection):
        return Intersection(tuple(mirror(a) for a in expr.args))
    if isinstance(expr, Difference):
        return Difference(mirror(expr.left), mirror(expr.right))
    raise TypeError(f"cannot mirror {expr!r}")


def _mirror_poly(p: Poly) -> Poly:
    return Poly.make([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def mirror_fn(f: PiecewiseFn) -> PiecewiseFn:
    """x -> f(-x): every guard mirrored and every polynomial p(x) turned into p(-x)."""
    branches = tuple((mirror(g), _mirror_poly(p)) for g, p in f.branches)
    return PiecewiseFn(mirror(f.domain), branches, _mirror_poly(f.default))


# --- translation x -> x + c, built independently of the engine ---------------------


def _shift(v: Q | None, c: Q) -> Q | None:
    return None if v is None else v + c


def translate(expr: SetExpr, c: Q) -> SetExpr:
    """The set {x + c : x in expr}, node by node."""
    if isinstance(expr, EmptySet):
        return EMPTY
    if isinstance(expr, Interval):
        return Interval(_shift(expr.lo, c), _shift(expr.hi, c), expr.lo_incl, expr.hi_incl)
    if isinstance(expr, FinitePoints):
        return FinitePoints(tuple(p + c for p in expr.points))
    if isinstance(expr, RationalsIn):
        return RationalsIn(translate(expr.iv, c))
    if isinstance(expr, CantorAffine):
        clip = None if expr.clip is None else translate(expr.clip, c)
        return CantorAffine(expr.offset + c, expr.scale, clip)
    if isinstance(expr, Sequence):
        return Sequence(expr.term + Term.constant(c), expr.start)
    if isinstance(expr, IntervalFamily):
        shift = Term.constant(c)
        return IntervalFamily(expr.lo + shift, expr.hi + shift, expr.lo_incl, expr.hi_incl, expr.start)
    if isinstance(expr, Union):
        return Union(tuple(translate(a, c) for a in expr.args))
    if isinstance(expr, Intersection):
        return Intersection(tuple(translate(a, c) for a in expr.args))
    if isinstance(expr, Difference):
        return Difference(translate(expr.left, c), translate(expr.right, c))
    raise TypeError(f"cannot translate {expr!r}")


def _translate_poly(p: Poly, c: Q) -> Poly:
    """p(x - c), by Horner's rule."""
    out, x_minus_c = Poly.const(0), Poly.make([-c, 1])
    for coef in reversed(p.coeffs):
        out = out * x_minus_c + Poly.const(coef)
    return out


def translate_fn(f: PiecewiseFn, c: Q) -> PiecewiseFn:
    """x -> f(x - c): every guard translated by c and every polynomial p(x)
    turned into p(x - c)."""
    branches = tuple((translate(g, c), _translate_poly(p, c)) for g, p in f.branches)
    return PiecewiseFn(translate(f.domain, c), branches, _translate_poly(f.default, c))


# --- independent references ------------------------------------------------------


def _tree_contains(expr: SetExpr, x: Q) -> bool:
    """Membership by the tree itself, without normalizing and without
    membership(): each atom's tester is built afresh at each point.  The
    reference that the compiled membership agrees with."""
    if isinstance(expr, EmptySet):
        return False
    if isinstance(expr, Union):
        return any(_tree_contains(a, x) for a in expr.args)
    if isinstance(expr, Intersection):
        return all(_tree_contains(a, x) for a in expr.args)
    if isinstance(expr, Difference):
        return _tree_contains(expr.left, x) and not _tree_contains(expr.right, x)
    return expr.contains(x)


# The brick search gives up past this many construction levels.
_CANTOR_BRICK_DEPTH = 400


def cantor_bricks_meet_open(lo: Q, hi: Q) -> bool:
    """Does the unit Cantor set meet the open interval (lo, hi)?

    Breadth-first over construction bricks: a brick strictly inside the
    interval proves (uncountable) intersection; disjoint bricks are cut; at
    most two straddling bricks per level survive, and each straddle chain
    dies at the depth where the endpoint's ternary digits decide it.  A
    reference that shares nothing with the engine's midpoint gap test; it
    refuses past _CANTOR_BRICK_DEPTH levels.
    """
    if hi <= 0 or lo >= 1:
        return False
    level = [Q(0)]
    width = Q(1)
    for _ in range(_CANTOR_BRICK_DEPTH):
        nxt = []
        for b_lo in level:
            b_hi = b_lo + width
            if b_lo >= hi or b_hi <= lo:
                continue
            if lo < b_lo and b_hi < hi:
                return True
            nxt.append(b_lo)
        if not nxt:
            return False
        width /= 3
        level = []
        for b_lo in nxt:
            level.append(b_lo)
            level.append(b_lo + 2 * width)
    raise UnsupportedIntersection("Cantor brick search exceeded depth bound")


def _divmod(a: list[Q], b: list[Q]) -> tuple[list[Q], list[Q]]:
    """Quotient and remainder of coefficient lists, lowest degree first; b's
    leading coefficient is nonzero."""
    a, q = list(a), [Q(0)] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        k, f = len(a) - len(b), a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _derivative(c: list[Q]) -> list[Q]:
    return [i * v for i, v in enumerate(c)][1:]


def count_roots(p: Poly, lo: Q, hi: Q) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    from the Sturm chain of p's square-free part in Fraction arithmetic: a
    reference that shares nothing with poly's integer root isolation."""
    c = list(p.coeffs)
    if not c:
        return 0
    g, h = c, _derivative(c)
    while h:
        g, h = h, _divmod(g, h)[1]
    chain = [_divmod(c, g)[0]]  # g is gcd(p, p'), so this is p's square-free part
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([-v for v in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()

    def variations(x: Q) -> int:
        signs = []
        for poly in chain:
            v = Q(0)
            for coef in reversed(poly):
                v = v * x + coef
            if v:
                signs.append(v > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(Q(lo)) - variations(Q(hi))


def reference_sign_regions(q: Poly) -> tuple[list[SetExpr], list[SetExpr], Q]:
    """(inner, outer, gap) interval pieces of {x : q(x) >= 0}, built by the
    engine's earlier root loop: one bound 5-tuple per root, a sample point
    per gap between roots, and the rational roots added to both sides.  The
    reference that the root-cell version agrees with after normalization."""
    if q.is_zero():
        return [FULL_LINE], [FULL_LINE], Q(0)
    if q.is_constant():
        if q.constant_value() >= 0:
            return [FULL_LINE], [FULL_LINE], Q(0)
        return [], [], Q(0)
    bounds = []  # (inner_lo, inner_hi, outer_lo, outer_hi, exact_value|None)
    gap = Q(0)
    for loc in isolate_roots(q):
        if isinstance(loc, Q):
            bounds.append((loc, loc, loc, loc, loc))
        else:
            lo, hi = refine_root(q, loc[0], loc[1], ROOT_WIDTH)
            bounds.append((hi, lo, lo, hi, None))
            gap += 2 * (hi - lo)
    inner: list[SetExpr] = []
    outer: list[SetExpr] = []
    n = len(bounds)
    for i in range(n + 1):
        left = bounds[i - 1] if i > 0 else None
        right = bounds[i] if i < n else None
        lo_sample = left[3] if left is not None else (right[2] - 1 if right is not None else Q(0))
        hi_sample = right[2] if right is not None else (left[3] + 1 if left is not None else Q(0))
        sample = (lo_sample + hi_sample) / 2 if (left is not None or right is not None) else Q(0)
        if q(sample) > 0:
            in_lo = None if left is None else left[0]
            in_hi = None if right is None else right[1]
            out_lo = None if left is None else left[2]
            out_hi = None if right is None else right[3]
            li = left is not None and left[4] is not None  # closed at exact root
            ri = right is not None and right[4] is not None
            piece_in = interval(in_lo, in_hi, li, ri)
            piece_out = interval(out_lo, out_hi, left is not None, right is not None)
            if not isinstance(piece_in, EmptySet):
                inner.append(piece_in)
            if not isinstance(piece_out, EmptySet):
                outer.append(piece_out)
    for b in bounds:
        if b[4] is not None:
            inner.append(points(b[4]))
            outer.append(points(b[4]))
    return inner, outer, gap
