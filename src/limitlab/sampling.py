"""Deterministic rational point sampling from set expressions.

Only rational points can be produced, so pieces whose rational part is
removed (such as an interval minus its rationals) contribute nothing; the
sampler draws from every piece that has rational members.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import UnsupportedIntersection
from .sets import (
    CantorAffine,
    FinitePoints,
    Interval,
    IntervalFamily,
    Piece,
    RationalsIn,
    Sequence,
    _normal,
    family_tail_info,
    membership,
    piece_tester,
)

Q = Fraction


def _box(iv: Interval, center: Q, spread: Q) -> tuple[Q, Q] | None:
    lo = iv.lo if iv.lo is not None else center - spread
    hi = iv.hi if iv.hi is not None else center + spread
    if lo >= hi:
        lo, hi = min(lo, hi), min(lo, hi) + spread
    return lo, hi


def _piece_candidates(piece: Piece, rng: random.Random, center: Q, spread: Q, want: int):
    core = piece.core
    out = []
    if isinstance(core, (Interval, RationalsIn)):
        lo, hi = _box(core.box(), center, spread)
        width = hi - lo
        for _ in range(want):
            den = rng.choice((64, 128, 256, 1024, 4096))
            x = lo + width * Q(rng.randrange(1, den), den)
            out.append(x)
    elif isinstance(core, FinitePoints):
        out.extend(core.points)
    elif isinstance(core, CantorAffine):
        for _ in range(want):
            digits = [rng.choice((0, 2)) for _ in range(rng.randrange(2, 16))]
            v = sum(Q(d, 3 ** (i + 1)) for i, d in enumerate(digits))
            out.append(core.offset + core.scale * v)
    elif isinstance(core, Sequence):
        for _ in range(want):
            n = core.start + rng.randrange(0, 64)
            out.append(core.term.eval(n))
    elif isinstance(core, IntervalFamily):
        info = family_tail_info(core)
        for _ in range(want):
            n = core.start + rng.randrange(0, 64)
            width = core.hi.eval(n) - core.lo.eval(n)
            if width <= 0:
                continue
            # the point of member n that lies u of its width in from its
            # edge nearer the limit, in distance coordinates
            u = Q(rng.randrange(1, 16), 16)
            d = info.far.eval(n) - width * (1 - u)
            out.append(info.limit + info.side * d)
    return out


def sample_points(expr, count: int = 200, seed: int = 0, center=0, spread=2) -> list[Q]:
    """Up to `count` distinct rational members of the expression,
    deterministic for a fixed seed."""
    center, spread = Q(center), Q(spread)
    rng = random.Random(seed)
    picked: list[Q] = []
    seen = set()
    try:
        pieces = _normal(expr).pieces
        per = max(4, count // max(1, len(pieces)) + 1)
        for piece in pieces:
            inside = piece_tester(piece)
            for x in _piece_candidates(piece, rng, center, spread, per):
                if x not in seen and inside(x):
                    seen.add(x)
                    picked.append(x)
                    if len(picked) >= count:
                        return picked
    except UnsupportedIntersection:
        # fall back to rejection sampling on the raw tree
        inside = membership(expr)
        for _ in range(count * 20):
            den = rng.choice((64, 256, 1024, 4096))
            x = center - spread + 2 * spread * Q(rng.randrange(0, den + 1), den)
            if x not in seen and inside(x):
                seen.add(x)
                picked.append(x)
                if len(picked) >= count:
                    break
    return picked
