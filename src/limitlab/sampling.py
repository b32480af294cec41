"""Deterministic rational point sampling from set expressions.

Only rational points can be produced, so pieces whose rational part is
removed (such as an interval minus its rationals) contribute nothing; the
sampler draws from every piece that has rational members.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import UnsupportedIntersection
from .sets import _normal, membership, over_one_denominator, piece_tester

Q = Fraction


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
            for x in piece.core.candidates(rng, center, spread, per):
                if x not in seen and inside(x):
                    seen.add(x)
                    picked.append(x)
                    if len(picked) >= count:
                        return picked
    except UnsupportedIntersection:
        # fall back to rejection sampling on the raw tree
        inside = membership(expr)
        base, step, common = over_one_denominator(center - spread, 2 * spread)
        for _ in range(count * 20):
            den = rng.choice((64, 256, 1024, 4096))
            x = Q(base * den + step * rng.randrange(0, den + 1), common * den)
            if x not in seen and inside(x):
                seen.add(x)
                picked.append(x)
                if len(picked) >= count:
                    break
    return picked
