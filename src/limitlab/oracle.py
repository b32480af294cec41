"""Approximation-based cross-checks for the exact engine.

Sampling is counter-based: sample i of a run is a pure function of
(seed, i), so estimates are identical regardless of evaluation order or
parallel splitting.  Sample i of the window (lo, lo + width) is the grid
point lo + width*j/2^40, with j the first 8 bytes of sha256("seed:i") modulo
2^40.  lo and width are put over one denominator once per run, so each
sample is the one Fraction Q(base + step*j, den).  A run takes at most
MAX_SAMPLES samples.  Samples live on a dyadic grid and membership is
exact, which means thin sets (rationals, Cantor images, sequences) are
outside the estimator's reach: a dyadic grid systematically over- or
under-counts them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .analyzers import measure
from .errors import RangeError, UnsupportedIntersection
from .sets import Intersection, SetExpr, membership, open_interval, over_one_denominator

Q = Fraction

_GRID_BITS = 40
MAX_SAMPLES = 1_000_000


@record
class SampleConfig:
    seed: int
    samples: int
    center: Q
    radius: Q


@record
class MCEstimate:
    value: float
    three_sigma: float
    hits: int
    samples: int


def _grid_index(seed: int, index: int) -> int:
    """The grid point j of sample `index`: the window point is lo + width*j/2^40."""
    import hashlib  # here, so that a CLI request that draws no sample does not load it

    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << _GRID_BITS)


def mc_measure(expr: SetExpr, cfg: SampleConfig) -> MCEstimate:
    """Monte-Carlo estimate of |expr ∩ (center - radius, center + radius)|."""
    if cfg.radius <= 0 or cfg.samples <= 0:
        raise RangeError("window radius and sample count must be positive")
    if cfg.samples > MAX_SAMPLES:
        raise RangeError(f"sample count is limited to {MAX_SAMPLES}")
    width = 2 * cfg.radius
    base, step, den = over_one_denominator(cfg.center - cfg.radius, width)
    base, den = base << _GRID_BITS, den << _GRID_BITS
    member = membership(expr)
    hits = 0
    for i in range(cfg.samples):
        if member(Q(base + step * _grid_index(cfg.seed, i), den)):
            hits += 1
    p = hits / cfg.samples
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / cfg.samples) * float(width)
    return MCEstimate(p * float(width), 3 * sigma, hits, cfg.samples)


@record
class ProfilePoint:
    delta: Q
    ratio: float
    exact: bool
    uncertainty: float


def density_profile(expr: SetExpr, a, depths: int, seed: int = 0, samples: int = 20000) -> list[ProfilePoint]:
    """Window ratios |expr ∩ (a - d, a + d)| / 2d for d = 2^-k, k < depths.

    Ratios come from the exact measure when the window set normalizes;
    otherwise from the Monte-Carlo estimator.
    """
    if depths > 40:
        raise RangeError("profile depth is limited to 40")
    a = Q(a)
    out = []
    for k in range(depths):
        delta = Q(1, 2**k)
        window = open_interval(a - delta, a + delta)
        try:
            m = measure(Intersection((expr, window)))
            ratio = float(m.value / (2 * delta))
            out.append(ProfilePoint(delta, ratio, m.bound_gap == 0, float(m.bound_gap / (2 * delta))))
        except UnsupportedIntersection:
            est = mc_measure(expr, SampleConfig(seed, samples, a, delta))
            out.append(ProfilePoint(delta, est.value / float(2 * delta), False, est.three_sigma / float(2 * delta)))
    return out
