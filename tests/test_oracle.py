import hashlib
import inspect
import random
from fractions import Fraction as Q

import pytest

from limitlab import oracle
from limitlab.analyzers import measure
from limitlab.dsl import parse_set
from limitlab.errors import RangeError
from limitlab.oracle import MAX_SAMPLES, MCEstimate, ProfilePoint, SampleConfig, density_profile, mc_measure
from limitlab.sets import FULL_LINE, Union, cantor_affine, interval, open_interval, points

from conftest import rand_rat


def test_determinism():
    cfg = SampleConfig(seed=123, samples=4000, center=Q(0), radius=Q(2))
    e1 = mc_measure(interval(0, 1), cfg)
    e2 = mc_measure(interval(0, 1), cfg)
    assert e1 == e2


def test_seed_changes_sample_stream():
    from limitlab.oracle import _grid_index

    stream1 = [_grid_index(1, i) for i in range(10)]
    stream2 = [_grid_index(2, i) for i in range(10)]
    assert stream1 != stream2
    assert stream1 == [_grid_index(1, i) for i in range(10)]


def test_three_sigma_consistency_on_interval_unions():
    rng = random.Random(303)
    hits = 0
    runs = 100
    expr = Union((interval(Q(-3, 2), Q(-1, 2)), interval(0, Q(3, 4)), interval(1, Q(9, 8))))
    exact = measure(expr).value
    for seed in range(runs):
        est = mc_measure(expr, SampleConfig(seed, 2500, Q(0), Q(2)))
        if abs(est.value - float(exact)) <= est.three_sigma:
            hits += 1
    assert hits >= 99


def test_profile_of_measure_zero_sets_is_zero():
    prof = density_profile(cantor_affine(0, 1), 0, 10)
    assert all(p.ratio == 0 for p in prof)
    prof2 = density_profile(points(0, Q(1, 3)), 0, 8)
    assert all(p.ratio == 0 for p in prof2)


def test_profile_interval():
    prof = density_profile(interval(0, 1), 0, 10)
    assert all(abs(p.ratio - 0.5) < 1e-12 for p in prof)


def test_profile_omega_trend(omega_set):
    prof = density_profile(omega_set, 0, 14)
    ratios = [p.ratio for p in prof]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[12] < 0.05
    assert all(p.exact for p in prof)


def test_profile_depth_limit(omega_set):
    with pytest.raises(ValueError):
        density_profile(omega_set, 0, 41)


def test_sample_count_is_capped():
    for samples in (MAX_SAMPLES + 1, 10**8):
        with pytest.raises(RangeError, match="sample count is limited"):
            mc_measure(interval(0, 1), SampleConfig(0, samples, Q(0), Q(1)))
    # the profile's fallback estimate stays under the cap
    assert inspect.signature(density_profile).parameters["samples"].default <= MAX_SAMPLES


# windows with negative and integer centers, radii with large denominators
_WINDOWS = [
    (Q(0), Q(2)),
    (Q(-3), Q(1)),
    (Q(5), Q(3**41, 7**30)),
    (Q(-7, 3), Q(5, 2**70 + 1)),
    (Q(-1, 10**20 + 3), Q(1, 2**45)),
]


@pytest.mark.parametrize("center, radius", _WINDOWS)
def test_samples_are_the_points_of_the_fraction_formula(monkeypatch, center, radius):
    drawn = []
    monkeypatch.setattr(oracle, "membership", lambda expr: drawn.append)
    mc_measure(FULL_LINE, SampleConfig(7, 300, center, radius))
    grid = [int.from_bytes(hashlib.sha256(f"7:{i}".encode()).digest()[:8], "big") % 2**40 for i in range(300)]
    assert drawn == [center - radius + 2 * radius * Q(j, 2**40) for j in grid]
    assert all(type(x) is Q for x in drawn)


# the hit counts that lo + width * Fraction(j, 2^40) gives, pinned
@pytest.mark.parametrize(
    "text, center, radius, hits",
    [
        ("[-3/2,-1/2] | [0,3/4] | [1,9/8]", Q(0), Q(2), [934, 899, 986]),
        # refused by the algebra (rationals ∩ Cantor image): tested node by node
        ("Q((0,1)) & cantor(0, 1) | [2, 3]", Q(1), Q(2), [522, 502, 477]),
        ("[-1, 1] \\ seq(1/n)", Q(-1), Q(1, 3**40), [1029, 1007, 982]),
        ("(-inf, -2) | (1/3, inf)", Q(-2), Q(5, 2**70 + 1), [971, 993, 1018]),
        ("family(1/n - (1/2)^n, 1/n)", Q(0), Q(1, 4), [464, 455, 404]),
    ],
)
def test_hits_are_unchanged(text, center, radius, hits):
    e = parse_set(text)
    assert [mc_measure(e, SampleConfig(seed, 2000, center, radius)).hits for seed in range(3)] == hits
