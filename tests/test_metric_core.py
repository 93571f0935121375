"""Grid construction, sample sizing and the clamp scan on a 1D toy space."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajsync.metric_core import (
    ClampConfig,
    NoSolution,
    Solution,
    grid_parameters,
    hypersphere_clamp,
    sample_count,
    weighted_euclidean,
)
from trajsync.multi_ee import MultiMetricParams, MultiPose, StackedSegment
from trajsync.se3 import Pose

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


# 1D toy space: points are floats, the trajectory is scalar LERP and the
# metric is plain absolute difference (allowed deviation 1).
def lerp(t, s, f):
    return s + t * (f - s)


def dist(a, b):
    return abs(a - b)


def clamp1d(y, s, f, n):
    return hypersphere_clamp(y, s, f, lerp, dist, n)


# --- grid --------------------------------------------------------------------

def test_grid_two_samples_is_endpoints():
    assert np.array_equal(grid_parameters(2), [1.0, 0.0])


def test_grid_descends_from_one_to_zero():
    ts = grid_parameters(11)
    assert ts[0] == 1.0
    assert ts[-1] == 0.0
    assert len(ts) == 11
    assert (np.diff(ts) < 0).all()


def test_grid_rejects_fewer_than_two():
    with pytest.raises(ValueError):
        grid_parameters(1)


# --- sample sizing -----------------------------------------------------------

def test_sample_count_scales_with_segment_length():
    cfg = ClampConfig()
    assert sample_count(0.0, 10.0, dist, cfg) == 1000


def test_sample_count_floor_for_degenerate_segment():
    cfg = ClampConfig()
    assert sample_count(5.0, 5.0, dist, cfg) == 2


def test_sample_count_rounds_up():
    cfg = ClampConfig()
    assert sample_count(0.0, 0.035, dist, cfg) == 4


def test_sample_count_caps_at_max():
    cfg = ClampConfig(max_samples=100)
    assert sample_count(0.0, 1e6, dist, cfg) == 100


def test_sample_count_of_an_overflowing_span_is_the_cap():
    # a span that overflows to inf, one that overflows when divided by the
    # step, and a NaN span all take max_samples instead of raising
    cfg = ClampConfig(max_samples=100)
    assert sample_count(-1e308, 1e308, dist, cfg) == 100
    assert sample_count(0.0, 1.0, dist, ClampConfig(step_distance=1e-320)) == 1_000_000
    assert sample_count(0.0, math.nan, dist, cfg) == 100


def test_clamp_config_validation():
    with pytest.raises(ValueError):
        ClampConfig(step_distance=0.0)
    with pytest.raises(ValueError):
        ClampConfig(min_samples=1)
    with pytest.raises(ValueError):
        ClampConfig(min_samples=10, max_samples=5)


# --- weighted euclidean ------------------------------------------------------

def test_weighted_euclidean_is_plain_norm_at_unit_weights():
    assert weighted_euclidean([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == 5.0


def test_weighted_euclidean_offset_at_allowance_is_one():
    assert weighted_euclidean([3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 1.0, 1.0]) == 1.0


def test_weighted_euclidean_validation():
    with pytest.raises(ValueError):
        weighted_euclidean([1.0, 2.0], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        weighted_euclidean([1.0], [1.0], [0.0])


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
)
def test_weighted_euclidean_axioms_on_samples(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    w = [1.0 + i for i in range(n)]
    d_ab = weighted_euclidean(a, b, w)
    assert d_ab >= 0.0
    assert weighted_euclidean(a, a, w) == 0.0
    assert d_ab == weighted_euclidean(b, a, w)


# --- clamp scan --------------------------------------------------------------

def test_whole_segment_inside_ball_returns_final():
    out = clamp1d(0.0, 0.0, 0.5, sample_count(0.0, 0.5, dist, ClampConfig()))
    assert isinstance(out, Solution)
    assert out.t == 1.0
    assert out.point == 0.5
    assert out.dist == 0.5


def test_long_segment_clamps_to_largest_feasible_sample():
    out = clamp1d(0.0, 0.0, 10.0, 1000)
    assert isinstance(out, Solution)
    # first feasible sample going down from t=1; the ball boundary sits at
    # t=0.1, so the hit lies within one grid step below it
    assert 0.1 - 1.0 / 999 < out.t <= 0.1
    assert out.t == 1.0 - 900.0 / 999.0
    assert out.dist <= 1.0
    # the next sample up the grid is infeasible (the pick is maximal)
    t_above = 1.0 - 899.0 / 999.0
    assert dist(lerp(t_above, 0.0, 10.0), 0.0) > 1.0


def test_unreachable_segment_reports_nearest_sample():
    out = clamp1d(0.0, 5.0, 10.0, sample_count(5.0, 10.0, dist, ClampConfig()))
    assert isinstance(out, NoSolution)
    assert out.nearest_t == 0.0
    assert out.nearest_point == 5.0
    assert out.nearest_dist == 5.0


def test_nearest_sample_tie_resolves_to_larger_t():
    # both endpoints sit at distance 5; the scan visits t=1 first
    out = clamp1d(0.0, -5.0, 5.0, 2)
    assert isinstance(out, NoSolution)
    assert out.nearest_t == 1.0
    assert out.nearest_point == 5.0


def test_clamp_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        clamp1d(0.0, 0.0, 1.0, 1)


def test_batch_grid_eval_matches_sequential_scan():
    # The stacked segment's batched floor-first scan, on one translation-only
    # limb moving along x with p_e = 1, is this 1D toy space: it picks the
    # same sample as the sequential scan, with or without a floor.
    def on_x(x):
        return MultiPose(("a",), (Pose(np.array([x, 0.0, 0.0]), IDENTITY),))

    def bits(outcome):
        point, t, d = vars(outcome).values()
        return type(outcome), point.translations().tobytes(), t, d

    params = MultiMetricParams.uniform(1, p_e=1.0)
    rng = np.random.default_rng(7)
    cases = [(*rng.uniform(-10, 10, size=3), int(rng.integers(2, 50))) for _ in range(200)]
    cases += [(0.0, 0.0, 5.0, 7), (0.0, 4.0, 5.0, 5)]  # equal minima; a distance of exactly 1
    seen = set()
    for s, f, y, n in cases:
        seq = clamp1d(y, s, f, n)
        segment = StackedSegment(on_x(s), on_x(f), params, n)
        bat = segment.clamp(on_x(y))
        assert type(seq) is type(bat)
        seen.add(type(seq))
        point, t, d = vars(bat).values()
        seq_point, seq_t, seq_d = vars(seq).values()
        assert t == seq_t
        assert point.translations()[0] == pytest.approx([seq_point, 0.0, 0.0], abs=1e-12)
        assert d == pytest.approx(seq_d, abs=1e-12)
        for t_min in (float(grid_parameters(n)[rng.integers(n)]), float(rng.uniform())):
            assert bits(segment.clamp(on_x(y), t_min)) == bits(bat)
    assert seen == {Solution, NoSolution}


@given(
    st.floats(-20, 20),
    st.floats(-20, 20),
    st.floats(-20, 20),
    st.integers(min_value=2, max_value=200),
)
def test_clamp_outcome_properties(y, s, f, n):
    out = clamp1d(y, s, f, n)
    ts = grid_parameters(n)
    dists = np.array([dist(lerp(t, s, f), y) for t in ts])
    if isinstance(out, Solution):
        # within the ball, on the trajectory, and maximal over the grid
        assert out.dist <= 1.0 + 1e-12
        assert out.point == lerp(out.t, s, f)
        assert (dists[ts > out.t] > 1.0).all()
    else:
        # nearest sample overall, ties resolved toward larger t
        assert (dists > 1.0).all()
        assert out.nearest_dist == dists.min()
        first_min = ts[int(np.argmin(dists))]
        assert out.nearest_t == first_min


def test_grid_is_shared_read_only_and_follows_the_sample_count():
    for n in (5, 7, 5, 7, 7, 2):
        ts = grid_parameters(n)
        assert np.array_equal(ts, 1.0 - np.arange(n) / (n - 1))
        with pytest.raises(ValueError):
            ts[0] = 0.5
    assert grid_parameters(2) is grid_parameters(2)
