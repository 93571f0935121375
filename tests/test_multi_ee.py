"""Stacked multi-end-effector poses, the shared-parameter interpolant and
the k-norm stacking of per-effector distances."""

import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajsync import _kernels, multi_ee
from trajsync.metric_core import (
    ClampConfig,
    NoSolution,
    Solution,
    grid_parameters,
    hypersphere_clamp,
    sample_count,
)
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    StackedSegment,
    clamp_stacked,
    multi_pose,
    per_ee_distances,
    stacked_distance,
    stacked_interp,
)
from trajsync.scenarios import get_scenario
from trajsync.se3 import (
    Pose,
    Se3MetricParams,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    se3_interp,
)
from trajsync.sim import run_scenario

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def pose(x, y=0.0, z=0.0, q=None):
    return Pose(np.array([x, y, z]), IDENTITY if q is None else q)


def pair(a_pose, b_pose):
    return MultiPose(("a", "b"), (a_pose, b_pose))


# --- construction ------------------------------------------------------------

def test_multipose_validation():
    with pytest.raises(ValueError):
        MultiPose((), ())
    with pytest.raises(ValueError):
        MultiPose(("a", "a"), (pose(0.0), pose(1.0)))
    with pytest.raises(ValueError):
        MultiPose(("a", "b"), (pose(0.0),))


def test_multipose_is_read_only_from_both_constructors():
    built = pair(pose(1.0), pose(2.0))
    wrapped = MultiPose._of_arrays(("a", "b"), np.zeros((2, 3)), np.tile(IDENTITY, (2, 1)))
    for mp in (built, wrapped):
        for array in (mp.translations(), mp.quaternions()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 5.0
        for name in ("names", "_v", "_q", "other"):
            with pytest.raises(AttributeError):
                setattr(mp, name, None)
    # the rows are the whole state: poses and replace_pose go through them
    assert MultiPose.__slots__ == ("names", "_v", "_q")
    assert wrapped.poses[1].v[0] == 0.0
    assert wrapped.replace_pose("b", pose(7.0)).poses[1].v[0] == 7.0


def test_multipose_pickles_read_only():
    mp = pair(pose(1.0, 2.0), pose(-3.0, q=quat_from_axis_angle(Z, 0.4)))
    copy = pickle.loads(pickle.dumps(mp))
    assert copy.names == mp.names
    assert copy.translations().tobytes() == mp.translations().tobytes()
    assert copy.quaternions().tobytes() == mp.quaternions().tobytes()
    assert not copy.translations().flags.writeable
    assert not copy.quaternions().flags.writeable


def test_multi_pose_builder_and_accessors():
    mp = multi_pose([("left", pose(1.0)), ("right", pose(2.0))])
    assert mp.names == ("left", "right")
    assert len(mp) == 2
    assert mp.pose_of("right").v[0] == 2.0
    swapped = mp.replace_pose("left", pose(9.0))
    assert swapped.pose_of("left").v[0] == 9.0
    assert swapped.pose_of("right").v[0] == 2.0
    assert mp.translations().shape == (2, 3)
    assert mp.quaternions().shape == (2, 4)


def test_metric_params_validation():
    with pytest.raises(ValueError):
        MultiMetricParams(())
    with pytest.raises(ValueError):
        MultiMetricParams.uniform(2, p_e=10.0, norm_order=0.5)


# --- interpolation -----------------------------------------------------------

def test_stacked_interp_endpoints_bitwise():
    start = pair(pose(0.0), pose(5.0))
    final = pair(pose(10.0), pose(6.0))
    assert stacked_interp(0.0, start, final) is start
    assert stacked_interp(1.0, start, final) is final
    for t in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            stacked_interp(t, start, final)


def test_single_effector_reduces_to_pose_interpolation():
    q_f = quat_from_axis_angle(Z, 1.0)
    start = MultiPose(("only",), (pose(0.0),))
    final = MultiPose(("only",), (pose(10.0, q=q_f),))
    for t in (0.25, 0.5, 0.75):
        stacked = stacked_interp(t, start, final).poses[0]
        single = se3_interp(t, start.poses[0], final.poses[0])
        assert np.array_equal(stacked.v, single.v)
        assert np.array_equal(stacked.q, single.q)


def test_static_effector_stays_put_while_other_moves():
    start = pair(pose(0.0), pose(7.0))
    final = pair(pose(10.0), pose(7.0))
    mid = stacked_interp(0.5, start, final)
    assert np.array_equal(mid.pose_of("b").v, [7.0, 0.0, 0.0])
    assert np.array_equal(mid.pose_of("a").v, [5.0, 0.0, 0.0])


def test_stacked_interp_name_mismatch_rejected():
    start = pair(pose(0.0), pose(1.0))
    final = MultiPose(("a", "c"), (pose(0.0), pose(1.0)))
    with pytest.raises(ValueError):
        stacked_interp(0.5, start, final)


# --- stacked metric ----------------------------------------------------------

def test_max_norm_takes_the_worst_effector():
    params = MultiMetricParams.uniform(2, p_e=10.0)
    x = pair(pose(0.0), pose(0.0))
    y = pair(pose(3.0), pose(9.0))  # per-effector distances 0.3 and 0.9
    assert per_ee_distances(x, y, params) == (0.3, 0.9)
    assert stacked_distance(x, y, params) == 0.9


def test_two_norm_stacks_in_quadrature():
    params = MultiMetricParams.uniform(2, p_e=10.0, norm_order=2.0)
    x = pair(pose(0.0), pose(0.0))
    y = pair(pose(3.0), pose(9.0))
    assert stacked_distance(x, y, params) == pytest.approx(math.sqrt(0.9), abs=1e-15)


def test_distance_to_self_is_zero():
    params = MultiMetricParams.uniform(2, p_e=10.0, r_e=0.5)
    x = pair(pose(1.0, 2.0, 3.0), pose(-4.0))
    assert stacked_distance(x, x, params) == 0.0


def test_moving_one_effector_never_shrinks_the_distance():
    x = pair(pose(0.0), pose(0.0))
    for k in (1.0, 2.0, math.inf):
        params = MultiMetricParams.uniform(2, p_e=10.0, norm_order=k)
        closer = pair(pose(3.0), pose(4.0))
        farther = pair(pose(3.0), pose(8.0))
        assert stacked_distance(x, farther, params) >= stacked_distance(
            x, closer, params
        )


def test_max_norm_unit_ball_equivalence():
    rng = np.random.default_rng(5)
    params = MultiMetricParams.uniform(3, p_e=10.0, r_e=0.8)
    names = ("a", "b", "c")
    for _ in range(300):
        x = MultiPose(
            names,
            tuple(
                Pose(rng.uniform(-20, 20, 3), quat_normalize(rng.normal(size=4)))
                for _ in range(3)
            ),
        )
        y = MultiPose(
            names,
            tuple(
                Pose(rng.uniform(-20, 20, 3), quat_normalize(rng.normal(size=4)))
                for _ in range(3)
            ),
        )
        stacked = stacked_distance(x, y, params)
        per = per_ee_distances(x, y, params)
        assert (stacked <= 1.0) == all(d <= 1.0 for d in per)


def test_metric_length_mismatch_rejected():
    params = MultiMetricParams.uniform(3, p_e=10.0)
    x = pair(pose(0.0), pose(0.0))
    with pytest.raises(ValueError):
        stacked_distance(x, x, params)


# --- stacked clamp -----------------------------------------------------------

def test_clamp_stacked_equals_generic_scan():
    # The batched floor-first scan against the sequential scan over the same
    # interpolant and metric: the same outcome and sample for every norm
    # order, and the same bits under a floor on and off the grid.
    rng = np.random.default_rng(9)

    def rand_mp():
        return pair(
            Pose(rng.uniform(-80, 80, 3), quat_normalize(rng.normal(size=4))),
            Pose(rng.uniform(-80, 80, 3), quat_normalize(rng.normal(size=4))),
        )

    seen = set()
    for k in (1.0, 2.0, 3.5, math.inf):
        params = MultiMetricParams(
            (Se3MetricParams(20.0, 0.6), Se3MetricParams(35.0, math.inf)), norm_order=k
        )
        for i in range(40):
            start, final, state = rand_mp(), rand_mp(), rand_mp()
            if i % 2:  # near the segment, so that some samples are in the ball
                on_path = stacked_interp(rng.uniform(), start, final)
                state = MultiPose._of_arrays(
                    on_path.names, on_path.translations() + rng.uniform(-5, 5, (2, 3)),
                    on_path.quaternions().copy(),
                )
            n = int(rng.integers(2, 120))
            fast = clamp_stacked(state, start, final, params, n)
            slow = hypersphere_clamp(state, start, final, stacked_interp, params.distance, n)
            assert type(fast) is type(slow)
            seen.add((k, type(fast)))
            assert outcome_bits(fast)[3:] == outcome_bits(slow)[3:]  # the point
            if isinstance(fast, Solution):
                assert fast.t == slow.t
                assert fast.dist == pytest.approx(slow.dist, abs=1e-9)
            else:
                assert fast.nearest_t == slow.nearest_t
                assert fast.nearest_dist == pytest.approx(slow.nearest_dist, abs=1e-9)
            on_grid = float(grid_parameters(n)[rng.integers(n)])
            for t_min in (on_grid, float(rng.uniform())):
                floored = StackedSegment(start, final, params, n).clamp(state, t_min)
                assert outcome_bits(floored) == outcome_bits(fast)
    assert len(seen) == 8  # a hit and a miss under every norm order
    with pytest.raises(ValueError):
        clamp_stacked(state, start, final, params, 1)
    with pytest.raises(ValueError):
        hypersphere_clamp(state, start, final, stacked_interp, params.distance, 1)
    renamed = MultiPose(("a", "c"), state.poses)
    with pytest.raises(ValueError):
        clamp_stacked(renamed, start, final, params, 5)
    with pytest.raises(ValueError):
        hypersphere_clamp(renamed, start, final, stacked_interp, params.distance, 5)


def test_clamp_stacked_tie_resolves_to_larger_t():
    # A segment that stays put puts every sample at the same distance: the
    # nearest sample is the first of the equal minima, t = 1.
    params = MultiMetricParams.uniform(2, p_e=10.0)
    start, final = pair(pose(0.0), pose(5.0)), pair(pose(0.0), pose(5.0))
    out = StackedSegment(start, final, params, 7).clamp(pair(pose(30.0), pose(5.0)))
    assert isinstance(out, NoSolution)
    assert out.nearest_t == 1.0
    assert out.nearest_dist == 3.0


def test_clamp_stacked_counts_a_distance_of_exactly_one_as_inside():
    # The sample at t = 0.5 lies at distance 1.0 exactly, and the one above
    # it outside: it is the hit with or without a floor above it.
    params = MultiMetricParams.uniform(1, p_e=10.0)
    one = lambda x: MultiPose(("a",), (pose(x),))
    for t_min in (0.0, 0.7):
        out = StackedSegment(one(0.0), one(100.0), params, 101).clamp(one(40.0), t_min)
        assert isinstance(out, Solution)
        assert (out.t, out.dist) == (0.5, 1.0)


@pytest.mark.parametrize("n_samples", [-1, 0, 1])
def test_rotation_free_infinity_norm_clamp_rejects_fewer_than_two_samples(n_samples):
    # The state is at the segment's end, where the hit at t = 1 is located
    # without reading the grid: the segment checks the count itself.
    params = MultiMetricParams.uniform(1, 10.0)
    with pytest.raises(ValueError, match="sample count"):
        clamp_stacked(along_x(100.0), along_x(0.0), along_x(100.0), params, n_samples)


def test_floored_clamp_computes_the_coefficients_once(monkeypatch):
    # The only hit lies below the floor, so under the 2-norm, which always
    # scores the grid, the tail is scored too; both parts share one set of
    # coefficients.
    scored = scored_samples(monkeypatch)
    calls = []
    coefficients = _kernels.segment_coefficients

    def counted(*args):
        calls.append(args)
        return coefficients(*args)

    monkeypatch.setattr(_kernels, "segment_coefficients", counted)
    params = MultiMetricParams.uniform(1, p_e=10.0, norm_order=2.0)
    one = lambda x: MultiPose(("a",), (pose(x),))
    out = StackedSegment(one(0.0), one(100.0), params, 101).clamp(one(24.5), 0.5)
    assert isinstance(out, Solution)
    assert out.t == grid_parameters(101)[66]  # 0.34
    j = np.count_nonzero(grid_parameters(101) >= 0.5) or 101
    assert scored == [j, 101 - j]
    assert len(calls) == 1


def test_clamp_stacked_solution_is_on_the_interpolant():
    params = MultiMetricParams.uniform(2, p_e=10.0)
    start = pair(pose(0.0), pose(0.0))
    final = pair(pose(100.0), pose(50.0))
    state = pair(pose(2.0), pose(1.0))
    out = clamp_stacked(state, start, final, params, 101)
    assert isinstance(out, Solution)
    expected = stacked_interp(out.t, start, final)
    for got, want in zip(out.point.poses, expected.poses):
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.q, want.q)
    assert out.dist <= 1.0


def test_metric_params_pickle_after_a_clamp():
    # a clamp caches the per-limb columns on the params, which must not stop a pickle
    params = MultiMetricParams.uniform(2, p_e=10.0, r_e=0.5)
    start, final = pair(pose(0.0), pose(0.0, 5.0)), pair(pose(50.0), pose(50.0))
    state = pair(pose(20.0), pose(20.0))
    want = clamp_stacked(state, start, final, params, 51)
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params
    got = clamp_stacked(state, start, final, copy, 51)
    assert (got.t, got.dist) == (want.t, want.dist)


# --- floor-first scan ----------------------------------------------------------

CASES = ("hit_above_floor", "hit_only_below_floor", "no_hit", "floor_on_the_grid")


@st.composite
def floored_clamps(draw):
    """A stacked clamp instance, a floor t_min and the case it was built for."""
    case = draw(st.sampled_from(CASES))
    n_limbs = draw(st.sampled_from((1, 2, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = tuple(f"l{i}" for i in range(n_limbs))

    def stack(v):
        return MultiPose(names, tuple(Pose(row, quat_normalize(rng.normal(size=4))) for row in v))

    v_start = rng.uniform(-100.0, 100.0, (n_limbs, 3))
    start = stack(v_start)
    final = stack(v_start + rng.uniform(-150.0, 150.0, (n_limbs, 3)))
    r_e = [math.inf if rng.uniform() < 0.4 else rng.uniform(0.3, 1.5) for _ in range(n_limbs)]
    params = MultiMetricParams(
        tuple(Se3MetricParams(rng.uniform(5.0, 30.0), r) for r in r_e),
        norm_order=draw(st.sampled_from((math.inf, 1.0, 2.0, 3.5))),
    )
    n_samples = draw(st.integers(2, 900))
    ts = grid_parameters(n_samples)
    if case == "floor_on_the_grid":
        t_min = float(ts[draw(st.integers(0, n_samples - 1))])
    elif case == "hit_only_below_floor":
        t_min = draw(st.floats(0.3, 1.0))
    else:
        t_min = draw(st.floats(0.0, 1.0))
    # the sensed state: near the segment above the floor, near it below the
    # floor, or far from all of it
    if case == "hit_above_floor":
        t_state = rng.uniform(t_min, 1.0)
    elif case == "hit_only_below_floor":
        t_state = rng.uniform(0.0, t_min - 0.25)
    else:
        t_state = rng.uniform()
    on_path = stacked_interp(float(t_state), start, final)
    offset = 1000.0 if case == "no_hit" else 2.0
    state = MultiPose._of_arrays(
        names, on_path.translations() + rng.uniform(-offset, offset, (n_limbs, 3)),
        on_path.quaternions().copy(),
    )
    return case, state, start, final, params, n_samples, t_min


def outcome_bits(out):
    if isinstance(out, Solution):
        point, t, dist = out.point, out.t, out.dist
    else:
        point, t, dist = out.nearest_point, out.nearest_t, out.nearest_dist
    return (
        type(out), np.float64(t).tobytes(), np.float64(dist).tobytes(),
        point.translations().tobytes(), point.quaternions().tobytes(),
    )


@settings(max_examples=200, deadline=None)
@given(floored_clamps())
def test_floor_first_scan_keeps_the_outcome(instance):
    case, state, start, final, params, n, t_min = instance
    whole = clamp_stacked(state, start, final, params, n)
    floored = StackedSegment(start, final, params, n).clamp(state, t_min)
    assert outcome_bits(floored) == outcome_bits(whole)
    # count the example only when it realises the case it was built for
    hit = isinstance(whole, Solution)
    if case == "hit_above_floor":
        assume(hit and whole.t >= t_min)
    elif case == "hit_only_below_floor":
        assume(hit and whole.t < t_min)
    elif case == "no_hit":
        assume(not hit)


@pytest.mark.parametrize("t_min", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("x", [20.0, 200.0])  # a hit, a miss
def test_floor_with_no_sample_above_scores_the_whole_grid(monkeypatch, t_min, x):
    # No sample lies at or above these floors, so the scan is the one of no
    # floor: the whole grid in one call, with the same outcome.
    params = MultiMetricParams.uniform(2, 10.0, norm_order=2.0)
    segment = StackedSegment(along_x(0.0, 2), along_x(100.0, 2), params, 700)
    state = along_x(x, 2)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, t_min)
    assert calls == [700]
    assert outcome_bits(out) == outcome_bits(segment.clamp(state, 0.0))


# --- rotation-free clamps: the located hit and the scan -----------------------

def whole_grid_clamp(segment, state):
    """The clamp with every sample scored in one kernel call: the outcome the
    floor-first scan gives under every floor."""
    ts = grid_parameters(segment.n_samples)
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    dists = _kernels.grid_distances(ts, coeffs, segment.params.norm_order)
    feasible = dists <= 1.0
    hit = bool(feasible.any())
    i = int(np.argmax(feasible) if hit else np.argmin(dists))
    t = float(ts[i])
    outcome = Solution if hit else NoSolution
    return outcome(stacked_interp(t, segment.start, segment.final), t, float(dists[i]))


def scored_samples(monkeypatch):
    """The sample count of every grid kernel call made from now on."""
    calls = []
    grid = _kernels.grid_distances

    def counted(ts, coeffs, k):
        calls.append(len(ts))
        return grid(ts, coeffs, k)

    monkeypatch.setattr(_kernels, "grid_distances", counted)
    return calls


def along_x(x, n_limbs=1):
    """n limbs at x, 3 mm apart along y."""
    names = tuple(f"l{i}" for i in range(n_limbs))
    return MultiPose(names, tuple(pose(x, 3.0 * i) for i in range(n_limbs)))


@st.composite
def rotation_free_clamps(draw):
    """A rotation-free stacked clamp and a floor t_min, the state at a chosen
    stacked distance r from the path at some t_state, off the path at right
    angles to every limb's motion (so r is the least distance, and r near 1
    makes the ball tangent to the path) or in any direction.

    t_state lies anywhere, on a grid sample, near the floor or below it, at
    t = 1, or where the ball's interval of t would end just above t = 0.
    Some limbs stay put, and some stacks travel so many balls that the
    convexity margin is infinite."""
    n_limbs = draw(st.integers(1, 6))
    k = draw(st.sampled_from((1.0, 2.0, 3.5, math.inf)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3, 1e6)))  # mm
    r = draw(st.sampled_from((0.0, 0.5, 0.999, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.001, 2.0, 50.0)))
    tangent = draw(st.booleans())
    n = draw(st.integers(2, 900) | st.integers(300, 900))
    j = min(n, draw(st.integers(1, 63) | st.integers(1, 900)))
    floor = draw(st.sampled_from(("none", "on_grid", "off_grid")))
    where = draw(st.sampled_from(("anywhere", "on_sample", "near_floor", "below_floor", "one", "zero")))
    far = draw(st.booleans()) and draw(st.booleans())  # some 10**7 balls of travel
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = tuple(f"l{i}" for i in range(n_limbs))

    def stack(v):
        return MultiPose(names, tuple(Pose(row, IDENTITY) for row in v))

    v_start = rng.uniform(-scale, scale, (n_limbs, 3))
    dv = rng.uniform(-scale, scale, (n_limbs, 3))
    dv[rng.uniform(size=n_limbs) < 0.2] = 0.0  # limbs that stay put
    p_e = scale * 10.0 ** (rng.uniform(-7.5, -6.5, n_limbs) if far else rng.uniform(-2.5, 0.5, n_limbs))
    params = MultiMetricParams(tuple(Se3MetricParams(p) for p in p_e), norm_order=k)
    offset = rng.normal(size=(n_limbs, 3))
    if tangent:
        for o, d in zip(offset, dv):
            if d.any():
                o -= (o @ d) / (d @ d) * d
    offset /= np.linalg.norm(offset, axis=1)[:, None]
    c = rng.uniform(0.1, 1.0, n_limbs)
    c *= r / np.linalg.norm(c, k)
    ts = grid_parameters(n)
    if floor == "none" or j == n:
        j, t_min = n, 0.0
    elif floor == "on_grid":
        t_min = float(ts[j - 1])
    else:
        t_min = float(0.5 * (ts[j] + ts[j - 1]))
    if where == "on_sample":
        t_state = ts[rng.integers(n)]
    elif where == "near_floor":
        t_state = min(max(ts[j - 1] + rng.uniform(-0.05, 0.1), 0.0), 1.0)
    elif where == "below_floor":
        t_state = max(ts[j - 1] - rng.uniform(0.0, 0.5), 0.0)
    elif where == "one":
        t_state = 1.0
    elif where == "zero":
        # behind the start by the half-width of the tightest limb's interval
        # (exact for a tangent state under k = inf), less up to one grid step
        travel = np.linalg.norm(dv, axis=1) / p_e
        moving = travel > 0.0
        half = np.sqrt(np.maximum(1.0 - c * c, 0.0))[moving] / travel[moving]
        t_state = -(half.min() if moving.any() else 0.0) + rng.uniform() / (n - 1)
    else:
        t_state = rng.uniform()
    state = stack(v_start + t_state * dv + offset * (c * p_e)[:, None])
    return StackedSegment(stack(v_start), stack(v_start + dv), params, n), state, t_min


@settings(max_examples=1200, deadline=None)
@given(rotation_free_clamps())
def test_rotation_free_clamp_keeps_the_outcome(instance):
    segment, state, t_min = instance
    assert outcome_bits(segment.clamp(state, t_min)) == outcome_bits(whole_grid_clamp(segment, state))


# Under a finite norm order a rotation-free clamp scores the grid floor
# first, as a rotating one does: the window of samples at and above the
# floor in one kernel call, then the rest only when that window holds no
# hit. The test_window_* cases pin that scan's calls and outcome.

@pytest.mark.parametrize("t_min", [0.0, 0.5])
def test_window_top_inside_the_ball_falls_back(monkeypatch, t_min):
    # Every sample is inside the ball: t = 1, the first sample of the head,
    # is the hit.
    params = MultiMetricParams.uniform(1, 1000.0, norm_order=2.0)
    segment = StackedSegment(along_x(0.0), along_x(100.0), params, 700)
    state = along_x(50.0)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, t_min)
    assert isinstance(out, Solution)
    assert out.t == 1.0
    assert calls == [np.count_nonzero(grid_parameters(700) >= t_min) or 700]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_window_top_within_the_margin_falls_back(monkeypatch):
    # ts[636] reads 1 + 1e-5, just outside the ball, and ts[637] inside: the
    # hit is ts[637], found in the one call that scores the whole grid.
    params = MultiMetricParams.uniform(1, 1.0, norm_order=2.0)
    segment = StackedSegment(along_x(0.0), along_x(699.0), params, 700)
    assert segment._margin is None  # a finite norm order locates no hit
    ts = grid_parameters(700)
    state = along_x(float(ts[636]) * 699.0 - 1.0 - 1e-5)
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    top = _kernels.grid_distances(ts[636:], coeffs, 2.0)[0]
    assert 1.0 < top < 1.0 + 1e-4
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert calls == [700]
    assert isinstance(out, Solution) and out.t == ts[637]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_window_miss_reports_the_nearest_sample_of_the_whole_grid(monkeypatch):
    # The state is far off the path beside t = 0.3: no sample is a hit, and
    # the nearest one comes from the whole grid, scored in one call.
    params = MultiMetricParams.uniform(2, 10.0, norm_order=2.0)
    segment = StackedSegment(along_x(0.0, 2), along_x(100.0, 2), params, 700)
    state = MultiPose(("l0", "l1"), (pose(30.0, 50.0), pose(30.0, 53.0)))
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert isinstance(out, NoSolution)
    assert abs(out.nearest_t - 0.3) < 2e-3
    assert calls == [700]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_window_hit_only_below_the_floor_scores_the_tail(monkeypatch):
    params = MultiMetricParams.uniform(1, 10.0, norm_order=2.0)
    segment = StackedSegment(along_x(0.0), along_x(100.0), params, 700)
    state = along_x(20.0)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, 0.6)
    assert isinstance(out, Solution)
    assert abs(out.t - 0.3) < 2e-3
    j = np.count_nonzero(grid_parameters(700) >= 0.6) or 700
    assert calls == [j, 700 - j]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_rotating_stack_with_two_feasible_intervals_returns_the_higher(monkeypatch):
    # One limb turning about z from 100 to 260 degrees, sensed at the
    # identity: the relative angle runs 100 -> 180 -> 100 degrees, so under
    # r_e = 110 degrees t in [0, 0.0625] and [0.9375, 1] are feasible. The
    # lowest 64 samples hold a hit below a top far outside the ball, yet the
    # hit is t = 1: a rotating stack scores its whole head.
    def turned(degrees):
        q = quat_from_axis_angle(Z, math.radians(degrees))
        return MultiPose(("a",), (pose(0.0, q=q),))

    params = MultiMetricParams.uniform(1, 10.0, r_e=math.radians(110.0))
    segment = StackedSegment(turned(100.0), turned(260.0), params, 101)
    state = MultiPose(("a",), (pose(0.0),))
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    lowest = _kernels.grid_distances(grid_parameters(101)[-64:], coeffs, math.inf)
    assert lowest[0] > 1.4 and (lowest <= 1.0).any()
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert isinstance(out, Solution)
    assert out.t == 1.0
    assert calls == [101]


def steady_tracking(r_e, norm_order, off):
    """Six limbs on a 70 mm segment at the default sample count, the state
    ``off`` mm beside the path and the floor 3 samples below the hit, as a
    step after a steady one sees it: (segment, state, t_min, the whole
    grid's outcome, hit index)."""
    params = MultiMetricParams.uniform(6, 10.0, r_e=r_e, norm_order=norm_order)
    start, final = along_x(0.0, 6), along_x(70.0, 6)
    n = sample_count(start, final, params.distance, ClampConfig())
    segment = StackedSegment(start, final, params, n)
    state = MultiPose(start.names, tuple(pose(28.0, 3.0 * i, off) for i in range(6)))
    whole = whole_grid_clamp(segment, state)
    assert isinstance(whole, Solution)
    ts = grid_parameters(n)
    hit = int(np.flatnonzero(ts == whole.t)[0])
    return segment, state, float(ts[hit + 3]), whole, hit


@pytest.mark.parametrize("r_e", [math.inf, 0.5])
def test_steady_tracking_clamp_scores_one_window(monkeypatch, r_e):
    # Under the 2-norm (1715 samples), with rotation or without, one kernel
    # call scores the head down to the floor, 3 samples below the hit.
    segment, state, t_min, whole, hit = steady_tracking(r_e, 2.0, 2.0)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, t_min)
    assert outcome_bits(out) == outcome_bits(whole)
    assert calls == [hit + 4]


def test_certified_steady_hit_calls_no_kernel(monkeypatch):
    # The same step under the infinity norm, half a ball off the path: the
    # located hit is certified by two scalar readings.
    segment, state, t_min, whole, _ = steady_tracking(math.inf, math.inf, 5.0)
    assert segment.n_samples == 700
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, t_min)
    assert outcome_bits(out) == outcome_bits(whole)
    assert calls == []


@pytest.mark.parametrize("t_min", [0.0, 0.5])
def test_hit_at_t_one_calls_no_kernel(monkeypatch, t_min):
    # Every sample is inside the ball: t = 1 is the hit, with no sample
    # above it to read.
    segment = StackedSegment(along_x(0.0), along_x(100.0), MultiMetricParams.uniform(1, 1000.0), 700)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(along_x(50.0), t_min)
    assert isinstance(out, Solution)
    assert out.t == 1.0
    assert calls == []


def test_located_hit_at_a_distance_of_exactly_one_calls_no_kernel(monkeypatch):
    # ts[50] = 0.5 lies at distance 1.0 exactly and ts[49] at 1.1: the
    # located sample is inside the ball, and certified.
    params = MultiMetricParams.uniform(1, 10.0)
    segment = StackedSegment(along_x(0.0), along_x(100.0), params, 101)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(along_x(40.0))
    assert isinstance(out, Solution)
    assert (out.t, out.dist) == (0.5, 1.0)
    assert calls == []


def test_located_reading_below_zero_is_clamped_as_the_kernel_clamps(monkeypatch):
    # The state sits within 1e-12 mm of the segment's end, where the
    # quadratic's rounding reads -9.1e-13: the hit is t = 1 at distance 0.
    one = lambda v: MultiPose(("a",), (Pose(np.array(v), IDENTITY),))
    segment = StackedSegment(
        one([-94.5, 50.7, 7.6]), one([-34.1, 57.7, -39.4]), MultiMetricParams.uniform(1, 1.0), 101
    )
    state = one([-34.1000000000001, 57.6999999999993, -39.4000000000002])
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    ((ta, tb, tc),), _ = coeffs
    assert ta + tb + tc < 0.0
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert calls == []
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))
    assert (out.t, out.dist) == (1.0, 0.0)


@pytest.mark.parametrize("t_min", [0.0, 0.6])
def test_infinity_norm_miss_scores_head_then_tail(monkeypatch, t_min):
    # The state is far off the path beside t = 0.3: no limb's interval
    # meets its ball, so the grid is scored as without the closed form.
    params = MultiMetricParams.uniform(2, 10.0)
    segment = StackedSegment(along_x(0.0, 2), along_x(100.0, 2), params, 700)
    state = MultiPose(("l0", "l1"), (pose(30.0, 50.0), pose(30.0, 53.0)))
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state, t_min)
    assert isinstance(out, NoSolution)
    assert abs(out.nearest_t - 0.3) < 2e-3
    j = np.count_nonzero(grid_parameters(700) >= t_min) or 700
    assert calls == [j] + ([700 - j] if j < 700 else [])
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_located_sample_within_the_margin_falls_back(monkeypatch):
    # The interval's top lies just below ts[636], so ts[637] is located and
    # reads inside the ball, but ts[636] reads 1 + 1e-5, inside the margin
    # of this 699 mm segment: the grid is scored.
    segment = StackedSegment(along_x(0.0), along_x(699.0), MultiMetricParams.uniform(1, 1.0), 700)
    ts = grid_parameters(700)
    state = along_x(float(ts[636]) * 699.0 - 1.0 - 1e-5)
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    above, located = _kernels.grid_distances(ts[636:638], coeffs, math.inf)
    assert 1.0 < above <= 1.0 + segment._margin and located <= 1.0
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert calls == [700]
    assert isinstance(out, Solution) and out.t == ts[637]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


def test_infinite_margin_never_certifies(monkeypatch):
    # A limb that travels 2e6 balls: the margin is inf, so the lone feasible
    # sample ts[350], half a ball beside the path, is found by the grid.
    segment = StackedSegment(along_x(0.0), along_x(2e6), MultiMetricParams.uniform(1, 1.0), 701)
    assert segment._margin == math.inf
    ts = grid_parameters(701)
    state = MultiPose(("l0",), (pose(float(ts[350]) * 2e6, 0.5),))
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert calls == [701]
    assert isinstance(out, Solution) and out.t == ts[350]
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


@pytest.mark.parametrize("off, certified", [(4.0, True), (12.0, False)])
def test_static_limb_bounds_the_located_hit(monkeypatch, off, certified):
    # Limb l1 stays put (ta = tb = 0): 0.4 balls from the state it leaves
    # the hit to the moving limb, 1.2 balls away it makes every sample miss.
    params = MultiMetricParams.uniform(2, 10.0)
    start = MultiPose(("l0", "l1"), (pose(0.0), pose(0.0, 50.0)))
    final = MultiPose(("l0", "l1"), (pose(100.0), pose(0.0, 50.0)))
    segment = StackedSegment(start, final, params, 700)
    state = MultiPose(("l0", "l1"), (pose(30.0), pose(0.0, 50.0 + off)))
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert isinstance(out, Solution if certified else NoSolution)
    assert calls == ([] if certified else [700])
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


@pytest.mark.parametrize("off, certified", [(5.0, True), (15.0, False)])
def test_limb_whose_travel_squares_to_zero_bounds_the_top_by_its_linear_root(
    monkeypatch, off, certified
):
    # Limb l1 travels 1e-170 mm: its ta underflows to 0.0 while its tb does
    # not, so its root is linear, (1 - tc) / tb. Half a ball behind its start
    # that root lies far above 1 and the hit is l0's; 1.5 balls behind it the
    # root, and so the top, is negative, and the grid misses.
    params = MultiMetricParams.uniform(2, 10.0)
    start = MultiPose(("l0", "l1"), (pose(0.0), pose(0.0, 50.0)))
    final = MultiPose(("l0", "l1"), (pose(100.0), pose(1e-170, 50.0)))
    segment = StackedSegment(start, final, params, 700)
    state = MultiPose(("l0", "l1"), (pose(30.0), pose(-off, 50.0)))
    coeffs = _kernels.segment_coefficients(segment.constants, state._v, state._q)
    (_, (ta, tb, tc)), _ = coeffs
    assert ta == 0.0 and tb > 0.0 and (tc < 1.0) == certified
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert isinstance(out, Solution if certified else NoSolution)
    assert calls == ([] if certified else [700])
    assert outcome_bits(out) == outcome_bits(whole_grid_clamp(segment, state))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_falls_back_to_the_grid(monkeypatch, bad):
    # A NaN or inf coordinate, through the unvalidated library path: the
    # kernel's readings, not Python's max, decide the outcome.
    params = MultiMetricParams.uniform(2, 10.0)
    segment = StackedSegment(along_x(0.0, 2), along_x(100.0, 2), params, 700)
    v = np.array([[30.0, 0.0, 0.0], [30.0, 3.0, bad]])
    state = MultiPose._of_arrays(("l0", "l1"), v, np.tile(IDENTITY, (2, 1)))
    whole = whole_grid_clamp(segment, state)
    calls = scored_samples(monkeypatch)
    out = segment.clamp(state)
    assert calls == [700]
    assert type(out) is type(whole) is NoSolution
    assert outcome_bits(out)[1:3] == outcome_bits(whole)[1:3]  # t and dist


def test_robustness_mix_scores_the_grid_only_on_misses(monkeypatch):
    # Every hit of the builtin fault barrage (six rotation-free limbs under
    # the infinity norm) is certified in closed form; a miss scores at most
    # the head and the tail.
    misses = []
    clamp = StackedSegment.clamp

    def observed(self, state, t_min=0.0):
        out = clamp(self, state, t_min)
        misses.append(isinstance(out, NoSolution))
        return out

    calls = scored_samples(monkeypatch)
    monkeypatch.setattr(StackedSegment, "clamp", observed)
    run_scenario(get_scenario("robustness_mix"))
    assert len(misses) > 6000
    assert 0 < len(calls) <= 2 * sum(misses)


# --- the last clamp's outcome, kept by the segment -----------------------------

def fresh_clamp(segment, state, t_min):
    """``segment.clamp`` on a new segment of the same endpoints, params and
    sample count: nothing kept from an earlier clamp."""
    fresh = StackedSegment(segment.start, segment.final, segment.params, segment.n_samples)
    return fresh.clamp(state, t_min)


def counted_calls(monkeypatch, *lookups):
    """One entry per call, from now on, of each ``(module, name)`` function."""
    calls = []
    for module, name in lookups:
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=function: calls.append(1) or f(*a))
    return calls


def test_kept_segments_clamp_robustness_mix_as_fresh_ones(monkeypatch):
    # The controller keeps each segment across the steps that clamp it; every
    # outcome of the run equals that of a fresh segment on the same state and
    # floor, bit for bit. Most steps stall at the last t, and many sense the
    # last state again, so both reuses are exercised.
    clamps = []
    clamp = StackedSegment.clamp

    def observed(self, state, t_min=0.0):
        out = clamp(self, state, t_min)
        clamps.append((self, state, t_min, out))
        return out

    monkeypatch.setattr(StackedSegment, "clamp", observed)
    run_scenario(get_scenario("robustness_mix"))
    monkeypatch.undo()
    repeated = held = 0
    for (segment, state, t_min, out), before in zip(clamps, [None, *clamps]):
        assert outcome_bits(out) == outcome_bits(fresh_clamp(segment, state, t_min))
        if before is not None and before[0] is segment:
            repeated += before[3] is out
            held += outcome_bits(before[3])[1] == outcome_bits(out)[1]
    assert len(clamps) > 6000 and repeated > 1000 and held > 3000


def turning_stack():
    """Two limbs under the 2-norm with finite r_e: limb a turns about z on a
    sign-flipped arc (its final quaternion has a negative dot with the
    start's), limb b about x."""
    x = np.array([1.0, 0.0, 0.0])
    start = pair(pose(0.0), pose(0.0, 30.0, q=quat_from_axis_angle(x, 0.2)))
    final = pair(
        pose(60.0, q=-quat_from_axis_angle(Z, 1.2)), pose(50.0, 30.0, q=quat_from_axis_angle(x, 0.9))
    )
    assert np.dot(start.quaternions()[0], final.quaternions()[0]) < 0.0
    params = MultiMetricParams.uniform(2, 10.0, r_e=0.5, norm_order=2.0)
    return StackedSegment(start, final, params, 400)


def turning_states(segment, rng, steps):
    """(state, t_min) pairs a controller could clamp along ``segment``: the
    state sensed again unchanged, nudged in its translations, turned in one
    limb's quaternion alone, carried on along the path, or knocked far off
    it, under a floor that walks up and down."""
    t_state, t_min = 0.1, 0.0
    on_path = stacked_interp(t_state, segment.start, segment.final)
    v, q = on_path.translations().copy(), on_path.quaternions().copy()
    for _ in range(steps):
        move = rng.choice(["again", "nudge", "turn", "advance", "far"])
        if move == "nudge":
            v = v + rng.uniform(-0.5, 0.5, v.shape)
        elif move == "turn":
            q = q.copy()
            i = rng.integers(2)
            q[i] = quat_mul(q[i], quat_from_axis_angle(rng.normal(size=3), 0.05))
        elif move == "advance":
            t_state = min(1.0, t_state + rng.uniform(0.0, 0.05))
            on_path = stacked_interp(t_state, segment.start, segment.final)
            v = on_path.translations() + rng.uniform(-2.0, 2.0, v.shape)
            q = on_path.quaternions().copy()
        elif move == "far":
            v = v + 200.0
        t_min = float(np.clip(t_min + rng.uniform(-0.1, 0.1), 0.0, 1.0))
        yield MultiPose._of_arrays(segment.start.names, v.copy(), q.copy()), t_min


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_segment_clamps_a_turning_stack_as_fresh_ones(monkeypatch, seed):
    # A state that turns one limb and keeps every translation is clamped
    # afresh: its rotation moves the distances, so an outcome kept for its
    # translations alone would carry the wrong bits.
    segment = turning_stack()
    interps = counted_calls(monkeypatch, (multi_ee, "stacked_interp"))
    before, repeated, kept_point = None, 0, 0
    for state, t_min in turning_states(segment, np.random.default_rng(seed), 150):
        n = len(interps)
        out = segment.clamp(state, t_min)
        if before is not None:
            repeated += out is before
            kept_point += out is not before and len(interps) == n
        assert outcome_bits(out) == outcome_bits(fresh_clamp(segment, state, t_min))
        before = out
    assert repeated > 5 and kept_point > 5


def test_the_last_state_under_another_floor_gets_the_kept_outcome(monkeypatch):
    # The floor orders the grid's work, never the outcome.
    segment = turning_stack()
    state, t_min = next(turning_states(segment, np.random.default_rng(0), 1))
    out = segment.clamp(state, t_min)
    calls = scored_samples(monkeypatch)
    again = MultiPose._of_arrays(state.names, state.translations().copy(), state.quaternions().copy())
    assert segment.clamp(again, 1.0 - t_min) is out
    assert calls == []


@pytest.mark.parametrize(
    "rows, index, change",
    [
        ("v", (0, 1), "zero_sign"), ("v", (1, 2), "zero_sign"),
        ("q", (0, 1), "zero_sign"), ("q", (1, 3), "zero_sign"),
        ("v", (0, 0), "ulp"), ("q", (1, 0), "ulp"),
    ],
)
def test_a_state_one_bit_away_is_clamped_afresh(monkeypatch, rows, index, change):
    # The last state's bytes are the key: -0.0 for 0.0, or the next float,
    # in one translation or quaternion entry makes the clamp run again.
    segment = turning_stack()
    v = np.array([[20.0, 0.0, 0.0], [15.0, 30.0, 0.0]])
    q = np.array([IDENTITY, quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.2)])
    out = segment.clamp(MultiPose._of_arrays(segment.start.names, v.copy(), q.copy()))
    rows = {"v": v, "q": q}[rows]
    rows[index] = -rows[index] if change == "zero_sign" else np.nextafter(rows[index], math.inf)
    state = MultiPose._of_arrays(segment.start.names, v, q)
    coefficients = counted_calls(monkeypatch, (_kernels, "segment_coefficients"))
    again = segment.clamp(state)
    assert len(coefficients) == 1
    assert again is not out
    assert outcome_bits(again) == outcome_bits(fresh_clamp(segment, state, 0.0))


def test_a_miss_at_the_last_miss_t_reuses_its_nearest_point(monkeypatch):
    # Far off the path beside t = 0.3, then moved along y: still a miss whose
    # nearest sample is the same, and its point is not interpolated again.
    params = MultiMetricParams.uniform(2, 10.0)
    segment = StackedSegment(along_x(0.0, 2), along_x(100.0, 2), params, 700)
    first = segment.clamp(MultiPose(("l0", "l1"), (pose(30.0, 50.0), pose(30.0, 53.0))))
    interps = counted_calls(monkeypatch, (multi_ee, "stacked_interp"))
    state = MultiPose(("l0", "l1"), (pose(30.0, 60.0), pose(30.0, 63.0)))
    second = segment.clamp(state)
    assert isinstance(first, NoSolution) and isinstance(second, NoSolution)
    assert second.nearest_t == first.nearest_t and second.nearest_dist != first.nearest_dist
    assert second.nearest_point is first.nearest_point
    assert interps == []
    assert outcome_bits(second) == outcome_bits(fresh_clamp(segment, state, 0.0))


def test_threads_sharing_a_segment_get_the_outcomes_of_fresh_ones():
    # Threads clamping one segment, each its own states, interleave their
    # reads and writes of the slot; every outcome is still a fresh clamp's.
    segment = turning_stack()
    runs = [list(turning_states(segment, np.random.default_rng(seed), 60)) for seed in range(4)]
    expected = [[outcome_bits(fresh_clamp(segment, *c)) for c in run] for run in runs]
    got = [[] for _ in runs]

    def worker(run, out):
        out.extend(outcome_bits(segment.clamp(*c)) for c in run)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=pair) for pair in zip(runs, got)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
