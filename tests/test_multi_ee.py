"""Stacked multi-end-effector poses, the shared-parameter interpolant and
the k-norm stacking of per-effector distances."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajsync import _kernels
from trajsync.metric_core import NoSolution, Solution, grid_parameters, hypersphere_clamp
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
from trajsync.se3 import Pose, Se3MetricParams, quat_from_axis_angle, quat_normalize, se3_interp

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
        for name in ("names", "_v", "_q", "_poses", "other"):
            with pytest.raises(AttributeError):
                setattr(mp, name, None)
    # the lazily built poses are still set through the slots
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
                floored = clamp_stacked(state, start, final, params, n, t_min=t_min)
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
        out = clamp_stacked(one(40.0), one(0.0), one(100.0), params, 101, t_min=t_min)
        assert isinstance(out, Solution)
        assert (out.t, out.dist) == (0.5, 1.0)


def test_floored_clamp_computes_the_coefficients_once(monkeypatch):
    # The only hit lies below the floor, so the tail is scored too; both
    # parts share one set of coefficients.
    calls = []
    coefficients = _kernels.segment_coefficients

    def counted(*args):
        calls.append(args)
        return coefficients(*args)

    monkeypatch.setattr(_kernels, "segment_coefficients", counted)
    params = MultiMetricParams.uniform(1, p_e=10.0)
    one = lambda x: MultiPose(("a",), (pose(x),))
    out = clamp_stacked(one(24.5), one(0.0), one(100.0), params, 101, t_min=0.5)
    assert isinstance(out, Solution)
    assert out.t == grid_parameters(101)[66]  # 0.34
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
    floored = clamp_stacked(state, start, final, params, n, t_min=t_min)
    assert outcome_bits(floored) == outcome_bits(whole)
    # count the example only when it realises the case it was built for
    hit = isinstance(whole, Solution)
    if case == "hit_above_floor":
        assume(hit and whole.t >= t_min)
    elif case == "hit_only_below_floor":
        assume(hit and whole.t < t_min)
    elif case == "no_hit":
        assume(not hit)
