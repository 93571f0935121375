"""Stacked multi-end-effector poses, the shared-parameter interpolant and
the k-norm stacking of per-effector distances."""

import math
import pickle

import numpy as np
import pytest

from trajsync.metric_core import NoSolution, Solution, hypersphere_clamp
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
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
    rng = np.random.default_rng(9)
    params = MultiMetricParams(
        (Se3MetricParams(20.0, 0.6), Se3MetricParams(35.0, math.inf)),
    )

    def rand_mp():
        return pair(
            Pose(rng.uniform(-80, 80, 3), quat_normalize(rng.normal(size=4))),
            Pose(rng.uniform(-80, 80, 3), quat_normalize(rng.normal(size=4))),
        )

    for _ in range(60):
        start, final, state = rand_mp(), rand_mp(), rand_mp()
        n = int(rng.integers(2, 120))
        fast = clamp_stacked(state, start, final, params, n)
        slow = hypersphere_clamp(
            state,
            start,
            final,
            stacked_interp,
            lambda a, b: stacked_distance(a, b, params),
            n,
        )
        assert type(fast) is type(slow)
        if isinstance(fast, Solution):
            assert fast.t == slow.t
            assert fast.dist == pytest.approx(slow.dist, abs=1e-9)
        else:
            assert fast.nearest_t == slow.nearest_t
            assert fast.nearest_dist == pytest.approx(slow.nearest_dist, abs=1e-9)


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
    # the clamp caches functions on the params, which must not stop a pickle
    params = MultiMetricParams.uniform(2, p_e=10.0, r_e=0.5)
    start, final = pair(pose(0.0), pose(0.0, 5.0)), pair(pose(50.0), pose(50.0))
    state = pair(pose(20.0), pose(20.0))
    want = clamp_stacked(state, start, final, params, 51)
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params
    got = clamp_stacked(state, start, final, copy, 51)
    assert (got.t, got.dist) == (want.t, want.dist)
