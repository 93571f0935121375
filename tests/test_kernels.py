"""Batched distance kernel: agreement with the reference math."""

import math

import numpy as np
import pytest

from trajsync._kernels import grid_distances, segment_coefficients
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    stacked_distance,
    stacked_grid_eval,
    stacked_interp,
)
from trajsync.se3 import Pose, Se3MetricParams, quat_normalize


def random_multipose(rng, n):
    names = tuple(f"ee{i}" for i in range(n))
    poses = tuple(
        Pose(rng.uniform(-100, 100, 3), quat_normalize(rng.normal(size=4)))
        for _ in range(n)
    )
    return MultiPose(names, poses)


def random_params(rng, n, k):
    per_ee = tuple(
        Se3MetricParams(
            p_e=float(rng.uniform(5, 50)),
            r_e=math.inf if rng.random() < 0.3 else float(rng.uniform(0.2, 1.5)),
        )
        for _ in range(n)
    )
    return MultiMetricParams(per_ee, norm_order=k)


@pytest.mark.parametrize("n,k", [(1, math.inf), (2, math.inf), (6, math.inf), (3, 2.0)])
def test_batched_distances_match_per_sample_evaluation(n, k):
    rng = np.random.default_rng(42 + n)
    params = random_params(rng, n, k)
    grid_eval = stacked_grid_eval(params)
    ts = np.linspace(1.0, 0.0, 157)
    for _ in range(20):
        start = random_multipose(rng, n)
        final = random_multipose(rng, n)
        state = random_multipose(rng, n)
        batched = grid_eval(state, start, final, ts)
        direct = np.array(
            [
                stacked_distance(stacked_interp(float(t), start, final), state, params)
                for t in ts
            ]
        )
        np.testing.assert_allclose(batched, direct, atol=1e-9, rtol=0)


def test_infinite_rotation_allowance_reduces_to_translation_metric():
    rng = np.random.default_rng(3)
    params = MultiMetricParams.uniform(2, p_e=10.0)
    grid_eval = stacked_grid_eval(params)
    ts = np.linspace(1.0, 0.0, 33)
    start = random_multipose(rng, 2)
    final = random_multipose(rng, 2)
    state = random_multipose(rng, 2)
    got = grid_eval(state, start, final, ts)
    expect = np.array(
        [
            max(
                np.linalg.norm(
                    (1 - t) * s.v + t * f.v - y.v
                )
                / 10.0
                for s, f, y in zip(start.poses, final.poses, state.poses)
            )
            for t in ts
        ]
    )
    np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)


def test_identical_rotations_contribute_zero():
    q = quat_normalize(np.array([0.7, 0.1, -0.3, 0.2]))
    pose = lambda v: Pose(np.array(v, dtype=float), q)
    start = MultiPose(("a",), (pose([0.0, 0.0, 0.0]),))
    final = MultiPose(("a",), (pose([10.0, 0.0, 0.0]),))
    state = MultiPose(("a",), (pose([5.0, 0.0, 0.0]),))
    params = MultiMetricParams((Se3MetricParams(p_e=10.0, r_e=0.5),))
    ts = np.linspace(1.0, 0.0, 11)
    got = stacked_grid_eval(params)(state, start, final, ts)
    expect = np.abs(ts * 10.0 - 5.0) / 10.0
    np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)


def test_active_backend_is_a_known_one():
    out = grid_distances(
        np.array([1.0, 0.0]),
        segment_coefficients(
            np.zeros((1, 3)), np.ones((1, 3)), np.zeros((1, 3)),
            np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0, 0.0]]),
            np.ones(1), np.full(1, math.inf),
        ),
        math.inf,
    )
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.sqrt(3.0))
    assert out[1] == 0.0
