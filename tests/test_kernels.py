"""Batched distance kernel: agreement with the reference math."""

import math

import numpy as np
import pytest

from trajsync._kernels import (
    grid_distances,
    located_hit,
    segment_coefficients,
    segment_constants,
)
from trajsync.metric_core import grid_parameters
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    StackedSegment,
    stacked_distance,
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


def grid_eval(state, start, final, params, ts):
    """The segment's batched distances from ``state`` at every sample of ``ts``."""
    constants = StackedSegment(start, final, params, len(ts)).constants
    coeffs, _ = segment_coefficients(constants, state._v, state._q)
    return grid_distances(ts, coeffs, params.norm_order)


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
    ts = np.linspace(1.0, 0.0, 157)
    for _ in range(20):
        start = random_multipose(rng, n)
        final = random_multipose(rng, n)
        state = random_multipose(rng, n)
        batched = grid_eval(state, start, final, params, ts)
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
    ts = np.linspace(1.0, 0.0, 33)
    start = random_multipose(rng, 2)
    final = random_multipose(rng, 2)
    state = random_multipose(rng, 2)
    got = grid_eval(state, start, final, params, ts)
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
    got = grid_eval(state, start, final, params, ts)
    expect = np.abs(ts * 10.0 - 5.0) / 10.0
    np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)


def test_rotation_free_one_limb_distances_at_t_1_and_0():
    out = grid_distances(
        np.array([1.0, 0.0]),
        segment_coefficients(
            segment_constants(
                np.zeros((1, 3)), np.ones((1, 3)),
                np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0, 0.0]]),
                np.ones(1), np.full(1, math.inf), [],
            ),
            np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]),
        )[0],
        math.inf,
    )
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.sqrt(3.0))
    assert out[1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 6])
def test_scalar_infinity_norm_reading_matches_the_grid_bit_for_bit(n):
    # Rotation-free limbs at many scales, some static, the state on the path
    # at a grid sample (where a limb's quadratic can round below 0, and the
    # clamp at 0 decides the reading when every limb's does) or off it.
    rng = np.random.default_rng(7 + n)
    ts = np.linspace(1.0, 0.0, 701)
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    below_zero = 0
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        vs = rng.uniform(-scale, scale, (n, 3))
        vf = vs + rng.uniform(-scale, scale, (n, 3))
        static = rng.uniform(size=n) < 0.2
        vf[static] = vs[static]
        off = scale * rng.choice([0.0, 1e-3, 1.0])
        vy = vs + ts[rng.integers(len(ts))] * (vf - vs) + rng.uniform(-off, off, (n, 3))
        p_e = scale * 10.0 ** rng.uniform(-3.0, 0.0, n)
        constants = segment_constants(vs, vf, identity, identity, p_e, np.full(n, math.inf), [])
        (limbs, rotation), _ = segment_coefficients(constants, vy, identity)
        assert rotation == []
        assert_reads_the_grid(limbs, len(ts))
        below_zero += any(a * t * t + b * t + c < 0.0 for a, b, c in limbs for t in ts.tolist())
    assert below_zero > 0


def assert_reads_the_grid(limbs, n_samples):
    """``located_hit``'s readings equal the grid's distances bit for bit on
    a grid of ``n_samples``: at ts[i], each sample proposed in turn, and at
    ts[i - 1], against bounds at the grid's reading there and one step below.

    The limbs are scaled by a power of 4 that brings every reading into the
    ball, where the hit reports it. That scales every square, and so every
    root, exactly, as the first assertion confirms."""
    ts = grid_parameters(n_samples)
    grid = grid_distances(ts, (limbs, []), math.inf)
    m = max(0, math.frexp(grid.max())[1])
    scale = 4.0**-m
    limbs = [(a * scale, b * scale, c * scale) for a, b, c in limbs]
    grid *= 2.0**-m
    assert grid_distances(ts, (limbs, []), math.inf).tobytes() == grid.tobytes()
    samples, last = ts.tolist(), n_samples - 1
    for i, (t, dist) in enumerate(zip(samples, grid.tolist())):
        top = t
        while math.ceil((1.0 - top) * last) > i:  # the top that proposes ts[i]
            top = math.nextafter(top, 2.0)
        # Under an infinite margin any reading certifies: ts[i] alone decides.
        assert bits(located_hit(limbs, top, n_samples, -math.inf)) == bits((t, dist))
        if i:
            above = grid[i - 1]
            for margin in (above - 1.0, math.nextafter(above, 0.0) - 1.0):
                want = (t, dist) if above > 1.0 + margin else None
                assert bits(located_hit(limbs, top, n_samples, margin)) == bits(want)


def bits(pair):
    return None if pair is None else np.array(pair).tobytes()


@pytest.mark.parametrize(
    "limbs",
    [
        [(-0.0, -0.0, -0.0)],  # a square of -0.0, which the grid reads +0.0
        [(-0.0, -0.0, -0.0), (0.0, 0.0, -0.0), (-5e-324, -1e-300, -0.0)],
        [(-1.0, 0.5, -2.0), (-0.0, -0.0, -0.0)],  # below 0 everywhere, and -0.0
        [(-1.0, 0.5, -2.0)] * 3,  # tied limbs below 0
        [(1.0, -1.0, 0.25), (4.0, -4.0, 1.0), (1.0, -1.0, 0.25)],  # tied, 0 at t = 0.5
        [(2.0, -3.0, 1.25), (0.0, 0.0, 0.5), (2.0, -3.0, 1.25), (0.0, 0.0, 0.0)],
    ],
    ids=["minus-zero", "signed-zeros", "negative-and-minus-zero", "tied-negative", "tied-zero", "tied"],
)
def test_scalar_infinity_norm_reading_keeps_the_grids_zeros_and_ties(limbs):
    assert_reads_the_grid(limbs, 11)


def einsum_coefficients(vs, vf, vy, p_e):
    """(ta, tb, tc) of every row as numpy's einsum formulas give them."""
    with np.errstate(all="ignore"):  # inf and NaN are wanted here
        dv, sv, pe2 = vf - vs, vs - vy, p_e * p_e
        return (
            np.einsum("ij,ij->i", dv, dv) / pe2,
            2.0 * np.einsum("ij,ij->i", dv, sv) / pe2,
            np.einsum("ij,ij->i", sv, sv) / pe2,
        )


def same_bits(a, b):
    """Elementwise: equal bit for bit, or both NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def awkward_rows(rng, n):
    """(n, 3) rows at one random scale each, from subnormal products to
    overflowing ones, with ±0.0, subnormals, ±1e-200, ±1e308, ±inf and NaN
    mixed in; a tenth of the rows are made of zeros and tiny values only,
    whose products round to ±0.0."""
    rows = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-165.0, 155.0, (n, 1))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-200, -1e-200,
                        1e308, -1e308, math.inf, -math.inf, math.nan])
    mixed = rng.uniform(size=(n, 3)) < 0.1
    rows[mixed] = rng.choice(special, mixed.sum())
    tiny = rng.uniform(size=n) < 0.1
    rows[tiny] = rng.choice(special[:8], (tiny.sum(), 3))
    return rows


def test_scalar_coefficients_equal_the_einsum_formulas_bit_for_bit():
    # The per-limb Python coefficients against the array formulas they
    # replace: 3-term dots in einsum's order, its + 0.0 (rows of zeros and
    # underflowing products, where a sum of -0.0 shows) and (2 x) / pe2, not
    # 2 (x / pe2) (dots near overflow, quotients in the subnormal range).
    rng = np.random.default_rng(19)
    n = 240_000
    vs, vf, vy = (awkward_rows(rng, n) for _ in range(3))
    p_e = 10.0 ** rng.uniform(-3.0, 3.0, n)
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    constants = segment_constants(vs, vf, identity, identity, p_e, np.full(n, math.inf), [])
    (limbs, rotation), _ = segment_coefficients(constants, vy, identity)
    assert rotation == []
    for got, want in zip(np.array(limbs).T, einsum_coefficients(vs, vf, vy, p_e)):
        assert same_bits(got, want).all()
    # Random stacks, rotation groups among them: the translation part is
    # the same whichever limbs rotate.
    for _ in range(300):
        k = int(rng.integers(1, 7))
        params = random_params(rng, k, math.inf)
        start, final, state = (random_multipose(rng, k) for _ in range(3))
        segment = StackedSegment(start, final, params, 2)
        (limbs, rotation), _ = segment_coefficients(segment.constants, state._v, state._q)
        p_e = params._columns[0]
        want = einsum_coefficients(start._v, final._v, state._v, p_e)
        assert same_bits(np.array(limbs).T, want).all()
