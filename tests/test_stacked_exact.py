"""The stacked (array) primitives against the per-pose functions of ``se3``.

Every comparison is on the bits (``tobytes``), not within a tolerance: the
trace contract is byte-identical output, and a last-bit drift in any of these
shows up there. The cases cover antipodal quaternions, a flat arc below
FLAT_ARC_ANGLE, a relative angle near 1e-17, sign-flipped and identical
quaternions, infinite and finite r_e, and t at 0, inside and at 1.
"""

import math

import numpy as np
import pytest

from trajsync import _kernels
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    per_ee_distances,
    stacked_distance,
    stacked_interp,
)
from trajsync.se3 import (
    FLAT_ARC_ANGLE,
    Pose,
    aligned_quat,
    Se3MetricParams,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    se3_distance,
    se3_interp,
    slerp,
)
from trajsync.sim import Box, Disturbance, DisturbanceKind, LimbModel, _plant_constants, limb_step

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
AXIS = np.array([0.3, -0.5, 0.8])
TS = (0.0, 1e-9, 0.25, 0.5, 0.7311, 1.0 - 1e-12, 1.0)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def rotated(q, angle, axis=AXIS):
    return quat_mul(q, quat_from_axis_angle(axis, angle))


def quaternion_pairs():
    """(q_s, q_f) pairs, one per limb of the test stacks."""
    rng = np.random.default_rng(11)
    generic = quat_normalize(rng.normal(size=4))
    return [
        (generic, quat_normalize(rng.normal(size=4))),  # a generic arc
        (IDENTITY, np.array([0.0, 1.0, 0.0, 0.0])),  # antipodal, q_f kept
        (IDENTITY, np.array([0.0, -1.0, 0.0, 0.0])),  # antipodal, q_f flipped
        (IDENTITY, np.array([0.0, 0.0, 0.0, -1.0])),  # antipodal, last component
        (generic, rotated(generic, 0.5 * FLAT_ARC_ANGLE)),  # flat arc
        (generic, -rotated(generic, 0.9)),  # the longer arc: q_f flipped
        (generic, generic),  # identical rotations
        (IDENTITY, IDENTITY),
        (generic, rotated(generic, 1e-17, np.array([0.0, 0.0, 1.0]))),  # ~1e-17 apart
    ]


def stacks(pairs, seed=3):
    rng = np.random.default_rng(seed)
    names = tuple(f"l{i}" for i in range(len(pairs)))
    start = MultiPose(names, tuple(Pose(rng.uniform(-50, 50, 3), qs) for qs, _ in pairs))
    final = MultiPose(names, tuple(Pose(rng.uniform(-50, 50, 3), qf) for _, qf in pairs))
    return start, final


def assert_same_poses(got: MultiPose, want: list[Pose]):
    assert len(got) == len(want)
    for g, w in zip(got.poses, want):
        assert bits(g.v) == bits(w.v)
        assert bits(g.q) == bits(w.q)


# --- interpolation -------------------------------------------------------------

@pytest.mark.parametrize("t", TS)
def test_stacked_interp_equals_se3_interp(t):
    start, final = stacks(quaternion_pairs())
    got = stacked_interp(t, start, final)
    assert_same_poses(got, [se3_interp(t, s, f) for s, f in zip(start.poses, final.poses)])


@pytest.mark.parametrize("t", TS)
def test_identity_only_stack_equals_se3_interp(t):
    # the rotation-free shortcut of the stacked slerp
    start, final = stacks([(IDENTITY, IDENTITY)] * 3, seed=4)
    got = stacked_interp(t, start, final)
    assert_same_poses(got, [se3_interp(t, s, f) for s, f in zip(start.poses, final.poses)])


def test_identity_shortcut_needs_exact_identity_bits():
    # (1, -0, 0, 0) equals the identity numerically but not bit for bit, and
    # the general path turns its -0 into +0.
    negzero = np.array([1.0, -0.0, 0.0, 0.0])
    start, final = stacks([(negzero, IDENTITY), (IDENTITY, negzero)], seed=5)
    for t in (0.25, 0.5):
        got = stacked_interp(t, start, final)
        assert_same_poses(got, [se3_interp(t, s, f) for s, f in zip(start.poses, final.poses)])


# --- distances -----------------------------------------------------------------

def metric(n, norm_order):
    per_ee = tuple(
        Se3MetricParams(p_e=7.0 + 3.0 * i, r_e=math.inf if i % 3 == 0 else 0.2 + 0.1 * i)
        for i in range(n)
    )
    return MultiMetricParams(per_ee, norm_order)


@pytest.mark.parametrize("norm_order", [math.inf, 2.0])
@pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
def test_distances_equal_se3_distance(norm_order, t):
    pairs = quaternion_pairs()
    start, final = stacks(pairs)
    x = stacked_interp(t, start, final)
    params = metric(len(pairs), norm_order)
    for y in (start, final, x):
        want = [se3_distance(a, b, p) for a, b, p in zip(x.poses, y.poses, params.per_ee)]
        got = per_ee_distances(x, y, params)
        assert bits(got) == bits(want)
        stacked = stacked_distance(x, y, params)
        if math.isinf(norm_order):
            assert bits(stacked) == bits(max(want))
        else:
            assert bits(stacked) == bits(np.linalg.norm(want, ord=norm_order))


def test_tiny_relative_angle_is_resolved_like_se3():
    q = quaternion_pairs()[0][0]
    names = ("a", "b")
    x = MultiPose(names, (Pose(np.zeros(3), q), Pose(np.ones(3), IDENTITY)))
    y = MultiPose(names, (
        Pose(np.zeros(3), rotated(q, 1e-17, np.array([0.0, 0.0, 1.0]))),
        Pose(np.ones(3), rotated(IDENTITY, 3e-17)),
    ))
    params = MultiMetricParams.uniform(2, p_e=10.0, r_e=1e-16)
    want = [se3_distance(a, b, p) for a, b, p in zip(x.poses, y.poses, params.per_ee)]
    assert bits(per_ee_distances(x, y, params)) == bits(want)


def test_distances_equal_se3_distance_on_random_rotations():
    # numpy's arctan2 differs from math.atan2 on a few percent of moderate
    # angles, so many random pairs are needed to see such a drift.
    rng = np.random.default_rng(21)
    n = 64
    names = tuple(f"l{i}" for i in range(n))
    params = MultiMetricParams.uniform(n, p_e=15.0, r_e=0.7, norm_order=2.0)
    for _ in range(8):
        x, y = (
            MultiPose(names, tuple(
                Pose(rng.uniform(-30, 30, 3), quat_normalize(rng.normal(size=4)))
                for _ in range(n)
            ))
            for _ in range(2)
        )
        want = [se3_distance(a, b, p) for a, b, p in zip(x.poses, y.poses, params.per_ee)]
        assert bits(per_ee_distances(x, y, params)) == bits(want)
        assert bits(stacked_distance(x, y, params)) == bits(np.linalg.norm(want, ord=2.0))


# --- grid kernel ---------------------------------------------------------------

# Rotation term of one limb in the per-limb references below.
ROT_SKIP = 0  # r_e is infinite, rotation ignored
ROT_ARC = 1  # alpha cos(t w) + beta sin(t w)
ROT_FLAT = 2  # arc numerically flat: alpha + beta t

# The limbs of quaternion_pairs() on a circular arc and on a flat one.
ARC_PAIRS = (0, 1, 2, 3, 5)
FLAT_PAIRS = (4, 6, 7, 8)


def reference_grid(ts, coeffs, k):
    """The grid kernel as a limb-by-limb loop over per-limb coefficients."""
    ta, tb, tc, alpha, beta, omega, inv_re, rot_mode = coeffs
    acc = None
    for i in range(len(ta)):
        d2 = np.maximum(ta[i] * ts * ts + tb[i] * ts + tc[i], 0.0)
        if rot_mode[i] != ROT_SKIP:
            if rot_mode[i] == ROT_ARC:
                rd = alpha[i] * np.cos(ts * omega[i]) + beta[i] * np.sin(ts * omega[i])
            else:
                rd = alpha[i] + beta[i] * ts
            ang = 2.0 * np.arccos(np.minimum(np.abs(rd), 1.0)) * inv_re[i]
            d2 = d2 + ang * ang
        di = np.sqrt(d2)
        if acc is None:
            acc = di.copy() if math.isinf(k) else di**k
        elif math.isinf(k):
            np.maximum(acc, di, out=acc)
        else:
            acc += di**k
    if not math.isinf(k) and k != 1.0:
        acc **= 1.0 / k
    return acc


def reference_coefficients(vs, vf, vy, qs, qf, qy, p_e, r_e):
    """The rotation coefficients limb by limb, with the per-pose functions."""
    n = len(vs)
    alpha, beta, omega, inv_re = (np.zeros(n) for _ in range(4))
    rot_mode = np.zeros(n, dtype=np.int8)
    for i in range(n):
        if math.isinf(r_e[i]):
            continue
        inv_re[i] = 1.0 / r_e[i]
        qf_i = aligned_quat(qs[i], qf[i])
        dot = min(1.0, abs(float(np.dot(qs[i], qf_i))))
        om = math.acos(dot)
        c1 = float(np.dot(qs[i], qy[i]))
        c2 = float(np.dot(qf_i, qy[i]))
        alpha[i] = c1
        if om < FLAT_ARC_ANGLE:
            rot_mode[i], beta[i] = ROT_FLAT, c2 - c1
        else:
            rot_mode[i], beta[i] = ROT_ARC, (c2 - dot * c1) / math.sin(om)
            omega[i] = om
    return alpha, beta, omega, inv_re, rot_mode


def spread(rotation, n):
    """The kernel's rotation groups as the per-limb (alpha, beta, omega,
    inv_re, rot_mode) arrays of ``reference_coefficients``, checking the
    layout on the way: circular group first, each limb in at most one
    group, rows a full slice exactly when one group spans every limb, and
    every term a (rows, 1) column."""
    alpha, beta, omega, inv_re = (np.zeros(n) for _ in range(4))
    rot_mode = np.zeros(n, dtype=np.int8)
    assert [g[3] is None for g in rotation] in ([], [False], [True], [False, True])
    for rows, a, b, om, ire in rotation:
        limbs = np.arange(n)[rows]
        assert (rows == slice(None)) == (len(limbs) == n)
        assert (rot_mode[limbs] == ROT_SKIP).all()
        for column in (a, b, ire) if om is None else (a, b, om, ire):
            assert column.shape == (len(limbs), 1)
        alpha[limbs], beta[limbs], inv_re[limbs] = a[:, 0], b[:, 0], ire[:, 0]
        if om is None:
            rot_mode[limbs] = ROT_FLAT
        else:
            rot_mode[limbs], omega[limbs] = ROT_ARC, om[:, 0]
    return alpha, beta, omega, inv_re, rot_mode


@pytest.mark.parametrize("samples", [257, 2 * _kernels._BLOCK + 3])
@pytest.mark.parametrize("norm_order", [math.inf, 1.0, 2.0, 3.0])
def test_grid_kernel_equals_the_limb_by_limb_loop(norm_order, samples):
    check_grid_kernel(metric(len(quaternion_pairs()), norm_order), norm_order, samples)


@pytest.mark.parametrize("norm_order", [math.inf, 2.0])
def test_grid_kernel_with_every_limb_rotating(norm_order):
    n = len(quaternion_pairs())
    params = MultiMetricParams.uniform(n, p_e=9.0, r_e=0.4, norm_order=norm_order)
    assert params._columns[2] == slice(None)
    arcs, flats = check_grid_kernel(params, norm_order, 257)
    assert (arcs[0], flats[0]) == (list(ARC_PAIRS), list(FLAT_PAIRS))


@pytest.mark.parametrize("norm_order", [math.inf, 2.0])
@pytest.mark.parametrize("kind", [ARC_PAIRS, FLAT_PAIRS], ids=["arc", "flat"])
def test_grid_kernel_with_one_arc_kind_on_every_limb(norm_order, kind):
    pairs = [quaternion_pairs()[i] for i in kind]
    if kind is ARC_PAIRS:  # and generic arcs, where beta's rounding shows
        rng = np.random.default_rng(12)
        pairs += [tuple(quat_normalize(rng.normal(size=4)) for _ in range(2)) for _ in range(8)]
    params = MultiMetricParams.uniform(len(pairs), p_e=9.0, r_e=0.4, norm_order=norm_order)
    (group,) = check_grid_kernel(params, norm_order, 257, pairs)
    assert group[0] == slice(None)
    assert (group[3] is None) == (kind is FLAT_PAIRS)


@pytest.mark.parametrize("norm_order", [math.inf, 2.0])
def test_grid_kernel_with_no_rotating_limb(norm_order):
    params = MultiMetricParams.uniform(len(quaternion_pairs()), p_e=9.0, norm_order=norm_order)
    assert len(check_grid_kernel(params, norm_order, 257)) == 0


def check_grid_kernel(params, norm_order, samples, pairs=None):
    """Compare the kernel's coefficients and grid with the references bit
    for bit; returns its rotation groups."""
    pairs = pairs or quaternion_pairs()
    start, final = stacks(pairs)
    state = stacked_interp(0.4, start, stacks(pairs, seed=8)[1])
    p_e, r_e, rot = params._columns
    ts = 1.0 - np.arange(samples) / (samples - 1)
    args = (
        start.translations(), final.translations(), state.translations(),
        start.quaternions(), final.quaternions(), state.quaternions(), p_e, r_e,
    )
    segment = _kernels.segment_constants(
        start.translations(), final.translations(),
        start.quaternions(), final.quaternions(), p_e, r_e, rot,
    )
    coeffs, _ = _kernels.segment_coefficients(
        segment, state.translations(), state.quaternions()
    )
    limbs, rotation = coeffs
    per_limb = spread(rotation, len(pairs))
    for got, want in zip(per_limb, reference_coefficients(*args)):
        assert bits(got) == bits(want)
    assert bits(_kernels.grid_distances(ts, coeffs, norm_order)) == bits(
        reference_grid(ts, (*zip(*limbs), *per_limb), norm_order)
    )
    return rotation


# --- plant ---------------------------------------------------------------------

def reference_step(limb, current: Pose, command: Pose, acting, dt) -> Pose:
    """One limb's plant step written with the per-pose functions."""
    speed = limb.max_ee_speed
    for d in acting:
        if d.kind in (DisturbanceKind.BLOCK, DisturbanceKind.FREEZE, DisturbanceKind.POWER_CYCLE):
            return current
        if d.kind is DisturbanceKind.SLOWDOWN:
            speed *= d.factor
    frac = min(1.0, limb.tracking_gain * dt)
    dv = (command.v - current.v) * frac
    step_len = float(np.linalg.norm(dv))
    cap = speed * dt
    if step_len > cap:
        dv *= cap / step_len
    return Pose(limb.workspace.clip(current.v + dv), slerp(current.q, command.q, frac))


def plant_case(reach=1.0, rotating=True):
    """Limbs, faults and a stacked current and command state. The command
    sits ``reach`` of the way from the current state to a far one, so a
    small reach leaves every limb under its speed cap; rotation-free states
    carry the identity in every row."""
    pairs = quaternion_pairs()
    if not rotating:
        pairs = [(IDENTITY, IDENTITY)] * len(pairs)
    current, far = stacks(pairs, seed=6)
    v = current.translations() + reach * (far.translations() - current.translations())
    command = MultiPose._of_arrays(far.names, v, far.quaternions())
    box = Box(np.full(3, -1e3), np.full(3, 1e3))
    tight = Box(np.full(3, -100.0), np.array([100.0, 100.0, -45.0]))  # clips z
    limbs = tuple(
        LimbModel(
            name=name,
            max_ee_speed=(5.0, 1e6, 80.0)[i % 3],  # speed cap binds on the first
            workspace=tight if i % 2 == 1 else box,
            tracking_gain=(20.0, 50.0, 400.0)[i % 3],  # frac below 1 and at 1
        )
        for i, name in enumerate(current.names)
    )
    names = current.names
    disturbances = [
        Disturbance(DisturbanceKind.BLOCK, names[2], 0.0, 1.0),
        Disturbance(DisturbanceKind.SLOWDOWN, names[3], 0.0, 1.0, factor=0.3),
        Disturbance(DisturbanceKind.SLOWDOWN, names[3], 0.0, 1.0, factor=0.7),
        Disturbance(DisturbanceKind.POWER_CYCLE, names[5], 0.0, 1.0, offset=np.ones(3)),
        Disturbance(DisturbanceKind.SLOWDOWN, "ALL", 0.0, 1.0, factor=0.5),
    ]
    return limbs, current, command, disturbances


def stacked_step(plant, current: MultiPose, command: MultiPose) -> MultiPose:
    """``limb_step`` of two stacked states, its rows wrapped as one."""
    rows = limb_step(plant, current._v, current._q, command._v, command._q)
    return MultiPose._of_arrays(current.names, *rows)


@pytest.mark.parametrize("dt", [0.02, 0.1])
def test_stacked_plant_equals_per_limb_steps(dt):
    # At dt 0.1 every pursuit fraction is 1, at 0.02 one is 0.4; a reach of
    # 1e-5 leaves every limb under its cap, a reach of 1 puts some over it.
    # Rotation-free rows come back from the SLERP as the same array.
    for reach in (1.0, 1e-5):
        for rotating in (True, False):
            limbs, current, command, disturbances = plant_case(reach, rotating)
            got = stacked_step(_plant_constants(limbs, disturbances, dt), current, command)
            want = [
                reference_step(limb, c, m, [d for d in disturbances if d.targets(limb.name)], dt)
                for limb, c, m in zip(limbs, current.poses, command.poses)
            ]
            assert_same_poses(got, want)
            # and one-limb stacks agree with the full stack
            for i, limb in enumerate(limbs):
                one = stacked_step(
                    _plant_constants((limb,), disturbances, dt),
                    MultiPose((limb.name,), (current.poses[i],)),
                    MultiPose((limb.name,), (command.poses[i],)),
                )
                assert_same_poses(one, [want[i]])
