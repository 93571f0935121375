"""Quaternion primitives, SLERP and the single-pose weighted metric."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from trajsync.se3 import (
    FLAT_ARC_ANGLE,
    Pose,
    Se3MetricParams,
    aligned_quat,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    relative_rotation_angle,
    rotation_angle,
    rotations_equal,
    se3_distance,
    se3_interp,
    slerp,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def rot(axis, degrees):
    return quat_from_axis_angle(axis, math.radians(degrees))


@st.composite
def unit_quats(draw):
    comps = [
        draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        for _ in range(4)
    ]
    q = np.array(comps, dtype=np.float64)
    norm = np.linalg.norm(q)
    assume(norm > 1e-3)
    return q / norm


# --- quaternion basics -------------------------------------------------------

def test_quat_normalize_returns_unit_norm():
    q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(q, IDENTITY)
    q = quat_normalize(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)


def test_quat_normalize_of_a_finite_quaternion_whose_square_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = quat_normalize([1e200, 0.0, 0.0, 0.0])
    assert np.array_equal(q, IDENTITY)
    # a finite norm divides as it always has, bit for bit
    for q in ([1e153, -2e153, 3.0, 0.5], [0.3, -0.1, 0.7, 0.2]):
        want = np.array(q) / np.linalg.norm(q)
        assert quat_normalize(q).tobytes() == want.tobytes()


def test_quat_normalize_rejects_zero_and_bad_shape():
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(3))


def test_quat_mul_identity_and_inverse():
    q = rot(Z, 73.0)
    assert np.allclose(quat_mul(IDENTITY, q), q)
    assert np.allclose(quat_mul(q, quat_conj(q)), IDENTITY, atol=1e-15)


def test_quat_mul_composes_rotations():
    # two quarter turns about z make a half turn
    q = quat_mul(rot(Z, 90.0), rot(Z, 90.0))
    assert rotations_equal(q, rot(Z, 180.0), tol=1e-12)


def test_quat_from_axis_angle_half_turn():
    q = quat_from_axis_angle(X, math.pi)
    assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_rotations_equal_is_sign_blind():
    q = rot(Y, 40.0)
    assert rotations_equal(q, -q)
    assert not rotations_equal(q, rot(Y, 41.0))


@given(unit_quats(), unit_quats())
def test_aligned_quat_nonnegative_dot(q_s, q_f):
    out = aligned_quat(q_s, q_f)
    dot = float(np.dot(q_s, out))
    if abs(float(np.dot(q_s, q_f))) > 1e-12:
        assert dot >= 0.0
    else:
        # antipodal tie zone: the shorter arc is ambiguous, so the rule is
        # canonical sign, not nonnegative dot
        assert np.array_equal(out, aligned_quat(q_s, -q_f))
    assert rotations_equal(out, q_f, tol=1e-12)


@given(unit_quats(), unit_quats())
def test_aligned_quat_ignores_input_sign(q_s, q_f):
    assert np.array_equal(aligned_quat(q_s, q_f), aligned_quat(q_s, -q_f))


def test_aligned_quat_half_turn_tie_break_is_deterministic():
    # a half turn is orthogonal to the identity: both arcs are equally short,
    # so the sign choice must be fixed and input-sign independent.
    q_f = rot(Z, 180.0)
    a = aligned_quat(IDENTITY, q_f)
    b = aligned_quat(IDENTITY, -q_f)
    assert np.array_equal(a, b)
    mid_a = slerp(IDENTITY, q_f, 0.5)
    mid_b = slerp(IDENTITY, -q_f, 0.5)
    assert np.array_equal(mid_a, mid_b)


# --- Pose --------------------------------------------------------------------

def test_pose_normalizes_quaternion_and_freezes_arrays():
    p = Pose(np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(p.q, IDENTITY)
    assert not p.v.flags.writeable
    assert not p.q.flags.writeable


def test_pose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Pose(np.zeros(2), IDENTITY)
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.zeros(3))


def test_pose_translated_moves_only_translation():
    p = Pose(np.zeros(3), rot(Z, 30.0))
    moved = p.translated(np.array([5.0, 0.0, 0.0]))
    assert np.array_equal(moved.v, [5.0, 0.0, 0.0])
    assert np.array_equal(moved.q, p.q)


# --- slerp -------------------------------------------------------------------

def test_slerp_endpoints_are_exact():
    q_s = rot(X, 25.0)
    q_f = rot(Y, 110.0)
    assert np.array_equal(slerp(q_s, q_f, 0.0), q_s)
    assert rotations_equal(slerp(q_s, q_f, 1.0), q_f, tol=1e-12)


def test_slerp_halfway_between_identity_and_quarter_turn():
    mid = slerp(IDENTITY, rot(Z, 90.0), 0.5)
    assert np.allclose(mid, rot(Z, 45.0), atol=1e-12)


@given(unit_quats(), unit_quats(), st.floats(min_value=0.0, max_value=1.0))
def test_slerp_matches_axis_angle_composition(q_s, q_f, t):
    q_f = aligned_quat(q_s, q_f)
    rel = quat_mul(quat_conj(q_s), q_f)
    angle = rotation_angle(rel)
    assume(angle > 1e-3)  # axis undefined in the flat limit
    axis = rel[1:] / np.linalg.norm(rel[1:])
    expected = quat_mul(q_s, quat_from_axis_angle(axis, t * angle))
    assert rotations_equal(slerp(q_s, q_f, t), expected, tol=1e-9)


@given(unit_quats(), unit_quats(), st.floats(min_value=0.0, max_value=1.0))
def test_slerp_sign_invariance(q_s, q_f, t):
    a = slerp(q_s, q_f, t)
    b = slerp(q_s, -q_f, t)
    assert rotations_equal(a, b, tol=1e-12)


@given(unit_quats(), unit_quats(), st.floats(min_value=0.0, max_value=1.0))
def test_slerp_stays_unit_norm(q_s, q_f, t):
    assert np.linalg.norm(slerp(q_s, q_f, t)) == pytest.approx(1.0, abs=1e-12)


def test_slerp_constant_angular_velocity():
    delta = 1e-3
    pairs = [
        (IDENTITY, rot(Z, 90.0)),
        (rot(X, 10.0), rot(Y, 170.0)),
        (rot(np.array([1.0, 1.0, 0.0]) / math.sqrt(2), 33.0), rot(Z, 140.0)),
    ]
    for q_s, q_f in pairs:
        total = relative_rotation_angle(q_s, q_f)
        for t in np.linspace(0.0, 1.0 - delta, 23):
            step = relative_rotation_angle(
                slerp(q_s, q_f, float(t)), slerp(q_s, q_f, float(t) + delta)
            )
            assert step == pytest.approx(total * delta, abs=1e-8)


def test_slerp_takes_shorter_arc():
    # 350 degrees about z is 10 degrees the other way; half of it is -5.
    mid = slerp(IDENTITY, rot(Z, 350.0), 0.5)
    assert rotations_equal(mid, rot(Z, -5.0), tol=1e-12)


def test_slerp_flat_arc_falls_back_to_normalized_lerp():
    q_s = IDENTITY
    q_f = quat_from_axis_angle(Z, FLAT_ARC_ANGLE * 0.5)
    mid = slerp(q_s, q_f, 0.5)
    assert np.linalg.norm(mid) == pytest.approx(1.0, abs=1e-15)
    assert relative_rotation_angle(q_s, mid) <= FLAT_ARC_ANGLE


# --- rotation angle ----------------------------------------------------------

def test_rotation_angle_of_identity_is_exactly_zero():
    assert rotation_angle(IDENTITY) == 0.0
    assert relative_rotation_angle(rot(Y, 77.0), rot(Y, 77.0)) == 0.0


def test_rotation_angle_frozen_values():
    assert rotation_angle(rot(X, 90.0)) == pytest.approx(math.pi / 2, abs=1e-12)
    q = np.array([math.cos(0.7), math.sin(0.7), 0.0, 0.0])
    assert rotation_angle(q) == pytest.approx(1.4, abs=1e-12)


@given(unit_quats())
def test_rotation_angle_branch_is_zero_to_pi(q):
    angle = rotation_angle(q)
    assert 0.0 <= angle <= math.pi + 1e-12
    assert rotation_angle(-q) == pytest.approx(angle, abs=1e-12)


@given(unit_quats(), unit_quats())
def test_relative_rotation_angle_is_symmetric(q_a, q_b):
    ab = relative_rotation_angle(q_a, q_b)
    ba = relative_rotation_angle(q_b, q_a)
    assert ab == pytest.approx(ba, abs=1e-12)


# --- pose interpolation ------------------------------------------------------

def test_se3_interp_endpoints_bitwise():
    start = Pose(np.array([0.0, 0.0, 0.0]), rot(X, 20.0))
    final = Pose(np.array([10.0, -4.0, 2.0]), rot(Z, 150.0))
    assert se3_interp(0.0, start, final) is start
    assert se3_interp(1.0, start, final) is final
    for t in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            se3_interp(t, start, final)


def test_se3_interp_translation_is_lerp():
    start = Pose(np.array([0.0, 0.0, 0.0]), IDENTITY)
    final = Pose(np.array([10.0, 20.0, -30.0]), IDENTITY)
    p = se3_interp(0.25, start, final)
    assert np.array_equal(p.v, [2.5, 5.0, -7.5])
    assert np.array_equal(p.q, IDENTITY)


def test_se3_interp_pure_translation_keeps_rotation():
    q = rot(Y, 63.0)
    start = Pose(np.zeros(3), q)
    final = Pose(np.array([8.0, 0.0, 0.0]), q)
    for t in (0.1, 0.5, 0.9):
        p = se3_interp(t, start, final)
        assert rotations_equal(p.q, q, tol=1e-15)
        assert np.allclose(p.v, [8.0 * t, 0.0, 0.0])


# --- weighted pose metric ----------------------------------------------------

def test_se3_distance_translation_at_allowance_is_one():
    params = Se3MetricParams(p_e=10.0)
    a = Pose(np.zeros(3), IDENTITY)
    b = Pose(np.array([10.0, 0.0, 0.0]), IDENTITY)
    assert se3_distance(a, b, params) == pytest.approx(1.0, abs=1e-12)


def test_se3_distance_translation_and_rotation_stack_in_quadrature():
    params = Se3MetricParams(p_e=10.0, r_e=math.radians(30.0))
    a = Pose(np.zeros(3), IDENTITY)
    b = Pose(np.array([10.0, 0.0, 0.0]), rot(Z, 30.0))
    assert se3_distance(a, b, params) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_se3_distance_infinite_rotation_allowance_ignores_rotation():
    params = Se3MetricParams(p_e=10.0, r_e=math.inf)
    a = Pose(np.zeros(3), IDENTITY)
    b = Pose(np.zeros(3), rot(X, 90.0))
    assert se3_distance(a, b, params) == 0.0


def test_se3_distance_identical_pose_is_exactly_zero():
    params = Se3MetricParams(p_e=5.0, r_e=math.radians(15.0))
    p = Pose(np.array([3.0, 1.0, -2.0]), rot(Z, 48.0))
    assert se3_distance(p, p, params) == 0.0


def test_metric_params_validation():
    with pytest.raises(ValueError):
        Se3MetricParams(p_e=0.0)
    with pytest.raises(ValueError):
        Se3MetricParams(p_e=10.0, r_e=-1.0)
    assert math.isinf(Se3MetricParams(p_e=1.0).r_e)


@pytest.mark.parametrize(
    "p_e,r_e",
    [
        pytest.param(1e-200, math.inf, id="p_e_square_underflows"),
        pytest.param(1e155, math.inf, id="p_e_square_overflows"),
        pytest.param(-1e-200, math.inf, id="p_e_negative"),
        pytest.param(1.0, 1e-309, id="r_e_reciprocal_overflows"),
    ],
)
def test_metric_params_reject_tolerances_outside_the_float_range(p_e, r_e):
    with pytest.raises(ValueError):
        Se3MetricParams(p_e=p_e, r_e=r_e)


def test_metric_params_at_the_float_range_keep_equal_poses_at_zero():
    # the smallest tolerances still accepted: p_e^2 and 1 / r_e are finite
    # and nonzero, so two equal poses stay at distance 0, not NaN
    params = Se3MetricParams(p_e=1e-160, r_e=1e-300)
    p = Pose(np.array([3.0, 1.0, -2.0]), rot(Z, 48.0))
    assert se3_distance(p, p, params) == 0.0


def test_metric_params_p_e_bound_is_where_its_square_overflows():
    Se3MetricParams(p_e=1.3e154)  # square 1.69e308, below the float max 1.80e308
    with pytest.raises(ValueError):
        Se3MetricParams(p_e=1.4e154)  # square 1.96e308 overflows to inf
