"""Plant stepping, fault semantics, sensing and the fixed-step scenario loop."""

import dataclasses
import gc
import math
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsync import _kernels
from trajsync.controller import PathSpec, RecoveryStrategy
from trajsync.metric_core import ClampConfig
from trajsync.multi_ee import MultiMetricParams, MultiPose, per_ee_distances, stacked_interp
from trajsync.scenarios import BUILTIN_SCENARIOS, get_scenario
from trajsync.se3 import Pose, Se3MetricParams, quat_from_axis_angle, quat_normalize
from trajsync.sim import (
    ALL_LIMBS,
    Box,
    Disturbance,
    DisturbanceKind,
    LimbModel,
    PathProgram,
    Scenario,
    ScenarioValidationError,
    _CHUNK_STEPS,
    _DelayLine,
    _active_steps,
    SpeedProgram,
    _plant_constants,
    limb_step,
    run_scenario,
    validate_scenario,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
BIG_BOX = Box(np.full(3, -1e6), np.full(3, 1e6))


def pose(x, y=0.0, z=0.0):
    return Pose(np.array([x, y, z]), IDENTITY)


def stack(p, name="arm"):
    """A one-limb stacked state."""
    return MultiPose((name,), (p,))


def limb(name="arm", speed=100.0, gain=50.0, box=BIG_BOX, **kw):
    return LimbModel(
        name=name, max_ee_speed=speed, workspace=box, tracking_gain=gain, **kw
    )


def single_limb_scenario(**overrides):
    path = PathSpec((MultiPose(("arm",), (pose(0.0),)), MultiPose(("arm",), (pose(100.0),))))
    base = dict(
        name="unit",
        limbs=(limb(),),
        initial=MultiPose(("arm",), (pose(0.0),)),
        program=PathProgram(path),
        metric=MultiMetricParams.uniform(1, p_e=10.0),
        clamp=ClampConfig(enforce_monotonic_t=True),
        dt=0.02,
        horizon=2.0,
    )
    base.update(overrides)
    return Scenario(**base)


# --- Box ---------------------------------------------------------------------

def test_box_validation_and_clip():
    with pytest.raises(ValueError):
        Box(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    box = Box(np.zeros(3), np.ones(3))
    assert np.array_equal(box.clip(np.array([2.0, -1.0, 0.5])), [1.0, 0.0, 0.5])
    assert box.contains(np.array([0.5, 0.5, 0.5]))
    assert not box.contains(np.array([1.5, 0.5, 0.5]))


# --- limb_step ---------------------------------------------------------------

def stacked_step(plant, current, command):
    """``limb_step`` of two stacked states, its rows wrapped as one."""
    rows = limb_step(plant, current._v, current._q, command._v, command._q)
    return MultiPose._of_arrays(current.names, *rows)


def plant_step(limbs, current, command, active, dt):
    """``limb_step`` under the plant constants of ``limbs``, ``active`` and ``dt``."""
    return stacked_step(_plant_constants(limbs, active, dt), current, command)


def test_limb_at_its_command_stays_put():
    l = limb()
    p = pose(5.0, 1.0, -2.0)
    out = plant_step((l,), stack(p), stack(p), [], 0.02).poses[0]
    assert np.allclose(out.v, p.v)


def test_speed_cap_limits_the_step():
    # 100 mm of error, 10 mm/s limit, 0.1 s step, gain high enough to ask for
    # the whole error: exactly 1 mm of motion
    l = limb(speed=10.0, gain=1000.0)
    out = plant_step((l,), stack(pose(0.0)), stack(pose(100.0)), [], 0.1).poses[0]
    assert np.allclose(out.v, [1.0, 0.0, 0.0])


def test_low_gain_takes_a_fraction_of_the_error():
    l = limb(speed=1e6, gain=2.0)
    out = plant_step((l,), stack(pose(0.0)), stack(pose(100.0)), [], 0.1).poses[0]
    assert np.allclose(out.v, [20.0, 0.0, 0.0])


def test_workspace_clips_the_plant():
    box = Box(np.array([-10.0, -10.0, -10.0]), np.array([5.0, 10.0, 10.0]))
    l = limb(box=box, speed=1e6, gain=1e6)
    out = plant_step((l,), stack(pose(0.0)), stack(pose(100.0)), [], 0.1).poses[0]
    assert out.v[0] == 5.0


def test_blockage_holds_the_pose_exactly():
    l = limb()
    d = Disturbance(DisturbanceKind.BLOCK, "arm", start=0.0, duration=1.0)
    p = pose(3.0)
    out = plant_step((l,), stack(p), stack(pose(100.0)), [d], 0.1).poses[0]
    assert out.v.tobytes() == p.v.tobytes()
    assert out.q.tobytes() == p.q.tobytes()


def test_slowdown_scales_the_speed_cap():
    l = limb(speed=10.0, gain=1000.0)
    d = Disturbance(DisturbanceKind.SLOWDOWN, "arm", start=0.0, duration=1.0, factor=0.3)
    out = plant_step((l,), stack(pose(0.0)), stack(pose(100.0)), [d], 0.1).poses[0]
    assert np.allclose(out.v, [0.3, 0.0, 0.0])


def test_rotation_converges_with_gain_one():
    l = limb(gain=50.0)
    target = Pose(np.zeros(3), quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4))
    out = plant_step((l,), stack(Pose.identity()), stack(target), [], 0.02).poses[0]  # frac = 1
    assert np.allclose(out.q, target.q, atol=1e-12)


def test_plant_constants_reject_bad_dt():
    with pytest.raises(ValueError):
        _plant_constants((limb(),), [], 0.0)


# --- disturbance plumbing ----------------------------------------------------

def test_disturbance_activity_window_is_half_open():
    d = Disturbance(DisturbanceKind.BLOCK, "arm", start=1.0, duration=2.0)
    assert not d.active(0.99)
    assert d.active(1.0)
    assert d.active(2.99)
    assert not d.active(3.0)


def test_active_steps_are_the_steps_at_which_the_disturbance_is_active():
    # The run [on, off) of steps is what the loop applies a fault over;
    # Disturbance.active at each step's time k * dt is its definition.
    rng = np.random.default_rng(3)
    cases = [(0.1, 1.0, 0.3, 0.4), (0.1, 1.0, 0.0, 1.0), (1 / 3, 2.0, 1 / 3, 1 / 3)]
    for _ in range(2000):
        dt = float(rng.choice([0.001, 0.01, 0.1, 1 / 3, rng.uniform(1e-3, 0.5)]))
        horizon = dt * float(rng.uniform(1.0, 300.0))
        start = float(rng.uniform(0.0, horizon))
        if rng.uniform() < 0.5:  # on a step's time, as scenarios write it
            start = int(start / dt) * dt
        cases.append((dt, horizon, start, float(rng.uniform(1e-9, 1.2 * horizon - start))))
    for dt, horizon, start, duration in cases:
        n_steps = int(round(horizon / dt))
        d = Disturbance(DisturbanceKind.BLOCK, "arm", start=start, duration=duration)
        on, off = _active_steps(d, dt, n_steps)
        want = {k for k in range(n_steps) if d.active(k * dt)}
        assert set(range(on, off)) == want, (dt, horizon, start, duration)


def test_disturbance_targeting_all_limbs():
    d = Disturbance(DisturbanceKind.BLOCK, ALL_LIMBS, start=0.0, duration=1.0)
    assert d.targets("anything")


def test_kind_specific_fields_checked_at_scenario_level():
    sc = single_limb_scenario(
        disturbances=(
            Disturbance(DisturbanceKind.SLOWDOWN, "arm", start=0.0, duration=1.0),
            Disturbance(DisturbanceKind.DISPLACE, "arm", start=0.0, duration=1.0),
        )
    )
    errors = validate_scenario(sc)
    assert any("disturbances[0].factor" in e for e in errors)
    assert any("disturbances[1].offset" in e for e in errors)


# --- scenario validation -----------------------------------------------------

def test_validate_collects_field_paths():
    sc = single_limb_scenario(dt=-1.0, horizon=-2.0)
    errors = validate_scenario(sc)
    assert any(e.startswith("dt:") for e in errors)
    assert any(e.startswith("horizon:") for e in errors)


def test_validate_rejects_unknown_disturbance_target():
    sc = single_limb_scenario(
        disturbances=(Disturbance(DisturbanceKind.BLOCK, "leg", 0.0, 1.0),)
    )
    errors = validate_scenario(sc)
    assert any("disturbances[0].target" in e for e in errors)


def test_validate_rejects_disturbance_past_horizon():
    sc = single_limb_scenario(
        disturbances=(Disturbance(DisturbanceKind.BLOCK, "arm", 1.5, 1.0),)
    )
    errors = validate_scenario(sc)
    assert any("exceeds horizon" in e for e in errors)


def _brief_displace(duration):
    """nominal_square at a 4 s horizon with one displace on quad1 from
    1.001 s; at dt 0.02 a 0.005 s window holds no step, a 0.02 s one does."""
    fault = Disturbance(
        DisturbanceKind.DISPLACE, "quad1", start=1.001, duration=duration,
        offset=np.array([0.0, 0.0, -40.0]),
    )
    return dataclasses.replace(get_scenario("nominal_square"), horizon=4.0, disturbances=(fault,))


def test_validate_rejects_a_fault_window_that_holds_no_control_step():
    errors = validate_scenario(_brief_displace(0.005))
    assert [e.split(":")[0] for e in errors] == ["disturbances[0]"]
    assert "holds no control step" in errors[0]
    assert validate_scenario(_brief_displace(0.02)) == []


def test_validate_rejects_initial_pose_outside_workspace():
    box = Box(np.ones(3), np.full(3, 2.0))
    sc = single_limb_scenario(limbs=(limb(box=box),))
    errors = validate_scenario(sc)
    assert any("workspace" in e for e in errors)


def test_validate_rejects_speed_schedule_short_of_horizon():
    sc = single_limb_scenario(
        program=SpeedProgram(((1.0, np.zeros(3)),)), horizon=5.0
    )
    errors = validate_scenario(sc)
    assert any("program.schedule" in e for e in errors)


def test_run_scenario_raises_on_invalid_input():
    sc = single_limb_scenario(dt=-1.0)
    with pytest.raises(ScenarioValidationError) as exc:
        run_scenario(sc)
    assert exc.value.errors


# --- the loop ----------------------------------------------------------------

def test_run_is_deterministic():
    sc = single_limb_scenario()
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert len(a) == len(b) == 100
    for ra, rb in zip(a, b):
        assert ra.time == rb.time
        assert ra.t == rb.t
        assert ra.segment == rb.segment
        assert ra.mode == rb.mode
        assert ra.distances == rb.distances
        for pa, pb in zip(ra.sensed.poses, rb.sensed.poses):
            assert np.array_equal(pa.v, pb.v)
            assert np.array_equal(pa.q, pb.q)
        for pa, pb in zip(ra.command.poses, rb.command.poses):
            assert np.array_equal(pa.v, pb.v)
            assert np.array_equal(pa.q, pb.q)


def test_ideal_tracking_walks_the_whole_path():
    trace = run_scenario(single_limb_scenario(horizon=4.0))
    assert trace[-1].t == 1.0
    assert trace[-1].command.poses[0].v[0] == 100.0
    assert trace[-1].sensed.poses[0].v[0] == pytest.approx(100.0, abs=1e-6)


def test_sensor_period_holds_readings_between_samples():
    sc = single_limb_scenario(limbs=(limb(sensor_period=0.1),), horizon=1.0)
    trace = run_scenario(sc)
    xs = [r.sensed.poses[0].v[0] for r in trace]
    # dt=0.02, period=0.1: readings refresh every 5th step and hold between
    for k in range(0, 50, 5):
        window = xs[k : k + 5]
        assert all(x == window[0] for x in window)
    assert xs[0] != xs[5]  # but they do refresh


def test_command_latency_delays_the_plant():
    lagged = single_limb_scenario(limbs=(limb(command_latency=0.06),), horizon=1.0)
    crisp = single_limb_scenario(horizon=1.0)
    lag_trace = run_scenario(lagged)
    crisp_trace = run_scenario(crisp)
    # 3 steps of lag: the lagged plant's sensed pose tracks the crisp one
    # shifted by 3 records
    for k in range(40):
        assert lag_trace[k + 3].sensed.poses[0].v[0] == pytest.approx(
            crisp_trace[k].sensed.poses[0].v[0], abs=1e-9
        )


def test_sensor_period_off_the_step_grid_refreshes_at_the_first_step_due():
    # dt=0.02, period=0.03: due at 0.03 after the step-0 refresh, so step 2
    # (0.04) refreshes, the next is due at 0.07, so step 4, and so on
    sc = single_limb_scenario(limbs=(limb(sensor_period=0.03),), horizon=0.4)
    xs = [r.sensed.poses[0].v[0] for r in run_scenario(sc)]
    refreshed = [k for k in range(1, len(xs)) if xs[k] != xs[k - 1]]
    assert refreshed == list(range(2, len(xs), 2))


def test_command_latency_rounds_to_whole_steps():
    # dt=0.02: 0.025 s is round(1.25) = 1 step, the same lag as 0.02 s
    runs = [
        run_scenario(single_limb_scenario(limbs=(limb(command_latency=lat),), horizon=1.0))
        for lat in (0.025, 0.02)
    ]
    assert [r.sensed.poses[0].v[0] for r in runs[0]] == [r.sensed.poses[0].v[0] for r in runs[1]]


@pytest.mark.parametrize("latency", [0.005, 0.01])
def test_latency_that_rounds_to_no_step_is_rejected(latency):
    # dt=0.02: round(0.25) and round(0.5) are 0, so the run would drop the delay
    sc = single_limb_scenario(limbs=(limb(command_latency=latency),))
    errors = validate_scenario(sc)
    assert [e.split(":")[0] for e in errors] == ["limbs[0].arm.command_latency"]
    assert "rounds to 0 steps" in errors[0]
    with pytest.raises(ScenarioValidationError):
        run_scenario(sc)
    # round(0.55) is 1 step
    assert validate_scenario(single_limb_scenario(limbs=(limb(command_latency=0.011),))) == []


@settings(max_examples=60)
@given(
    lags=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    n_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_delay_line_returns_the_command_issued_lags_steps_before(lags, n_steps, seed):
    dt = 0.02
    rng = np.random.default_rng(seed)
    names = tuple(f"l{i}" for i in range(len(lags)))

    def rotating_state():
        v = rng.uniform(-100.0, 100.0, (len(lags), 3))
        q = rng.normal(size=(len(lags), 4))
        return MultiPose._of_arrays(names, v, q / np.linalg.norm(q, axis=1)[:, None])

    initial = rotating_state()
    limbs = tuple(limb(name, command_latency=lag * dt) for name, lag in zip(names, lags))
    line = _DelayLine(limbs, initial, dt)
    # the last max(lags) + 1 commands, the initial pose standing in for
    # those issued before the first
    issued = deque([initial] * (max(lags) + 1), maxlen=max(lags) + 1)
    got, want = [], []
    for _ in range(n_steps):
        command = rotating_state()
        issued.append(command)
        got.append(line.push(command))
        want.append([issued[-1 - lag] for lag in lags])
    # checked once every command is in: a delayed row must not change after
    # it was handed out
    for (v, q), sources in zip(got, want):
        assert v.tobytes() == np.array([m._v[i] for i, m in enumerate(sources)]).tobytes()
        assert q.tobytes() == np.array([m._q[i] for i, m in enumerate(sources)]).tobytes()


def test_freeze_holds_sensed_then_jumps_on_restore():
    sc = single_limb_scenario(
        disturbances=(
            Disturbance(
                DisturbanceKind.POWER_CYCLE,
                "arm",
                start=0.5,
                duration=0.5,
                offset=np.array([0.0, 0.0, -40.0]),
            ),
        ),
        horizon=2.0,
    )
    trace = run_scenario(sc)
    frozen = [r for r in trace if 0.5 <= r.time < 1.0]
    first = frozen[0].sensed.poses[0]
    for r in frozen:
        assert np.array_equal(r.sensed.poses[0].v, first.v)
    restored = next(r for r in trace if r.time >= 1.0)
    jump = restored.sensed.poses[0].v - frozen[-1].sensed.poses[0].v
    assert jump[2] == -40.0


def test_a_restore_renormalises_the_quaternion_as_pose_does():
    # One more normalisation moves this unit quaternion by an ulp. The block
    # pins the limb at its initial pose, taken as it is, until the displace
    # restores it, so the restored pose must be Pose(clip(v + offset), q)
    # bit for bit.
    q = Pose(np.zeros(3), quat_from_axis_angle(np.array([1.0, 1.0, 1.0]), 0.9)).q
    assert quat_normalize(q).tobytes() != q.tobytes()
    box = Box(np.full(3, -50.0), np.full(3, 50.0))
    v = np.array([10.0, 0.0, 0.0])
    end = Pose(np.array([40.0, 0.0, 0.0]), quat_from_axis_angle(Z_AXIS, 0.4))
    offset = np.array([0.0, 70.0, -3.0])
    sc = single_limb_scenario(
        limbs=(limb(box=box),),
        initial=MultiPose._of_arrays(("arm",), v[None], q[None]),
        program=PathProgram(PathSpec((stack(Pose(v, q)), stack(end)))),
        metric=MultiMetricParams.uniform(1, p_e=10.0, r_e=0.5),
        disturbances=(
            Disturbance(DisturbanceKind.BLOCK, "arm", start=0.0, duration=0.5),
            Disturbance(DisturbanceKind.DISPLACE, "arm", start=0.0, duration=0.5, offset=offset),
        ),
    )
    restored = next(r for r in run_scenario(sc) if r.time >= 0.5).sensed.poses[0]
    want = Pose(box.clip(v + offset), q)
    assert restored.v.tobytes() == want.v.tobytes()
    assert restored.q.tobytes() == want.q.tobytes()


def test_displace_offsets_the_plant_at_window_end():
    sc = single_limb_scenario(
        disturbances=(
            Disturbance(
                DisturbanceKind.DISPLACE,
                "arm",
                start=0.5,
                duration=0.2,
                offset=np.array([0.0, 25.0, 0.0]),
            ),
        ),
        horizon=2.0,
    )
    trace = run_scenario(sc)
    before = next(r for r in trace if abs(r.time - 0.68) < 1e-9)
    after = next(r for r in trace if abs(r.time - 0.7) < 1e-9)
    # the plant keeps moving during the window; the offset lands at its end
    assert after.sensed.poses[0].v[1] - before.sensed.poses[0].v[1] == pytest.approx(
        25.0, abs=1e-9
    )


def test_blocked_limb_gates_the_others_under_max_norm():
    names = ("a", "b")
    start = MultiPose(names, (pose(0.0), pose(0.0, 50.0)))
    end = MultiPose(names, (pose(100.0), pose(100.0, 50.0)))
    sc = Scenario(
        name="coupled",
        limbs=(limb(name="a"), limb(name="b")),
        initial=start,
        program=PathProgram(PathSpec((start, end))),
        metric=MultiMetricParams.uniform(2, p_e=10.0),
        clamp=ClampConfig(enforce_monotonic_t=True),
        disturbances=(Disturbance(DisturbanceKind.BLOCK, "a", 0.3, 1.0),),
        dt=0.02,
        horizon=2.0,
    )
    trace = run_scenario(sc)
    during = [r for r in trace if 0.4 <= r.time < 1.3]
    # limb a is pinned, so limb b's command may never run ahead of a's ball
    for r in during:
        assert r.command.poses[1].v[0] - r.sensed.poses[0].v[0] <= 10.0 + 1e-9
    # progress stalls: t is pinned at the boundary sample while blocked
    ts = {r.t for r in during}
    assert len(ts) <= 2
    # and resumes afterwards
    assert trace[-1].t > max(r.t for r in during)


def test_safety_holds_through_every_step_of_a_fault_run():
    sc = single_limb_scenario(
        disturbances=(
            Disturbance(
                DisturbanceKind.POWER_CYCLE, "arm", 0.4, 0.3,
                offset=np.array([0.0, -30.0, 0.0]),
            ),
            Disturbance(DisturbanceKind.BLOCK, "arm", 1.2, 0.3),
        ),
        horizon=3.0,
    )
    trace = run_scenario(sc)
    assert max(max(r.distances) for r in trace) <= 1.0 + 1e-9
    assert any(r.mode == "recovering" for r in trace)
    assert trace[-1].mode == "tracking"


def rotating_scenario(r_e):
    """Three limbs that turn about different axes as they move, under the
    2-norm, with per-limb ``r_e``, a slow sensor, latency, a freeze and a
    displacement: 300 steps, not a multiple of the trace chunk."""
    names = ("a", "b", "c")
    axes = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))

    def waypoint(angle, x):
        return MultiPose(names, tuple(
            Pose(np.array([x, 10.0 * i, 0.0]), quat_from_axis_angle(axis, angle * (i + 1)))
            for i, axis in enumerate(axes)
        ))

    path = PathSpec((waypoint(0.0, 0.0), waypoint(0.5, 40.0), waypoint(-0.2, 80.0)))
    return Scenario(
        name="rotating",
        limbs=(
            limb("a"),
            limb("b", speed=20.0, sensor_period=0.06),
            limb("c", gain=5.0, command_latency=0.04),
        ),
        initial=waypoint(0.0, 0.0),
        program=PathProgram(path),
        metric=MultiMetricParams(tuple(Se3MetricParams(10.0, r) for r in r_e), norm_order=2.0),
        clamp=ClampConfig(enforce_monotonic_t=True),
        disturbances=(
            Disturbance(DisturbanceKind.FREEZE, "b", start=1.0, duration=0.5),
            Disturbance(
                DisturbanceKind.DISPLACE, "c", start=2.0, duration=0.3,
                offset=np.array([5.0, 0.0, 0.0]),
            ),
        ),
        dt=0.02,
        horizon=6.0,
    )


ROTATING = {"rotating_some": (0.3, math.inf, 0.2), "rotating_all": (0.3, 0.5, 0.2)}


def bits(values):
    return np.array(values).view(np.int64).tolist()


@pytest.mark.parametrize("which", [*BUILTIN_SCENARIOS, *ROTATING])
def test_recorded_distances_equal_per_ee_distances(which):
    # run_scenario computes the distances a chunk of steps at a time
    if which in ROTATING:
        sc = rotating_scenario(ROTATING[which])
    else:
        sc = get_scenario(which)
    trace = run_scenario(sc)
    if which in ROTATING:
        assert len(trace) % _CHUNK_STEPS != 0
        assert any(
            not np.array_equal(r.command.quaternions(), r.sensed.quaternions()) for r in trace
        )
    for r in trace:
        want = per_ee_distances(r.command, r.sensed, sc.metric)
        assert bits(r.distances) == bits(want)


def test_speed_program_piecewise_schedule():
    prog = SpeedProgram(((1.0, np.array([0.0, 0.0, 30.0])), (2.0, np.array([0.0, 0.0, -30.0]))))
    assert prog.velocity_at(0.0)[2] == 30.0
    assert prog.velocity_at(0.99)[2] == 30.0
    assert prog.velocity_at(1.0)[2] == -30.0
    with pytest.raises(ValueError):
        SpeedProgram(((1.0, np.array([0.0, 0.0, 1.0])), (0.5, np.zeros(3))))


def test_plant_constants_follow_the_active_set():
    # run_scenario builds one set of constants per fault interval; each
    # interval's step must match constants built afresh right before it,
    # though the constants of every interval exist side by side.
    limbs = (limb("a", speed=40.0), limb("b", speed=40.0, gain=10.0))
    current = MultiPose(("a", "b"), (pose(0.0), pose(0.0, 5.0)))
    turned = Pose(np.array([10.0, 5.0, 0.0]), quat_from_axis_angle(Z_AXIS, 0.3))
    command = MultiPose(("a", "b"), (pose(30.0), turned))
    block = Disturbance(DisturbanceKind.BLOCK, "a", 0.0, 1.0)
    slow = Disturbance(DisturbanceKind.SLOWDOWN, ALL_LIMBS, 0.0, 1.0, factor=0.25)
    freeze = Disturbance(DisturbanceKind.FREEZE, ALL_LIMBS, 0.0, 1.0)
    intervals = ((), (block,), (slow,), (freeze,), ())
    plants = [_plant_constants(limbs, active, 0.02) for active in intervals]
    results = []
    for plant, active in zip(plants, intervals):
        got = stacked_step(plant, current, command)
        fresh = plant_step(tuple([*limbs]), current, command, list(active), 0.02)
        assert got.translations().tobytes() == fresh.translations().tobytes()
        assert got.quaternions().tobytes() == fresh.quaternions().tobytes()
        results.append(got.translations().tobytes())
    # the block holds limb a, the slowdown shortens both steps, the freeze
    # holds every limb exactly
    assert len(set(results)) == 4 and results[0] == results[4]
    held = stacked_step(plants[3], current, command)
    assert held.translations().tobytes() == current.translations().tobytes()
    assert held.quaternions().tobytes() == current.quaternions().tobytes()


def test_validate_bounds_coordinates_and_the_norm_order():
    def errors(bound, k, **overrides):
        far = np.array([0.0, -bound, 0.0])
        fields = dict(
            limbs=(limb(box=Box(np.full(3, -bound), np.full(3, bound))),),
            program=PathProgram(PathSpec((stack(pose(0.0)), stack(Pose(far, IDENTITY))))),
            metric=MultiMetricParams.uniform(1, p_e=10.0, norm_order=k),
            disturbances=(Disturbance(DisturbanceKind.DISPLACE, "arm", 0.0, 0.5, offset=far),),
        )
        sc = single_limb_scenario(**{**fields, **overrides})
        return [e.split(":")[0] for e in validate_scenario(sc)]

    assert errors(1e150, 51.0) == []
    assert errors(1e150, math.inf) == []
    assert errors(1.0000000000000002e150, 52.0) == [
        "limbs[0].arm.workspace.lower",
        "limbs[0].arm.workspace.upper",
        "metric.norm_order",
        "program.waypoints[1][0].v",
        "disturbances[0].offset",
    ]
    out_of_bound = stack(pose(1.1e150))
    assert "initial[0].v" in errors(1e151, 2.0, initial=out_of_bound)
    # a speed program's velocity times the horizon is where it can carry the command
    for speed, want in ((0.5e150, []), (0.6e150, ["program.schedule[0].velocity x horizon"])):
        program = SpeedProgram(((2.0, np.array([0.0, 0.0, speed])),))
        assert errors(1e150, 2.0, program=program) == want


def test_trace_record_is_frozen_slotted_and_pickles():
    record = run_scenario(single_limb_scenario(horizon=0.1))[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.t = 0.5
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert (copy.time, copy.distances, copy.t, copy.segment, copy.mode) == (
        record.time, record.distances, record.t, record.segment, record.mode
    )
    for got, want in ((copy.sensed, record.sensed), (copy.command, record.command)):
        assert got.names == want.names
        assert got.translations().tobytes() == want.translations().tobytes()
        assert got.quaternions().tobytes() == want.quaternions().tobytes()


def test_nearest_sample_trace_names_the_interpolant_of_every_command():
    # Under NEAREST_SAMPLE a miss emits the nearest sample and stays in
    # tracking, so every row's (segment, t) must give back its command. Under
    # the default strategy the tracking rows do too, and a recovering row
    # repeats the (segment, t) of the row before it.
    base = get_scenario("robustness_mix")
    for strategy, modes in (
        (RecoveryStrategy.NEAREST_SAMPLE, {"tracking"}),
        (base.program.strategy, {"tracking", "recovering"}),
    ):
        program = dataclasses.replace(base.program, strategy=strategy)
        trace = run_scenario(dataclasses.replace(base, program=program))
        assert {record.mode for record in trace} == modes
        for before, record in zip([None, *trace], trace):
            if record.mode == "recovering":
                assert (record.t, record.segment) == (before.t, before.segment)
                continue
            point = stacked_interp(record.t, *program.path.segment(record.segment))
            assert point.translations().tobytes() == record.command.translations().tobytes()
            assert point.quaternions().tobytes() == record.command.quaternions().tobytes()


# Grid-kernel calls of one run of each builtin: a rotation-free infinity-norm
# clamp locates its hit without the kernel, so the six-limb runs call it only
# on misses and on the rare proposal the closed form cannot certify.
KERNEL_CALLS = {"nominal_square": 0, "power_loss": 2, "robustness_mix": 32, "out_of_range": 440}


@pytest.mark.parametrize("which", sorted(KERNEL_CALLS))
def test_builtin_runs_call_the_grid_kernel_no_more_than_they_need(which, monkeypatch):
    calls = []
    grid = _kernels.grid_distances
    monkeypatch.setattr(_kernels, "grid_distances", lambda *a: calls.append(1) or grid(*a))
    run_scenario(get_scenario(which))
    assert len(calls) <= KERNEL_CALLS[which]


# MultiPose._of_arrays calls in one run of each builtin, scenario built: the
# plant and the delay line step on bare rows, and the loop wraps the plant's
# rows only where they become the sensed state.
WRAPS = {"nominal_square": 3385, "out_of_range": 880, "power_loss": 3352, "robustness_mix": 11953}


@pytest.mark.parametrize("which", sorted(WRAPS))
def test_builtin_runs_wrap_no_more_stacked_states_than_they_need(which, monkeypatch):
    scenario = get_scenario(which)
    calls = []
    wrap = MultiPose._of_arrays
    monkeypatch.setattr(
        MultiPose, "_of_arrays", staticmethod(lambda *a: calls.append(1) or wrap(*a))
    )
    run_scenario(scenario)
    assert len(calls) <= WRAPS[which]


def test_a_run_keeps_no_object_per_step():
    # The trace holds its steps as column blocks: a few objects per chunk of
    # steps, none per step, for the garbage collector to walk.
    scenario = get_scenario("robustness_mix")
    gc.collect()
    before = len(gc.get_objects())
    trace = run_scenario(scenario)
    gc.collect()
    added = len(gc.get_objects()) - before
    chunks = -(-len(trace) // _CHUNK_STEPS)
    assert added <= 10 * chunks, (added, chunks)
