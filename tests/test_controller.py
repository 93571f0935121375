"""Waypoint tracking, speed integration, the monotonic-t guard and the
three clamp-miss recovery strategies."""

import dataclasses
import math

import numpy as np
import pytest

import trajsync.controller as controller
from trajsync.controller import (
    ControllerState,
    Mode,
    PathSpec,
    RecoveryStrategy,
    SpeedInput,
    handle_no_solution,
    step_speed,
    step_tracking,
)
from trajsync.metric_core import ClampConfig, NoSolution, Solution, grid_parameters, sample_count
from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    StackedSegment,
    clamp_stacked,
    stacked_distance,
    stacked_interp,
)
from trajsync.se3 import Pose, Se3MetricParams, quat_from_axis_angle

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def mp(*xyz_per_limb):
    names = tuple(f"l{i}" for i in range(len(xyz_per_limb)))
    poses = tuple(Pose(np.array(v, dtype=float), IDENTITY) for v in xyz_per_limb)
    return MultiPose(names, poses)


def one(x, y=0.0, z=0.0):
    return mp((x, y, z))


METRIC1 = MultiMetricParams.uniform(1, p_e=10.0)
CFG = ClampConfig(enforce_monotonic_t=True)
CFG_FREE = ClampConfig(enforce_monotonic_t=False)


def line_path(*xs, loop=False):
    return PathSpec(tuple(one(x) for x in xs), loop=loop)


# --- PathSpec ----------------------------------------------------------------

def test_path_needs_two_waypoints():
    with pytest.raises(ValueError):
        PathSpec((one(0.0),))


def test_path_rejects_name_mismatch():
    a = MultiPose(("x",), (Pose(np.zeros(3), IDENTITY),))
    b = MultiPose(("y",), (Pose(np.ones(3), IDENTITY),))
    with pytest.raises(ValueError):
        PathSpec((a, b))


def test_zero_length_segments_are_skipped():
    path = PathSpec((one(0.0), one(0.0), one(10.0)))
    assert path.segment_count() == 1
    start, final = path.segment(0)
    assert start.poses[0].v[0] == 0.0
    assert final.poses[0].v[0] == 10.0


def test_degenerate_path_rejected():
    with pytest.raises(ValueError):
        PathSpec((one(3.0), one(3.0)))


def test_loop_wraps_and_adds_closing_segment():
    path = line_path(0.0, 10.0, 20.0, loop=True)
    assert path.segment_count() == 3  # two forward plus the closing one
    s, f = path.segment(2)
    assert f.poses[0].v[0] == 0.0
    # absolute indices wrap modulo the count
    s0, f0 = path.segment(0)
    s3, f3 = path.segment(3)
    assert np.array_equal(s0.poses[0].v, s3.poses[0].v)


def test_non_loop_clamps_to_last_segment():
    path = line_path(0.0, 10.0, 20.0)
    s, f = path.segment(99)
    assert s.poses[0].v[0] == 10.0
    assert f.poses[0].v[0] == 20.0
    assert path.is_last_segment(1)
    assert not path.is_last_segment(0)


# --- tracking ----------------------------------------------------------------

def test_short_segment_completes_in_one_step():
    # whole segment inside the ball: command goes straight to the end and the
    # segment index advances
    path = line_path(0.0, 5.0, 100.0)
    state = ControllerState.initial(one(0.0))
    state, command = step_tracking(state, one(0.0), path, METRIC1, CFG)
    assert command.poses[0].v[0] == 5.0
    assert state.segment_index == 1
    assert state.mode is Mode.TRACKING


def test_command_leads_by_at_most_the_ball_radius():
    path = line_path(0.0, 200.0)
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    for _ in range(40):
        state, command = step_tracking(state, sensed, path, METRIC1, CFG)
        assert stacked_distance(command, sensed, METRIC1) <= 1.0
        assert abs(command.poses[0].v[0] - sensed.poses[0].v[0]) <= 10.0
        sensed = command  # ideal plant
    assert state.segment_t == 1.0  # finished


def test_progress_reaches_every_segment_end_with_ideal_plant():
    path = line_path(0.0, 30.0, 30.0 + 25.0, loop=True)
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    seen = set()
    for _ in range(200):
        state, command = step_tracking(state, sensed, path, METRIC1, CFG)
        seen.add(state.segment_index)
        sensed = command
    # two laps: every segment of the loop was completed repeatedly
    assert max(seen) >= 6


def test_terminal_segment_holds_at_final_waypoint():
    path = line_path(0.0, 5.0)
    state = ControllerState.initial(one(0.0))
    for _ in range(3):
        state, command = step_tracking(state, one(4.0), path, METRIC1, CFG)
        assert command.poses[0].v[0] == 5.0
        assert state.segment_index == 0
        assert state.segment_t == 1.0


def test_reported_command_segment_lags_on_advance():
    path = line_path(0.0, 5.0, 100.0)
    state = ControllerState.initial(one(0.0))
    state, _ = step_tracking(state, one(0.0), path, METRIC1, CFG)
    # the command that completed segment 0 still belongs to segment 0
    assert state.segment_index == 1
    assert state.command_segment == 0
    assert state.segment_t == 1.0


def test_last_command_matches_returned_command():
    path = line_path(0.0, 80.0)
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    for i in range(10):
        state, command = step_tracking(state, sensed, path, METRIC1, CFG)
        assert state.last_command is command
        sensed = one(command.poses[0].v[0] * 0.9)


def test_dimension_mismatch_rejected():
    path = line_path(0.0, 10.0)
    state = ControllerState.initial(mp((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        step_tracking(state, mp((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), path, METRIC1, CFG)
    with pytest.raises(ValueError, match="do not match the controller's"):
        step_speed(state, one(0.0), SpeedInput(np.zeros(3)), 0.1, METRIC1, CFG)


# --- monotonic t guard -------------------------------------------------------

def advance_to(path, x_target):
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    while sensed.poses[0].v[0] < x_target:
        state, command = step_tracking(state, sensed, path, METRIC1, CFG)
        sensed = command
    return state, sensed


def test_small_backslide_keeps_t_with_or_without_the_guard():
    # The sensed state sits on the last command, so after a 5 mm backslide
    # the clamp's hit still lies at or above the floor: the guard leaves it
    # as it is, and only a hit below the floor would differ.
    path = line_path(0.0, 100.0)
    start, sensed = advance_to(path, 50.0)
    t_before = start.segment_t
    back = one(sensed.poses[0].v[0] - 5.0)
    state, command = step_tracking(start, back, path, METRIC1, CFG)
    assert state.segment_t >= t_before
    assert stacked_distance(command, back, METRIC1) <= 1.0
    free, _ = step_tracking(start, back, path, METRIC1, CFG_FREE)
    assert free.segment_t == state.segment_t


def test_backslide_beyond_the_lead_lowers_t_when_guard_off():
    # moving back more than the ball radius puts the previous command out of
    # reach; without the guard the clamp simply follows the state backward
    path = line_path(0.0, 100.0)
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    for _ in range(5):
        state, command = step_tracking(state, sensed, path, METRIC1, CFG_FREE)
        sensed = command
    t_before = state.segment_t
    back = one(sensed.poses[0].v[0] - 15.0)
    state, _ = step_tracking(state, back, path, METRIC1, CFG_FREE)
    assert state.mode is Mode.TRACKING
    assert state.segment_t < t_before


def test_large_backslide_triggers_recovery_not_a_floored_command():
    # the sensed state jumps far back along the path: flooring t would emit a
    # command outside the ball, so the guard must fall into recovery instead
    path = line_path(0.0, 100.0)
    state, sensed = advance_to(path, 60.0)
    back = one(5.0)  # reachable through the path, far from the floored point
    state, command = step_tracking(state, back, path, METRIC1, CFG)
    assert state.mode is Mode.RECOVERING
    assert stacked_distance(command, back, METRIC1) <= 1.0


def test_floor_resets_at_segment_advance():
    path = line_path(0.0, 30.0, 60.0)
    state, sensed = advance_to(path, 35.0)
    assert state.segment_index == 1
    assert state.t_floor < 1.0  # reset, then re-raised on the new segment


def test_hit_below_the_floor_moves_up_to_a_floor_inside_the_ball():
    # 34 samples on 0 -> 100 mm. For a state at 50 mm the clamp hits at
    # ts[14] = 1 - 14/33 = 0.5758, below the floor 0.59, which lies between
    # that sample and ts[13] = 0.6061 and within the ball: the floor's point
    # is emitted as a tracking hit.
    cfg = ClampConfig(step_distance=0.3, enforce_monotonic_t=True)
    path = line_path(0.0, 100.0)
    start, final = path.segment(0)
    assert sample_count(start, final, METRIC1.distance, cfg) == 34
    sensed = one(50.0)
    raw = clamp_stacked(sensed, start, final, METRIC1, 34)
    assert isinstance(raw, Solution) and raw.t == grid_parameters(34)[14]
    state = dataclasses.replace(ControllerState.initial(one(0.0)), t_floor=0.59)
    state, command = step_tracking(state, sensed, path, METRIC1, cfg)
    assert state.mode is Mode.TRACKING and state.misses == 0
    assert state.t_floor == state.segment_t == 0.59
    floor_point = stacked_interp(0.59, start, final)
    assert command.translations().tobytes() == floor_point.translations().tobytes()
    assert command.quaternions().tobytes() == floor_point.quaternions().tobytes()
    assert stacked_distance(command, sensed, METRIC1) <= 1.0


# --- recovery strategies -----------------------------------------------------

def displace_mid_path():
    path = line_path(0.0, 100.0)
    state, sensed = advance_to(path, 50.0)
    displaced = one(sensed.poses[0].v[0], 60.0)  # 60 mm off-path sideways
    return path, state, sensed, displaced


def test_displacement_enters_recovery_and_heads_back():
    path, state, sensed, displaced = displace_mid_path()
    last_valid = state.last_valid_point
    state, command = step_tracking(state, displaced, path, METRIC1, CFG)
    assert state.mode is Mode.RECOVERING
    assert stacked_distance(command, displaced, METRIC1) <= 1.0
    gap_before = np.linalg.norm(displaced.poses[0].v - last_valid.poses[0].v)
    gap_after = np.linalg.norm(command.poses[0].v - last_valid.poses[0].v)
    assert gap_after < gap_before


def test_recovery_retraces_then_resumes_tracking():
    path, state, sensed, displaced = displace_mid_path()
    resume_floor_target = state.t_floor
    pos = displaced
    for _ in range(30):
        state, command = step_tracking(state, pos, path, METRIC1, CFG)
        assert stacked_distance(command, pos, METRIC1) <= 1.0
        pos = command
        if state.mode is Mode.TRACKING:
            break
    assert state.mode is Mode.TRACKING
    assert state.t_floor == resume_floor_target
    # tracking continues forward afterwards
    state, command = step_tracking(state, pos, path, METRIC1, CFG)
    assert state.segment_t >= resume_floor_target


def test_recovery_replans_when_displaced_again():
    path, state, sensed, displaced = displace_mid_path()
    state, command = step_tracking(state, displaced, path, METRIC1, CFG)
    assert state.mode is Mode.RECOVERING
    # a second, different displacement mid-recovery
    again = one(20.0, -40.0)
    state, command = step_tracking(state, again, path, METRIC1, CFG)
    assert stacked_distance(command, again, METRIC1) <= 1.0
    assert state.mode is Mode.RECOVERING
    assert state.misses == 2  # the entry and the replan


def test_nearest_sample_strategy_passes_the_sample_through():
    path = line_path(50.0, 100.0)
    state = ControllerState.initial(one(50.0))
    far = one(0.0)  # nearest trajectory sample is the segment start
    state, command = step_tracking(
        state, far, path, METRIC1, CFG, strategy=RecoveryStrategy.NEAREST_SAMPLE
    )
    assert command.poses[0].v[0] == 50.0
    assert state.mode is Mode.TRACKING


def test_restart_strategy_retargets_the_segment_end():
    path = line_path(0.0, 100.0)
    state, sensed = advance_to(path, 50.0)
    displaced = one(95.0, 30.0)  # off-path but close to the segment end
    state, command = step_tracking(
        state, displaced, path, METRIC1, CFG, strategy=RecoveryStrategy.RESTART_TO_F
    )
    assert state.mode is Mode.TRACKING
    assert stacked_distance(command, displaced, METRIC1) <= 1.0
    # the replacement segment runs from the displaced state to the original end
    assert state.detour is not None
    for _ in range(10):
        state, command = step_tracking(state, command, path, METRIC1, CFG)
    assert command.poses[0].v[0] == pytest.approx(100.0)
    assert abs(command.poses[0].v[1]) < 1e-9


def test_near_the_end_within_the_ball_tracks_without_a_restart():
    # A sensed point within one radius of the segment end is within one
    # radius of the segment, so the clamp hits and RESTART_TO_F never runs.
    path = line_path(0.0, 100.0)
    state, sensed = advance_to(path, 50.0)
    near_end = one(95.0, 3.0)
    state, command = step_tracking(
        state, near_end, path, METRIC1, CFG, strategy=RecoveryStrategy.RESTART_TO_F
    )
    assert command.poses[0].v[0] == 100.0
    assert state.segment_t == 1.0
    assert state.detour is None
    assert state.segment_index == 0


def test_floored_miss_under_nearest_sample_emits_the_floor_point():
    # The clamp hits below the floor and the floored sample is outside the
    # ball: a miss at the floor, whose point NEAREST_SAMPLE passes through.
    path = line_path(0.0, 100.0)
    state, _ = advance_to(path, 60.0)
    back = one(5.0)
    start, final = path.segment(0)
    raw = clamp_stacked(back, start, final, METRIC1, 101)
    assert isinstance(raw, Solution) and raw.t < state.t_floor
    floor_point = stacked_interp(state.t_floor, start, final)
    assert stacked_distance(floor_point, back, METRIC1) > 1.0
    _, command = step_tracking(
        state, back, path, METRIC1, CFG, strategy=RecoveryStrategy.NEAREST_SAMPLE
    )
    assert command.translations().tobytes() == floor_point.translations().tobytes()
    assert command.quaternions().tobytes() == floor_point.quaternions().tobytes()


def test_nearest_sample_reports_the_segment_and_t_of_its_command():
    # The step before completed segment 0, so the state still reports t = 1
    # on segment 0; the miss on segment 1 must report where its sample lies.
    path = line_path(0.0, 5.0, 100.0)
    state = ControllerState.initial(one(0.0))
    state, _ = step_tracking(state, one(0.0), path, METRIC1, CFG)
    assert (state.segment_index, state.command_segment, state.segment_t) == (1, 0, 1.0)
    state, command = step_tracking(
        state, one(50.0, 30.0), path, METRIC1, CFG, strategy=RecoveryStrategy.NEAREST_SAMPLE
    )
    assert state.command_segment == 1 and 0.0 < state.segment_t < 1.0
    point = stacked_interp(state.segment_t, *path.segment(state.command_segment))
    assert point.translations().tobytes() == command.translations().tobytes()


def test_restart_reaching_the_end_of_the_last_segment_advances():
    # An override segment is left at t = 1 even on the last segment of a
    # non-looping path, where a plain tracking hit holds its segment.
    path = line_path(0.0, 100.0)
    state, sensed = advance_to(path, 50.0)
    assert state.segment_index == 0 and path.is_last_segment(0)
    missed = NoSolution(sensed, state.t_floor, 5.0)
    state, command = handle_no_solution(
        state, one(97.0, 3.0), RecoveryStrategy.RESTART_TO_F, METRIC1, CFG,
        outcome=missed, path=path,
    )
    assert command.poses[0].v[0] == 100.0
    assert state.segment_t == 1.0
    assert state.segment_index == 1
    assert state.detour is None
    assert state.t_floor == 0.0
    assert state.command_segment == 0


def test_floored_miss_during_recovery_replans_from_the_sensed_state(monkeypatch):
    path, state, _, displaced = displace_mid_path()
    pos = displaced
    for _ in range(3):
        state, pos = step_tracking(state, pos, path, METRIC1, CFG)
    assert state.mode is Mode.RECOVERING and state.t_floor > 0.3
    rec_start, rec_final = state.detour
    calls = []
    clamp = StackedSegment.clamp

    def spy(segment, sensed, t_min=0.0):
        out = clamp(segment, sensed, t_min)
        calls.append((segment.start, out))
        return out

    monkeypatch.setattr(StackedSegment, "clamp", spy)
    # near the recovery start: the clamp hits there, far below the floor
    sensed = one(displaced.poses[0].v[0] + 1.0, 58.0)
    new, command = step_tracking(state, sensed, path, METRIC1, CFG)
    (first_start, first), (replan_start, replan) = calls
    assert first_start is rec_start
    assert isinstance(first, Solution) and first.t < state.t_floor
    assert replan_start is sensed
    assert new.mode is Mode.RECOVERING
    assert new.detour[0] is sensed and new.detour[1] is rec_final
    # the replanned clamp ran unfloored: its t stands even below the old floor
    assert new.t_floor == replan.t < state.t_floor
    assert stacked_distance(command, sensed, METRIC1) <= 1.0


def test_recovery_from_a_restart_detour_resumes_the_detour_at_its_floor():
    # RESTART_TO_F swaps the segment for snapshot -> F; a second shove under
    # RETURN_TO_LAST_VALID retraces to the last detour command, and tracking
    # then continues on that detour, floored where it was interrupted.
    restart, retrace = RecoveryStrategy.RESTART_TO_F, RecoveryStrategy.RETURN_TO_LAST_VALID
    path = line_path(0.0, 100.0)
    state, _ = advance_to(path, 50.0)
    snapshot, final = one(50.0, 30.0), one(100.0)
    state, pos = step_tracking(state, snapshot, path, METRIC1, CFG, strategy=restart)
    assert pos.translations().tobytes() == cold_outcome(snapshot, snapshot, final, METRIC1, CFG).point.translations().tobytes()
    for _ in range(2):
        before = pos
        state, pos = step_tracking(state, pos, path, METRIC1, CFG, strategy=restart)
    interrupted = cold_outcome(before, snapshot, final, METRIC1, CFG)
    assert pos.translations().tobytes() == interrupted.point.translations().tobytes()
    floor = interrupted.t
    assert 0.3 < floor < 1.0

    shoved = one(pos.poses[0].v[0], pos.poses[0].v[1] - 40.0)
    state, command = step_tracking(state, shoved, path, METRIC1, CFG, strategy=retrace)
    retraced = [command]
    while state.mode is not Mode.TRACKING and len(retraced) < 30:
        state, command = step_tracking(state, command, path, METRIC1, CFG, strategy=retrace)
        retraced.append(command)
    assert len(retraced) > 1
    assert retraced[-1].translations().tobytes() == pos.translations().tobytes()

    # the floor is back: a state sensed behind it on the detour does not pull
    # t back below it
    behind = stacked_interp(floor - 0.3, snapshot, final)
    unfloored = cold_outcome(behind, snapshot, final, METRIC1, CFG)
    assert unfloored.t < floor
    _, command = step_tracking(state, behind, path, METRIC1, CFG, strategy=retrace)
    assert command.translations().tobytes() != unfloored.point.translations().tobytes()
    assert stacked_distance(command, behind, METRIC1) <= 1.0
    # resumed on the detour, ahead of the floor
    state, resumed = step_tracking(state, pos, path, METRIC1, CFG, strategy=retrace)
    ahead = cold_outcome(pos, snapshot, final, METRIC1, CFG)
    assert resumed.translations().tobytes() == ahead.point.translations().tobytes()
    assert ahead.t > floor
    # the detour leads on to F
    for _ in range(10):
        state, resumed = step_tracking(state, resumed, path, METRIC1, CFG, strategy=retrace)
    assert resumed.translations().tobytes() == final.translations().tobytes()


def test_handle_no_solution_requires_known_strategy():
    path = line_path(0.0, 100.0)
    state = ControllerState.initial(one(0.0))
    blocked = NoSolution(one(0.0), 0.0, 5.0)
    with pytest.raises(ValueError):
        handle_no_solution(
            state, one(50.0), "bogus", METRIC1, CFG, outcome=blocked, path=path
        )


# --- speed mode --------------------------------------------------------------

def test_speed_step_advances_exactly_velocity_times_dt():
    state = ControllerState.initial(one(0.0))
    speed = SpeedInput(np.array([0.0, 0.0, 30.0]))
    state, command = step_speed(state, one(0.0), speed, 0.1, METRIC1, CFG)
    assert np.allclose(command.poses[0].v, [0.0, 0.0, 3.0])
    assert state.mode is Mode.TRACKING


def test_zero_speed_holds_the_command_for_any_sensed_state():
    start = one(4.0)
    speed = SpeedInput(np.zeros(3))
    for sensed in (one(4.0), one(9.0), one(400.0)):
        state = ControllerState.initial(start)
        state, command = step_speed(state, sensed, speed, 0.1, METRIC1, CFG)
        assert np.array_equal(command.poses[0].v, start.poses[0].v)


def test_stuck_state_makes_speed_mode_wait_and_hold():
    state = ControllerState.initial(one(0.0))
    speed = SpeedInput(np.array([30.0, 0.0, 0.0]))
    sensed = one(0.0)
    # integrate commands forward while the plant never moves
    for _ in range(10):
        state, command = step_speed(state, sensed, speed, 0.1, METRIC1, CFG)
    # command is pinned within one grid step of the ball boundary
    grid_step = 3.0 / 29.0  # micro-segment length over its sample count
    assert 10.0 - grid_step <= command.poses[0].v[0] <= 10.0
    assert state.mode is Mode.TRACKING
    pinned = command.poses[0].v[0]
    state, command = step_speed(state, sensed, speed, 0.1, METRIC1, CFG)
    assert command.poses[0].v[0] == pinned  # plateau is a fixed point
    held = command
    # push the last command outside the reachable ball: it must hold and wait
    far = one(-50.0)
    state, command = step_speed(state, far, speed, 0.1, METRIC1, CFG)
    assert state.mode is Mode.WAITING
    assert command is held
    assert state.misses == 1
    # once the state is feasible again, motion resumes
    state, command = step_speed(state, one(9.0), speed, 0.1, METRIC1, CFG)
    assert state.mode is Mode.TRACKING


def _clamp_always_misses(monkeypatch):
    def miss(segment, state, t_min=0.0):
        return NoSolution(segment.start, 0.0, math.inf)

    monkeypatch.setattr(StackedSegment, "clamp", miss)


def test_restart_strategy_raises_if_the_restart_clamp_misses(monkeypatch):
    # A segment from the sensed state has its t = 0 sample at distance 0; a
    # miss there is a broken invariant, reported even under python -O.
    path = line_path(0.0, 100.0)
    state, _ = advance_to(path, 50.0)
    _clamp_always_misses(monkeypatch)
    with pytest.raises(RuntimeError, match="restart from the sensed state"):
        step_tracking(
            state, one(95.0, 30.0), path, METRIC1, CFG,
            strategy=RecoveryStrategy.RESTART_TO_F,
        )


def test_recovery_replan_raises_if_its_clamp_misses(monkeypatch):
    path, state, sensed, displaced = displace_mid_path()
    state, _ = step_tracking(state, displaced, path, METRIC1, CFG)
    assert state.mode is Mode.RECOVERING
    _clamp_always_misses(monkeypatch)
    with pytest.raises(RuntimeError, match="recovery replan"):
        step_tracking(state, one(20.0, -40.0), path, METRIC1, CFG)


def test_speed_mode_rejects_bad_dt():
    state = ControllerState.initial(one(0.0))
    with pytest.raises(ValueError):
        step_speed(state, one(0.0), SpeedInput(np.zeros(3)), 0.0, METRIC1, CFG)


def test_speed_input_validation():
    with pytest.raises(ValueError):
        SpeedInput(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpeedInput(np.array([1.0, 2.0, math.nan]))


def test_default_config_enforces_monotonic_t():
    path = line_path(0.0, 100.0)
    state = ControllerState.initial(one(0.0))
    sensed = one(0.0)
    for _ in range(5):
        state, command = step_tracking(state, sensed, path, METRIC1)
        sensed = command
    t_before = state.segment_t
    back = one(sensed.poses[0].v[0] - 5.0)
    state, _ = step_tracking(state, back, path, METRIC1)
    assert state.segment_t >= t_before


# --- carried clamp segment ---------------------------------------------------

def turned(x, y, angle):
    return Pose(np.array([x, y, 0.0]), quat_from_axis_angle([0.0, 0.0, 1.0], angle))


def two_limbs(*poses):
    return MultiPose(("a", "b"), poses)


def cold_outcome(sensed, start, final, metric, cfg):
    """The clamp of fresh, equal copies of every input: no memo can hold them."""
    copy = lambda m: MultiPose._of_arrays(m.names, m.translations().copy(), m.quaternions().copy())
    start, final, sensed = copy(start), copy(final), copy(sensed)
    metric = MultiMetricParams(metric.per_ee, metric.norm_order)
    cfg = ClampConfig(cfg.step_distance, cfg.min_samples, cfg.max_samples, cfg.enforce_monotonic_t)
    n = sample_count(start, final, lambda a, b: stacked_distance(a, b, metric), cfg)
    return clamp_stacked(sensed, start, final, metric, n)


def test_carried_segment_follows_path_metric_and_config():
    home = two_limbs(turned(0.0, 0.0, 0.0), turned(0.0, 50.0, 0.2))
    paths = (
        PathSpec((home, two_limbs(turned(40.0, 0.0, 0.6), turned(40.0, 50.0, 0.2)))),
        PathSpec((home, two_limbs(turned(0.0, 30.0, 0.0), turned(-30.0, 50.0, 1.0)))),
    )
    metrics = (
        MultiMetricParams((Se3MetricParams(4.0, 0.3), Se3MetricParams(6.0, 0.4))),
        MultiMetricParams((Se3MetricParams(9.0, 0.5), Se3MetricParams(5.0)), norm_order=2.0),
    )
    cfgs = (CFG, ClampConfig(step_distance=0.3, enforce_monotonic_t=True))
    initial = ControllerState.initial(home)
    sensed = two_limbs(turned(1.0, 1.0, 0.05), turned(1.0, 49.0, 0.25))
    cases = (
        [(path, metrics[0], cfgs[0]) for path in paths * 2],
        [(paths[0], metric, cfgs[0]) for metric in metrics * 2],
        [(paths[0], metrics[0], cfg) for cfg in cfgs * 2],
    )
    for alternation in cases:
        # each step carries the clamp segment of the step before it, which
        # clamped another path, metric or config
        carried = None
        commands = []
        for path, metric, cfg in alternation:
            state = dataclasses.replace(initial, clamp_segment=carried)
            new, command = step_tracking(state, sensed, path, metric, cfg)
            want = cold_outcome(sensed, *path.segment(0), metric, cfg)
            assert isinstance(want, Solution)
            assert new.segment_t == want.t
            assert command.translations().tobytes() == want.point.translations().tobytes()
            assert command.quaternions().tobytes() == want.point.quaternions().tobytes()
            commands.append(command.translations().tobytes())
            assert new.clamp_segment is not carried
            # the same segment, metric and config again keep the segment
            again, _ = step_tracking(
                dataclasses.replace(initial, clamp_segment=new.clamp_segment),
                sensed, path, metric, cfg,
            )
            assert again.clamp_segment is new.clamp_segment
            carried = new.clamp_segment
        # the two alternatives differ, so a stale segment would show
        assert commands[0] != commands[1] and commands[:2] == commands[2:]


def test_evolve_copies_like_dataclasses_replace():
    state = ControllerState.initial(one(0.0))
    changes = dict(mode=Mode.RECOVERING, t_floor=0.25, detour=(one(1.0), one(0.0)))
    new = controller._evolve(state, **changes)
    assert type(new) is ControllerState
    assert new == dataclasses.replace(state, **changes)
    assert state == ControllerState.initial(state.last_command)  # the original is untouched
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.mode = Mode.TRACKING
    with pytest.raises(TypeError, match="t_flor"):
        controller._evolve(state, t_flor=0.5)
