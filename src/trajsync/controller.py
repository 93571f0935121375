"""Stateful per-step command generation over stacked SE(3) trajectories.

Two front ends share the clamp core: waypoint-path tracking (piecewise
LERP/SLERP segments, each re-parameterized to [0, 1]) and speed integration
(a fresh micro-segment from the last command every step). When no trajectory
sample lies within the unit ball, a recovery strategy answers the miss. Two
take a detour, a segment from the sensed state that path tracking clamps in
place of the path's: on to the segment end (``restart_to_f``), or back to
the last valid command and then on (``return_to_last_valid``, the default).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .metric_core import ClampConfig, NoSolution, Solution, sample_count
from .multi_ee import (
    MultiMetricParams,
    MultiPose,
    StackedSegment,
    _translated,
    stacked_distance,
    stacked_interp,
)


class Mode(str, enum.Enum):
    TRACKING = "tracking"
    RECOVERING = "recovering"
    WAITING = "waiting"


class RecoveryStrategy(enum.Enum):
    # Retrace to the last in-ball command, then continue the original segment.
    RETURN_TO_LAST_VALID = "return_to_last_valid"
    # Emit the nearest trajectory sample even though it is outside the ball.
    NEAREST_SAMPLE = "nearest_sample"
    # Abandon the segment start: re-target the segment end from where we are.
    RESTART_TO_F = "restart_to_f"


@dataclass(frozen=True)
class PathSpec:
    """Piecewise LERP/SLERP path through waypoints, optionally looping.

    Consecutive identical waypoints produce zero-length segments, which are
    skipped at construction.
    """

    waypoints: tuple[MultiPose, ...]
    loop: bool = False

    def __post_init__(self):
        waypoints = tuple(self.waypoints)
        object.__setattr__(self, "waypoints", waypoints)
        if len(waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        names = waypoints[0].names
        for i, w in enumerate(waypoints):
            if w.names != names:
                raise ValueError(
                    f"waypoint {i} names {w.names} differ from {names}"
                )
        pairs = []
        for i in range(len(waypoints) - 1):
            if not _same_multipose(waypoints[i], waypoints[i + 1]):
                pairs.append((i, i + 1))
        if self.loop and not _same_multipose(waypoints[-1], waypoints[0]):
            pairs.append((len(waypoints) - 1, 0))
        if not pairs:
            raise ValueError("path has no extent: all waypoints coincide")
        object.__setattr__(self, "_segments", tuple(pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return self.waypoints[0].names

    def segment_count(self) -> int:
        return len(self._segments)

    def segment(self, index: int) -> tuple[MultiPose, MultiPose]:
        """Endpoints of the segment at an absolute (ever-increasing) index.

        Looping paths wrap modulo the segment count; non-looping paths clamp
        to the final segment.
        """
        n = len(self._segments)
        i = index % n if self.loop else min(index, n - 1)
        a, b = self._segments[i]
        return self.waypoints[a], self.waypoints[b]

    def is_last_segment(self, index: int) -> bool:
        return not self.loop and index >= len(self._segments) - 1


def _same_multipose(a: MultiPose, b: MultiPose) -> bool:
    return np.array_equal(a.translations(), b.translations()) and np.array_equal(
        a.quaternions(), b.quaternions()
    )


@dataclass(frozen=True)
class SpeedInput:
    """Translational speed command, mm/s (rotation rate is fixed at zero)."""

    linear_velocity: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.linear_velocity, dtype=np.float64)
        if v.shape != (3,):
            raise ValueError(f"speed must be a 3-vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("speed components must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "linear_velocity", v)


@dataclass(frozen=True)
class ControllerState:
    """Value-type controller state; step functions return updated copies.

    ``detour`` is the segment clamped in place of ``segment_index``'s, if
    any: from the sensed state at a miss to the segment end, or, while
    recovering, to the last valid command. ``resume`` is the ``(t_floor,
    detour)`` that a recovery interrupted, restored when it completes.
    ``t_floor`` guards against within-segment backsliding when the clamp
    config enables monotonic t; it resets at segment changes and at recovery
    start. ``segment_t`` is the last reported parameter of the *tracking*
    segment; it holds still during recovery and waiting. ``misses`` counts
    the clamp misses acted on: tracking misses, replans and speed-mode waits.

    ``clamp_segment`` is the ``(cfg, StackedSegment)`` of the last clamp,
    reused while the same segment is clamped under the same metric and
    config: the state holds every clamp constant of its run.
    """

    mode: Mode
    segment_index: int
    t_floor: float
    last_command: MultiPose
    last_valid_point: MultiPose
    detour: Optional[tuple[MultiPose, MultiPose]] = None
    resume: tuple[float, Optional[tuple[MultiPose, MultiPose]]] = (0.0, None)
    segment_t: float = 0.0
    # Segment index segment_t refers to; lags segment_index by one on the
    # step that completes a segment (the command still lies on the old one).
    command_segment: int = 0
    misses: int = 0
    clamp_segment: Optional[tuple[ClampConfig, StackedSegment]] = field(
        default=None, compare=False, repr=False
    )

    @staticmethod
    def initial(state: MultiPose) -> "ControllerState":
        return ControllerState(
            mode=Mode.TRACKING,
            segment_index=0,
            t_floor=0.0,
            last_command=state,
            last_valid_point=state,
        )


_STATE_FIELDS = frozenset(f.name for f in fields(ControllerState))


def _evolve(state: ControllerState, **changes) -> ControllerState:
    """``dataclasses.replace(state, **changes)`` without its per-field
    ``__init__``: every field is a plain value with no ``__post_init__``, so
    the copy's ``__dict__`` is the old one updated."""
    if not _STATE_FIELDS.issuperset(changes):
        unknown = sorted(changes.keys() - _STATE_FIELDS)
        raise TypeError(f"ControllerState has no field(s) {unknown}")
    new = object.__new__(ControllerState)
    new.__dict__.update(state.__dict__, **changes)
    return new


# Library users driving the controller directly get monotonic t by default;
# the raw clamp keeps it off so bare library calls stay stateless.
_DEFAULT_CFG = ClampConfig(enforce_monotonic_t=True)


def _expect_solution(outcome, what: str) -> None:
    """A segment that starts at the sensed state has its t = 0 sample at
    distance 0, so its clamp must hit; a miss is a broken invariant."""
    if not isinstance(outcome, Solution):
        raise RuntimeError(
            f"{what}: clamp of a segment starting at the sensed state returned "
            f"{type(outcome).__name__}, but its t = 0 sample is at distance 0"
        )


def _clamp(
    sensed: MultiPose,
    start: MultiPose,
    final: MultiPose,
    metric: MultiMetricParams,
    cfg: ClampConfig,
    last: Optional[tuple[ClampConfig, StackedSegment]],
    t_floor: float = 0.0,
) -> tuple[Solution | NoSolution, tuple[ClampConfig, StackedSegment]]:
    """Clamp the segment start -> final against the sensed state, then apply
    the monotonic-t floor to a hit. Returns the outcome and the ``(cfg,
    segment)`` clamped: ``last`` if it fits, otherwise a new one.

    A hit below ``t_floor`` (when the config enforces monotonic t) moves up
    to the floor. If the floored sample falls outside the unit ball around
    the sensed state, the result is a miss at the floor: refusing to
    backslide must never cost safety, so recovery takes over instead.
    """
    floor = t_floor if cfg.enforce_monotonic_t else 0.0
    # All four are immutable: the last segment serves while they are the same.
    last_cfg, segment = last or (None, None)
    if not (
        last_cfg is cfg
        and segment.start is start
        and segment.final is final
        and segment.params is metric
    ):
        n = sample_count(start, final, metric.distance, cfg)
        last = (cfg, StackedSegment(start, final, metric, n))
    # A hit at or above the floor stands as it is, so those samples are
    # scored first.
    outcome = last[1].clamp(sensed, floor)
    if isinstance(outcome, Solution) and outcome.t < floor:
        point = stacked_interp(floor, start, final)
        dist = stacked_distance(point, sensed, metric)
        if dist > 1.0:
            return NoSolution(point, floor, dist), last
        return Solution(point, floor, dist), last
    return outcome, last


def _tracked(
    state: ControllerState, hit: Solution, path: PathSpec, **changes
) -> tuple[ControllerState, MultiPose]:
    """Emit a tracking hit. Reaching t = 1 advances to the next segment:
    always off a detour, otherwise unless this is the last segment of a
    non-looping path."""
    new = _evolve(
        state,
        mode=Mode.TRACKING,
        t_floor=hit.t,
        last_command=hit.point,
        last_valid_point=hit.point,
        segment_t=hit.t,
        command_segment=state.segment_index,
        **changes,
    )
    if hit.t == 1.0 and (
        new.detour is not None or not path.is_last_segment(state.segment_index)
    ):
        new = _evolve(new, segment_index=state.segment_index + 1, detour=None, t_floor=0.0)
    return new, hit.point


def _recovered(
    state: ControllerState, hit: Solution, **changes
) -> tuple[ControllerState, MultiPose]:
    """Emit a recovery hit. Reaching t = 1, back at the last valid command
    and within the ball, resumes the floor and detour that the recovery
    interrupted."""
    new = _evolve(
        state, t_floor=hit.t, last_command=hit.point, last_valid_point=hit.point, **changes
    )
    if hit.t == 1.0:
        t_floor, detour = new.resume
        new = _evolve(new, mode=Mode.TRACKING, detour=detour, t_floor=t_floor, resume=(0.0, None))
    return new, hit.point


def _recover(
    state: ControllerState, sensed: MultiPose, target: MultiPose,
    metric: MultiMetricParams, cfg: ClampConfig, **changes,
) -> tuple[ControllerState, MultiPose]:
    """Enter or replan a recovery: clamp the detour from the sensed state to
    ``target``, unfloored, and emit its hit."""
    hit, segment = _clamp(sensed, sensed, target, metric, cfg, state.clamp_segment)
    what = "replan" if state.mode is Mode.RECOVERING else "entry"
    _expect_solution(hit, f"recovery {what} from the sensed state")
    return _recovered(state, hit, detour=(sensed, target), clamp_segment=segment, **changes)


def step_tracking(
    state: ControllerState,
    sensed: MultiPose,
    path: PathSpec,
    metric: MultiMetricParams,
    cfg: ClampConfig | None = None,
    strategy: RecoveryStrategy = RecoveryStrategy.RETURN_TO_LAST_VALID,
) -> tuple[ControllerState, MultiPose]:
    """One waypoint-tracking step: clamp the detour, or else the current
    path segment, against the sensed state and emit the resulting command.

    Reaching t = 1 advances to the next segment (wrapping when the path
    loops). A clamp miss hands control to ``handle_no_solution``; a miss
    while recovering replans the recovery from the sensed state.
    """
    cfg = _DEFAULT_CFG if cfg is None else cfg
    if sensed.names != path.names:
        raise ValueError(f"state names {sensed.names} do not match path {path.names}")
    start, final = state.detour or path.segment(state.segment_index)
    outcome, segment = _clamp(
        sensed, start, final, metric, cfg, state.clamp_segment, state.t_floor
    )
    recovering = state.mode is Mode.RECOVERING
    if isinstance(outcome, NoSolution):
        state = _evolve(state, clamp_segment=segment, misses=state.misses + 1)
        if recovering:
            # The state moved again while recovering: replan from where it is now.
            return _recover(state, sensed, final, metric, cfg)
        return handle_no_solution(
            state, sensed, strategy, metric, cfg, outcome=outcome, path=path
        )
    if recovering:
        return _recovered(state, outcome, clamp_segment=segment)
    return _tracked(state, outcome, path, clamp_segment=segment)


def step_speed(
    state: ControllerState,
    sensed: MultiPose,
    speed: SpeedInput,
    dt: float,
    metric: MultiMetricParams,
    cfg: ClampConfig | None = None,
) -> tuple[ControllerState, MultiPose]:
    """One speed-integration step.

    The target is the last command with its translation offset by speed*dt
    (rotation untouched); the clamp runs on that micro-segment. On a miss the
    controller holds the last command and waits: no recovery strategy here,
    the next step simply retries from the same command.
    """
    cfg = _DEFAULT_CFG if cfg is None else cfg
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if sensed.names != state.last_command.names:
        raise ValueError("state names do not match the controller's")
    start = state.last_command
    final = _translated(start, speed.linear_velocity * dt)
    # A new segment every step: there is none to keep.
    outcome, _ = _clamp(sensed, start, final, metric, cfg, None)
    if isinstance(outcome, NoSolution):
        return _evolve(state, mode=Mode.WAITING, misses=state.misses + 1), state.last_command

    command = outcome.point
    new = _evolve(
        state,
        mode=Mode.TRACKING,
        t_floor=0.0,
        last_command=command,
        last_valid_point=command,
        segment_t=outcome.t,
        command_segment=state.segment_index,
    )
    return new, command


def handle_no_solution(
    state: ControllerState,
    sensed: MultiPose,
    strategy: RecoveryStrategy,
    metric: MultiMetricParams,
    cfg: ClampConfig | None = None,
    *,
    outcome: NoSolution,
    path: PathSpec,
) -> tuple[ControllerState, MultiPose]:
    """Dispatch a clamp miss to the chosen recovery strategy.

    RETURN_TO_LAST_VALID takes a detour from (a snapshot of) the sensed state
    back to the last valid command, clamped along each step until reached,
    then resumes what it interrupted. NEAREST_SAMPLE emits the nearest
    trajectory sample as-is. RESTART_TO_F swaps the rest of the current
    segment for the detour (sensed snapshot) -> F and stays in tracking.
    """
    cfg = _DEFAULT_CFG if cfg is None else cfg
    if strategy is RecoveryStrategy.RETURN_TO_LAST_VALID:
        return _recover(
            state, sensed, state.last_valid_point, metric, cfg,
            mode=Mode.RECOVERING, resume=(state.t_floor, state.detour),
        )

    if strategy is RecoveryStrategy.NEAREST_SAMPLE:
        command = outcome.nearest_point
        new = _evolve(
            state, mode=Mode.TRACKING, last_command=command,
            segment_t=outcome.nearest_t, command_segment=state.segment_index,
        )
        return new, command

    if strategy is RecoveryStrategy.RESTART_TO_F:
        _, final = state.detour or path.segment(state.segment_index)
        hit, segment = _clamp(sensed, sensed, final, metric, cfg, state.clamp_segment)
        _expect_solution(hit, "restart from the sensed state")
        return _tracked(state, hit, path, detour=(sensed, final), clamp_segment=segment)

    raise ValueError(f"unknown recovery strategy: {strategy}")
