"""Deterministic fixed-step multi-limb simulator with fault injection.

Each limb is a first-order pursuit plant with a speed cap and an axis-aligned
workspace box standing in for reachability. Sensors are zero-order-hold with
a per-limb period; commands pass through a per-limb latency queue. Faults
(blockage, slowdown, sensor freeze, displacement, power cycle) are scheduled
on a wall-clock timeline and applied to targeted limbs.

The loop per step: apply restore offsets of faults that just ended, refresh
sensor readings, run the controller on the stacked sensed state, enqueue the
command, step every plant against its latency-delayed command, record.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .controller import (
    ControllerState,
    PathSpec,
    RecoveryStrategy,
    SpeedInput,
    step_speed,
    step_tracking,
)
from .metric_core import ClampConfig
from .multi_ee import MultiMetricParams, MultiPose, per_ee_distances
from .se3 import Pose, slerp

ALL_LIMBS = "ALL"

# Sampling-time comparisons tolerate accumulated float error in k*dt.
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned workspace box, mm."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("box corners must be 3-vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if not (lo < hi).all():
            raise ValueError("box must have positive extent on every axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def clip(self, v: np.ndarray) -> np.ndarray:
        return np.clip(v, self.lower, self.upper)

    def contains(self, v: np.ndarray) -> bool:
        return bool((v >= self.lower).all() and (v <= self.upper).all())


@dataclass(frozen=True)
class LimbModel:
    """End-effector surrogate for one limb.

    max_ee_speed caps translation, mm/s. tracking_gain is the first-order
    pursuit rate, 1/s. sensor_period and command_latency are seconds; zero
    means every-step sampling and immediate command application.
    """

    name: str
    max_ee_speed: float
    workspace: Box
    tracking_gain: float
    sensor_period: float = 0.0
    command_latency: float = 0.0


class DisturbanceKind(enum.Enum):
    BLOCK = "block"
    SLOWDOWN = "slowdown"
    FREEZE = "freeze"
    DISPLACE = "displace"
    POWER_CYCLE = "power_cycle"


@dataclass(frozen=True)
class Disturbance:
    """Scheduled fault on one limb (or ALL) over [start, start+duration).

    BLOCK pins the plant; sensors stay live. SLOWDOWN scales the speed cap
    by `factor`. FREEZE pins the plant and holds the sensor reading. DISPLACE
    offsets the plant pose when the window ends. POWER_CYCLE is FREEZE for
    the window plus a DISPLACE offset on restore (a powered-off limb that
    falls, then comes back reporting its post-fall pose).
    """

    kind: DisturbanceKind
    target: str
    start: float
    duration: float
    factor: Optional[float] = None
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=np.float64)
            off.flags.writeable = False
            object.__setattr__(self, "offset", off)

    def active(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration

    def targets(self, limb_name: str) -> bool:
        return self.target == ALL_LIMBS or self.target == limb_name


@dataclass(frozen=True)
class PathProgram:
    """Waypoint tracking with a recovery strategy."""

    path: PathSpec
    strategy: RecoveryStrategy = RecoveryStrategy.RETURN_TO_LAST_VALID


@dataclass(frozen=True)
class SpeedProgram:
    """Piecewise-constant velocity schedule: (until_s, velocity mm/s) pairs.

    The entry whose `until` is the first to exceed the current time applies;
    the last entry covers everything after its predecessor.
    """

    schedule: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for until, vel in self.schedule:
            v = np.asarray(vel, dtype=np.float64)
            v.flags.writeable = False
            frozen.append((float(until), v))
        # lookup walks the entries in order, so the boundaries must ascend
        untils = [u for u, _ in frozen]
        if untils != sorted(untils):
            raise ValueError(f"schedule 'until' times must be ascending: {untils}")
        object.__setattr__(self, "schedule", tuple(frozen))

    def velocity_at(self, t: float) -> np.ndarray:
        for until, vel in self.schedule:
            if t < until:
                return vel
        return self.schedule[-1][1]


Program = Union[PathProgram, SpeedProgram]


@dataclass(frozen=True)
class Scenario:
    name: str
    limbs: tuple[LimbModel, ...]
    initial: MultiPose
    program: Program
    metric: MultiMetricParams
    clamp: ClampConfig = field(default_factory=ClampConfig)
    disturbances: tuple[Disturbance, ...] = ()
    dt: float = 0.02
    horizon: float = 10.0
    seed: int = 0


@dataclass(frozen=True)
class TraceRecord:
    """One simulation step: controller-facing readings and emitted command."""

    time: float
    sensed: MultiPose
    command: MultiPose
    distances: tuple[float, ...]
    t: float
    segment: int
    mode: str


class ScenarioValidationError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect validation failures as 'field.path: message' strings."""
    errors: list[str] = []
    if not scenario.dt > 0:
        errors.append(f"dt: must be > 0, got {scenario.dt}")
    if not scenario.horizon >= scenario.dt:
        errors.append(
            f"horizon: must be >= dt, got {scenario.horizon} < {scenario.dt}"
        )
    elif not math.isfinite(scenario.horizon):
        errors.append(f"horizon: must be finite, got {scenario.horizon}")
    if not scenario.limbs:
        errors.append("limbs: must not be empty")
    names = [limb.name for limb in scenario.limbs]
    if len(set(names)) != len(names):
        errors.append(f"limbs: duplicate names in {names}")
    for i, limb in enumerate(scenario.limbs):
        prefix = f"limbs[{i}].{limb.name}" if limb.name else f"limbs[{i}]"
        if not limb.max_ee_speed > 0:
            errors.append(f"{prefix}.max_ee_speed: must be > 0, got {limb.max_ee_speed}")
        if not limb.tracking_gain > 0:
            errors.append(f"{prefix}.tracking_gain: must be > 0, got {limb.tracking_gain}")
        if not (math.isfinite(limb.sensor_period) and limb.sensor_period >= 0):
            errors.append(
                f"{prefix}.sensor_period: must be finite and >= 0, got {limb.sensor_period}"
            )
        # the latency queue holds round(latency / dt) commands, at most one per step
        if not 0 <= limb.command_latency <= scenario.horizon:
            errors.append(
                f"{prefix}.command_latency: must be in [0, horizon={scenario.horizon}], "
                f"got {limb.command_latency}"
            )
        if limb.name in scenario.initial.names:
            if not limb.workspace.contains(scenario.initial.pose_of(limb.name).v):
                errors.append(f"{prefix}.workspace: initial pose outside workspace")
    if tuple(names) != scenario.initial.names:
        errors.append(
            f"initial: pose names {scenario.initial.names} do not match limbs {tuple(names)}"
        )
    if len(scenario.metric.per_ee) != len(scenario.limbs):
        errors.append(
            f"metric.per_ee: {len(scenario.metric.per_ee)} entries for "
            f"{len(scenario.limbs)} limbs"
        )
    if isinstance(scenario.program, PathProgram):
        if scenario.program.path.names != tuple(names):
            errors.append(
                f"program.path: waypoint names {scenario.program.path.names} "
                f"do not match limbs {tuple(names)}"
            )
    elif isinstance(scenario.program, SpeedProgram):
        if not scenario.program.schedule:
            errors.append("program.schedule: must not be empty")
        elif scenario.program.schedule[-1][0] < scenario.horizon:
            errors.append(
                f"program.schedule: last entry ends at "
                f"{scenario.program.schedule[-1][0]} before horizon {scenario.horizon}"
            )
        for i, (_, vel) in enumerate(scenario.program.schedule):
            if vel.shape != (3,) or not np.isfinite(vel).all():
                errors.append(
                    f"program.schedule[{i}].velocity: must be a finite 3-vector, "
                    f"got {vel.tolist()}"
                )
    else:
        errors.append(f"program: unknown program type {type(scenario.program).__name__}")
    for i, d in enumerate(scenario.disturbances):
        prefix = f"disturbances[{i}]"
        if d.target != ALL_LIMBS and d.target not in names:
            errors.append(f"{prefix}.target: unknown limb {d.target!r}")
        if not (math.isfinite(d.start) and d.start >= 0):
            errors.append(f"{prefix}.start: must be finite and >= 0, got {d.start}")
        if not d.duration > 0:
            errors.append(f"{prefix}.duration: must be > 0, got {d.duration}")
        if d.start + d.duration > scenario.horizon:
            errors.append(
                f"{prefix}: interval [{d.start}, {d.start + d.duration}] "
                f"exceeds horizon {scenario.horizon}"
            )
        if d.kind is DisturbanceKind.SLOWDOWN:
            if d.factor is None or not (0.0 < d.factor < 1.0):
                errors.append(f"{prefix}.factor: slowdown needs factor in (0,1), got {d.factor}")
        if d.kind in (DisturbanceKind.DISPLACE, DisturbanceKind.POWER_CYCLE):
            if d.offset is None or d.offset.shape != (3,):
                errors.append(f"{prefix}.offset: {d.kind.value} needs a 3-vector offset")
    return errors


_HOLD_KINDS = (DisturbanceKind.BLOCK, DisturbanceKind.FREEZE, DisturbanceKind.POWER_CYCLE)
_FREEZE_KINDS = (DisturbanceKind.FREEZE, DisturbanceKind.POWER_CYCLE)
_OFFSET_KINDS = (DisturbanceKind.DISPLACE, DisturbanceKind.POWER_CYCLE)


def limb_step(
    limb: LimbModel,
    current: Pose,
    command: Pose,
    active_disturbances: list[Disturbance],
    dt: float,
) -> Pose:
    """Advance one plant by dt toward its (already latency-delayed) command.

    First-order pursuit: the step covers a min(1, gain*dt) fraction of the
    remaining error, capped at max_ee_speed * dt (scaled by any active
    slowdowns), with the translation clipped to the workspace box. Blockage,
    freeze and power-off hold the pose exactly.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    speed = limb.max_ee_speed
    for d in active_disturbances:
        if d.kind in _HOLD_KINDS:
            return current
        if d.kind is DisturbanceKind.SLOWDOWN:
            speed *= d.factor
    frac = min(1.0, limb.tracking_gain * dt)
    dv = (command.v - current.v) * frac
    step_len = float(np.linalg.norm(dv))
    cap = speed * dt
    if step_len > cap:
        dv *= cap / step_len
    new_v = limb.workspace.clip(current.v + dv)
    new_q = slerp(current.q, command.q, frac)
    return Pose(new_v, new_q)


def run_scenario(scenario: Scenario) -> list[TraceRecord]:
    """Run the fixed-step loop and return one TraceRecord per step.

    Bit-for-bit deterministic: the schedule is fixed, plants and controller
    are pure float arithmetic, and no randomness is drawn at runtime.
    """
    errors = validate_scenario(scenario)
    if errors:
        raise ScenarioValidationError(errors)

    dt = scenario.dt
    n_steps = int(round(scenario.horizon / dt))
    names = tuple(limb.name for limb in scenario.limbs)
    limbs = {limb.name: limb for limb in scenario.limbs}

    true_poses = {name: scenario.initial.pose_of(name) for name in names}
    sensed_poses = dict(true_poses)
    next_sample = {name: 0.0 for name in names}
    queues = {}
    for name in names:
        lag = int(round(limbs[name].command_latency / dt))
        queues[name] = deque([true_poses[name]] * lag)

    ctrl = ControllerState.initial(scenario.initial)
    was_active = [False] * len(scenario.disturbances)
    records: list[TraceRecord] = []

    for k in range(n_steps):
        now = k * dt

        # Faults that just ended: apply restore offsets, force a re-sample so
        # the sensed pose refreshes abruptly at the restore instant.
        for i, d in enumerate(scenario.disturbances):
            is_active = d.active(now)
            if was_active[i] and not is_active:
                for name in names:
                    if not d.targets(name):
                        continue
                    if d.kind in _OFFSET_KINDS:
                        p = true_poses[name]
                        true_poses[name] = Pose(
                            limbs[name].workspace.clip(p.v + d.offset), p.q
                        )
                    if d.kind in _FREEZE_KINDS or d.kind in _OFFSET_KINDS:
                        next_sample[name] = now
            was_active[i] = is_active

        active = [d for d in scenario.disturbances if d.active(now)]
        frozen = {
            name
            for name in names
            for d in active
            if d.kind in _FREEZE_KINDS and d.targets(name)
        }

        for name in names:
            if name in frozen:
                continue
            if now >= next_sample[name] - _TIME_EPS:
                sensed_poses[name] = true_poses[name]
                next_sample[name] = now + limbs[name].sensor_period
        sensed = MultiPose(names, tuple(sensed_poses[name] for name in names))

        if isinstance(scenario.program, PathProgram):
            ctrl, command = step_tracking(
                ctrl,
                sensed,
                scenario.program.path,
                scenario.metric,
                scenario.clamp,
                scenario.program.strategy,
            )
        else:
            vel = scenario.program.velocity_at(now)
            ctrl, command = step_speed(
                ctrl, sensed, SpeedInput(vel), dt, scenario.metric, scenario.clamp
            )

        for name in names:
            q = queues[name]
            q.append(command.pose_of(name))
            applied = q.popleft()
            acting = [d for d in active if d.targets(name)]
            true_poses[name] = limb_step(limbs[name], true_poses[name], applied, acting, dt)

        dists = per_ee_distances(command, sensed, scenario.metric)
        records.append(
            TraceRecord(
                time=now,
                sensed=sensed,
                command=command,
                distances=tuple(float(x) for x in dists),
                t=ctrl.segment_t,
                segment=ctrl.command_segment,
                mode=ctrl.mode.value,
            )
        )
    return records
