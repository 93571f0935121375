"""Deterministic fixed-step multi-limb simulator with fault injection.

Each limb is a first-order pursuit plant with a speed cap and an axis-aligned
workspace box standing in for reachability. Sensors are zero-order-hold with
a per-limb period; each limb acts on the command issued a per-limb latency
earlier. Faults (blockage, slowdown, sensor freeze, displacement, power
cycle) are scheduled on a wall-clock timeline and applied to targeted limbs.

The loop per step: apply restore offsets of faults that just ended, refresh
sensor readings, run the controller on the stacked sensed state, step all
plants at once against their latency-delayed commands, record. The state
stays stacked throughout: (n, 3) translations and (n, 4) quaternions. The
plant state and the delayed commands stay bare row arrays; the loop wraps
the plant's rows as a ``MultiPose`` only where they become the sensed state.
A step does only the array work that a trace byte depends on: multiplying a
row by 1.0 leaves it bit for bit as it was, so the plant skips its pursuit
fraction when every fraction is 1.0 and the held-row select of a quaternion
array that the SLERP handed back unchanged, and the delay line skips its
quaternion ring while every command in it has the same quaternion bytes.
A step also makes few interpreter calls: the loop reads the run's path,
metric, clamp config and strategy once, decides the sensor refresh as one
int bitmask, records the controller's ``Mode`` member as it is, and the
plant clips with the ufunc that ``ndarray.clip`` wraps.

A step is recorded by buffering its sensed state, command and controller
readings. Every ``_CHUNK_STEPS`` steps the buffer becomes one ``_Chunk`` of
read-only column blocks, with the distances computed in one pass over its
stacked rows, and the buffered objects are dropped. ``run_scenario``
returns the chunks as a ``Trace``, which builds a ``TraceRecord`` only when
one is read: a run keeps one object per chunk, not several per step, for
the garbage collector to walk. Every chunk of a run but the last is full,
so the trace finds a step's chunk by division. This module owns the chunk
layout: ``_chunks`` hands the writers and the summary a ``Trace``'s blocks,
or cuts a plain sequence of records into blocks with the same builder.

A run owns the constants of its steps: ``run_scenario`` keeps the plant
constants, rebuilt when a fault starts or ends, and the controller state the
clamp segment. No module state is shared between runs, so runs may be
interleaved or repeated in one process.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .controller import (
    ControllerState,
    Mode,
    PathSpec,
    RecoveryStrategy,
    SpeedInput,
    step_speed,
    step_tracking,
)
from .metric_core import ClampConfig
from .multi_ee import MultiMetricParams, MultiPose, _row_distances, _slerp_rows
from .se3 import _rowdot, _unit_rows

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
    command_latency delays commands by round(latency / dt) steps, halves to
    even; a positive latency that rounds to 0 steps is rejected. A
    sensor_period that is not a multiple of dt refreshes at the first step
    at or after each due time, counted from the last refresh.
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
    """One run's config. ``seed`` is a label: no code reads it, so it does not change a run."""

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


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One simulation step: controller-facing readings and emitted command.

    A ``Trace`` builds one on access from its column blocks; its ``sensed``
    and ``command`` hold read-only views of those blocks. ``mode`` is a
    ``Mode`` value; the writers refuse any other string. ``misses`` is
    ``ControllerState.misses`` after the step. The trace files do not
    export it: their 20 columns stay as documented."""

    time: float
    sensed: MultiPose
    command: MultiPose
    distances: tuple[float, ...]
    t: float
    segment: int
    mode: str
    misses: int = 0


# A chunk keeps each step's mode as its index here, in one byte. The codes
# are keyed by the members, which hash and compare as their values, so the
# loop looks up the member it holds and a record's string finds the same code.
_MODES = tuple(mode.value for mode in Mode)
_MODE_CODES = {mode: code for code, mode in enumerate(Mode)}


# The loop stacks the trace a chunk of steps at a time: one pass over the
# stacked rows of a chunk costs about what the pass of one step did on its
# own. The trace keeps the chunks, and the trace writers format one at a time.
_CHUNK_STEPS = 128


class _Chunk:
    """Consecutive steps of a trace whose limbs share ``names``, as
    read-only column blocks: per step (m,) ``time``, ``t``, ``segment``,
    ``mode`` (uint8 indices into ``_MODES``) and ``misses``; per step and
    limb the sensed and command translations (m, n, 3) and quaternions
    (m, n, 4) and ``distances`` (m, n).

    Built from ``steps``, one (time, sensed, command, t, segment, mode,
    misses) tuple per step, with a mode given as a ``Mode`` member or its
    string. A run passes its ``metric``, and the distance of each command
    to its sensed state is computed in one pass over the stacked rows: each
    row's distance depends on that row alone, so it has the bits of a step's
    own. A record sequence passes its records' own ``distances`` instead."""

    __slots__ = (
        "names", "time", "sensed_v", "sensed_q", "command_v", "command_q",
        "distances", "t", "segment", "mode", "misses",
    )

    def __init__(self, steps, metric: Optional[MultiMetricParams] = None, distances=None):
        time, sensed, command, t, segment, mode, misses = zip(*steps)
        m, n = len(steps), len(sensed[0].names)
        self.sensed_v = sv = np.concatenate([p._v for p in sensed]).reshape(m, n, 3)
        self.sensed_q = sq = np.concatenate([p._q for p in sensed]).reshape(m, n, 4)
        self.command_v = cv = np.concatenate([p._v for p in command]).reshape(m, n, 3)
        self.command_q = cq = np.concatenate([p._q for p in command]).reshape(m, n, 4)
        if metric is not None:
            distances = _row_distances(cv, sv, cq, sq, *metric._columns)
        self.names = sensed[0].names
        self.time = np.array(time, dtype=np.float64)
        self.distances = np.array(distances, dtype=np.float64).reshape(m, n)
        self.t = np.array(t, dtype=np.float64)
        self.segment = np.array(segment)
        try:
            self.mode = np.array([_MODE_CODES[each] for each in mode], dtype=np.uint8)
        except KeyError as exc:
            raise ValueError(f"trace mode {exc.args[0]!r} is not one of {_MODES}") from None
        self.misses = np.array(misses)
        for slot in self.__slots__[1:]:
            getattr(self, slot).setflags(write=False)

    def __len__(self) -> int:
        return len(self.time)

    def record(self, i: int) -> TraceRecord:
        return TraceRecord(
            self.time[i].item(),
            MultiPose._of_arrays(self.names, self.sensed_v[i], self.sensed_q[i]),
            MultiPose._of_arrays(self.names, self.command_v[i], self.command_q[i]),
            tuple(self.distances[i].tolist()),
            self.t[i].item(),
            self.segment[i].item(),
            _MODES[self.mode[i]],
            self.misses[i].item(),
        )


class Trace(Sequence):
    """The records of a run, one per step, as a read-only sequence.

    The trace keeps its steps as ``_Chunk`` column blocks and builds a
    ``TraceRecord`` only when one is asked for: each read builds a new record
    with the same field values, so ``trace[i] is trace[i]`` is false.
    Indexing, negative indices, slices (a list of records) and iteration
    behave as a list's. Every chunk but the last holds ``_CHUNK_STEPS``
    steps, so step i is step i % _CHUNK_STEPS of chunk i // _CHUNK_STEPS.
    """

    __slots__ = ("_chunks",)

    def __init__(self, chunks: list[_Chunk]):
        self._chunks = chunks

    def __len__(self) -> int:
        # a run takes at least one step, so it has a last chunk
        return (len(self._chunks) - 1) * _CHUNK_STEPS + len(self._chunks[-1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("trace index out of range")
        c, j = divmod(i, _CHUNK_STEPS)
        return self._chunks[c].record(j)

    def __iter__(self):
        for chunk in self._chunks:
            for i in range(len(chunk)):
                yield chunk.record(i)


def _chunks(trace: Sequence[TraceRecord]) -> list[_Chunk]:
    """The column blocks of ``trace``: a ``Trace``'s own, or those of a plain
    sequence of records, cut every ``_CHUNK_STEPS`` records and wherever the
    limb names change."""
    if isinstance(trace, Trace):
        return trace._chunks
    chunks = []
    for _, run in itertools.groupby(trace, lambda r: r.sensed.names):
        run = list(run)
        for i in range(0, len(run), _CHUNK_STEPS):
            cut = run[i : i + _CHUNK_STEPS]
            steps = [(r.time, r.sensed, r.command, r.t, r.segment, r.mode, r.misses) for r in cut]
            chunks.append(_Chunk(steps, distances=[r.distances for r in cut]))
    return chunks


class ScenarioValidationError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# A run keeps its whole trace, about 170 bytes per step for one limb and 770
# for six (tracemalloc: what deleting the trace ``run_scenario`` returns for
# out_of_range and robustness_mix frees). A mistyped dt can ask for 10^12
# steps, a run that never ends. The bound makes that a validation error
# instead and keeps the trace of the longest six-limb run under 1 GB. It can
# rise once the run streams.
_MAX_STEPS = 1_000_000

# Positions are in mm. Within +-1e150 the squared difference of any two
# coordinates, at most (2e150)^2 = 4e300, stays finite, and so do the spans
# and distances built from them.
_MAX_COORDINATE = 1e150

# The grid resolves the ball only while a step is at most one radius, so a
# span that 10^6 samples (the largest clamp.max_samples) count is at most
# 10^6 radii. Its k-th power, which a finite norm order k sums, stays finite
# while k <= log(float max) / log(10^6) = 709.78 / 13.82 = 51.4.
_MAX_NORM_ORDER = 51.0


def _coordinate_errors(field: str, rows: np.ndarray) -> list[str]:
    """An error for each row of the (m, 3) positions ``rows`` outside
    +-_MAX_COORDINATE; ``field`` is formatted with the row's index."""
    if np.abs(rows).max() <= _MAX_COORDINATE:
        return []
    return [
        f"{field.format(j)}: must lie within +-{_MAX_COORDINATE:g} mm, got {row}"
        for j, row in enumerate(rows.tolist())
        if not max(map(abs, row)) <= _MAX_COORDINATE
    ]


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
    elif scenario.dt > 0 and not scenario.horizon / scenario.dt <= _MAX_STEPS:
        errors.append(
            f"horizon: horizon / dt must be <= {_MAX_STEPS} steps, "
            f"got {scenario.horizon / scenario.dt:.6g}"
        )
    # the step count the run takes, once dt and horizon are valid
    n_steps = 0 if errors else int(round(scenario.horizon / scenario.dt))
    # ClampConfig's default: the largest grid any scenario uses, and the
    # clamp oracle's; each clamp allocates arrays of up to this many samples
    if scenario.clamp.max_samples > ClampConfig.max_samples:
        errors.append(
            f"clamp.max_samples: must be <= {ClampConfig.max_samples}, "
            f"got {scenario.clamp.max_samples}"
        )
    if not scenario.limbs:
        errors.append("limbs: must not be empty")
    names = [limb.name for limb in scenario.limbs]
    if len(set(names)) != len(names):
        errors.append(f"limbs: duplicate names in {names}")
    initial = dict(zip(scenario.initial.names, scenario.initial.translations()))
    for i, limb in enumerate(scenario.limbs):
        prefix = f"limbs[{i}].{limb.name}" if limb.name else f"limbs[{i}]"
        # a CSV trace row holds the name as a bare cell
        if any(c in limb.name for c in ',"\n\r'):
            errors.append(
                f"limbs[{i}].name: must not contain a comma, quote or line break, got {limb.name!r}"
            )
        # a fault targeting ALL_LIMBS hits every limb
        if limb.name == ALL_LIMBS:
            errors.append(f"limbs[{i}].name: {ALL_LIMBS!r} is reserved for faults on every limb")
        if not (math.isfinite(limb.max_ee_speed) and limb.max_ee_speed > 0):
            errors.append(
                f"{prefix}.max_ee_speed: must be finite and > 0, got {limb.max_ee_speed}"
            )
        if not (math.isfinite(limb.tracking_gain) and limb.tracking_gain > 0):
            errors.append(
                f"{prefix}.tracking_gain: must be finite and > 0, got {limb.tracking_gain}"
            )
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
        elif n_steps and limb.command_latency > 0 and _lag_steps(limb, scenario.dt) == 0:
            errors.append(
                f"{prefix}.command_latency: must be 0 or delay by at least one step, "
                f"got {limb.command_latency}, which rounds to 0 steps of dt {scenario.dt}"
            )
        for corner in ("lower", "upper"):
            errors += _coordinate_errors(
                f"{prefix}.workspace.{corner}", getattr(limb.workspace, corner)[None]
            )
        if limb.name in initial and not limb.workspace.contains(initial[limb.name]):
            errors.append(f"{prefix}.workspace: initial pose outside workspace")
    if tuple(names) != scenario.initial.names:
        errors.append(
            f"initial: pose names {scenario.initial.names} do not match limbs {tuple(names)}"
        )
    errors += _coordinate_errors("initial[{}].v", scenario.initial.translations())
    k = scenario.metric.norm_order
    if not (math.isinf(k) or k <= _MAX_NORM_ORDER):
        errors.append(f"metric.norm_order: must be inf or at most {_MAX_NORM_ORDER:g}, got {k}")
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
        for i, waypoint in enumerate(scenario.program.path.waypoints):
            errors += _coordinate_errors(
                f"program.waypoints[{i}][{{}}].v", waypoint.translations()
            )
    elif isinstance(scenario.program, SpeedProgram):
        if not scenario.program.schedule:
            errors.append("program.schedule: must not be empty")
        elif scenario.program.schedule[-1][0] < scenario.horizon:
            errors.append(
                f"program.schedule: last entry ends at "
                f"{scenario.program.schedule[-1][0]} before horizon {scenario.horizon}"
            )
        for i, (until, vel) in enumerate(scenario.program.schedule):
            if not math.isfinite(until):
                errors.append(f"program.schedule[{i}].until: must be finite, got {until}")
            if vel.shape != (3,) or not np.isfinite(vel).all():
                errors.append(
                    f"program.schedule[{i}].velocity: must be a finite 3-vector, "
                    f"got {vel.tolist()}"
                )
            elif math.isfinite(scenario.horizon):
                # the furthest a velocity can carry the command in one run
                reach = [x * scenario.horizon for x in vel.tolist()]  # inf, not a warning
                errors += _coordinate_errors(
                    f"program.schedule[{i}].velocity x horizon", np.array([reach])
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
        elif n_steps and math.isfinite(d.start) and d.start >= 0 and d.duration > 0:
            # the run applies a fault only at the steps of _active_steps
            on, off = _active_steps(d, scenario.dt, n_steps)
            if on == off:
                errors.append(
                    f"{prefix}: interval [{d.start}, {d.start + d.duration}] "
                    f"holds no control step (dt {scenario.dt})"
                )
        if d.kind is DisturbanceKind.SLOWDOWN:
            if d.factor is None or not (0.0 < d.factor < 1.0):
                errors.append(f"{prefix}.factor: slowdown needs factor in (0,1), got {d.factor}")
        elif d.factor is not None:
            errors.append(f"{prefix}.factor: {d.kind.value} takes no factor")
        if d.kind in _OFFSET_KINDS:
            if d.offset is None or d.offset.shape != (3,) or not np.isfinite(d.offset).all():
                errors.append(f"{prefix}.offset: {d.kind.value} needs a finite 3-vector offset")
            else:
                errors += _coordinate_errors(f"{prefix}.offset", d.offset[None])
        elif d.offset is not None:
            errors.append(f"{prefix}.offset: {d.kind.value} takes no offset")
    return errors


# The ufunc that ndarray.clip calls through a Python wrapper. The plant test
# pins its bits against np.clip where a row lands on a zero bound.
_clip = np._core.umath.clip

_HOLD_KINDS = (DisturbanceKind.BLOCK, DisturbanceKind.FREEZE, DisturbanceKind.POWER_CYCLE)
_FREEZE_KINDS = (DisturbanceKind.FREEZE, DisturbanceKind.POWER_CYCLE)
_OFFSET_KINDS = (DisturbanceKind.DISPLACE, DisturbanceKind.POWER_CYCLE)


def limb_step(
    plant: tuple, v: np.ndarray, q: np.ndarray, command_v: np.ndarray, command_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every plant by dt toward its (already latency-delayed) command.

    ``v``, ``q`` are the plants' (n, 3) translations and (n, 4) quaternions,
    ``command_v``, ``command_q`` the command's; returns the new rows and
    writes none of these. ``plant`` is the ``_plant_constants`` of the
    limbs, the active faults and dt; ``run_scenario`` owns it and builds it
    afresh whenever a fault starts or ends. First-order pursuit: each limb's
    step covers a min(1, gain*dt) fraction of its remaining error, capped at
    max_ee_speed * dt (scaled by the slowdowns that target it), with the
    translation clipped to its workspace box. Blockage, freeze and power-off
    hold a limb's pose exactly, also when they hold every limb.
    """
    held, caps, fracs, frac_col, lower, upper = plant
    dv = command_v - v
    # The skipped multiply would be by 1.0 in every row, which changes no bit.
    if frac_col is not None:
        dv *= frac_col
    lengths = np.sqrt(_rowdot(dv, dv)).tolist()
    scale = [cap / length if length > cap else 1.0 for length, cap in zip(lengths, caps)]
    dv *= np.array(scale)[:, None]
    new_v = v + dv
    _clip(new_v, lower, upper, out=new_v)
    new_q = _slerp_rows(q, command_q, fracs)
    if held is not None:  # new_v, and new_q unless it is q, are fresh arrays
        np.copyto(new_v, v, where=held)
        if new_q is not q:
            np.copyto(new_q, q, where=held)
    return new_v, new_q


def _plant_constants(limbs: tuple[LimbModel, ...], active, dt: float) -> tuple:
    """What ``limb_step`` needs of the limbs, the faults ``active`` (any
    sequence) and dt: the held rows (an (n, 1) mask, None if none), the
    speed caps, the pursuit fractions (a list, and an (n, 1) column, None if
    every fraction is 1.0) and the workspace bounds."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    moving, caps = [], []
    for i, limb in enumerate(limbs):
        speed = limb.max_ee_speed
        for d in active:
            if not d.targets(limb.name):
                continue
            if d.kind in _HOLD_KINDS:
                break
            if d.kind is DisturbanceKind.SLOWDOWN:
                speed *= d.factor
        else:
            moving.append(i)
        caps.append(speed * dt)
    held = None
    if len(moving) < len(limbs):
        held = np.ones((len(limbs), 1), dtype=bool)
        held[moving] = False
    fracs = [min(1.0, limb.tracking_gain * dt) for limb in limbs]
    return (
        held,
        caps,
        fracs,
        None if fracs.count(1.0) == len(fracs) else np.array(fracs)[:, None],
        np.array([limb.workspace.lower for limb in limbs]),
        np.array([limb.workspace.upper for limb in limbs]),
    )


def run_scenario(scenario: Scenario) -> Trace:
    """Run the fixed-step loop and return its ``Trace``, one TraceRecord per
    step. The trace holds each chunk of ``_CHUNK_STEPS`` steps as column
    blocks and builds a record when one is read.

    Bit-for-bit deterministic: the schedule is fixed, plants and controller
    are pure float arithmetic, and no randomness is drawn at runtime.
    """
    errors = validate_scenario(scenario)
    if errors:
        raise ScenarioValidationError(errors)

    dt = scenario.dt
    n_steps = int(round(scenario.horizon / dt))
    limbs = scenario.limbs
    names = tuple(limb.name for limb in limbs)
    periods = [limb.sensor_period for limb in limbs]
    delayed = _DelayLine(limbs, scenario.initial, dt)
    metric, cfg = scenario.metric, scenario.clamp

    # The plant state as bare rows; ``sensed`` wraps rows of it.
    true_v, true_q = scenario.initial._v, scenario.initial._q
    sensed = scenario.initial
    next_sample = [0.0] * len(limbs)
    # A step's sensor refresh is a bitmask, bit j for limb j; ``every`` is
    # every limb's. One read-only (n, 1) row mask per partial refresh.
    every = (1 << len(limbs)) - 1
    masks: dict[int, np.ndarray] = {}

    faults = [(d, *_active_steps(d, dt, n_steps)) for d in scenario.disturbances]
    changes = {k for _, on, off in faults for k in (on, off)}
    # The plant constants change only when a fault starts or ends.
    plant = _plant_constants(limbs, (), dt)
    frozen = [False] * len(limbs)

    tracking = isinstance(scenario.program, PathProgram)
    if tracking:
        path, strategy = scenario.program.path, scenario.program.strategy
    ctrl = ControllerState.initial(scenario.initial)
    chunks: list[_Chunk] = []
    # (time, sensed, command, t, segment, mode, misses) of the steps not yet in a chunk
    steps: list[tuple] = []
    vel = speed = None

    for k in range(n_steps):
        now = k * dt

        if k in changes:
            # Faults that just ended: apply restore offsets, force a re-sample
            # so the sensed pose refreshes abruptly at the restore instant.
            for d, on, off in faults:
                if not on < off == k:
                    continue
                targeted = [j for j, limb in enumerate(limbs) if d.targets(limb.name)]
                if d.kind in _OFFSET_KINDS:
                    # Renormalised as Pose(v, q) renormalises its quaternion.
                    true_v = true_v.copy()
                    for j in targeted:
                        true_v[j] = limbs[j].workspace.clip(true_v[j] + d.offset)
                    true_q = true_q.copy()
                    true_q[targeted] = _unit_rows(true_q[targeted])
                if d.kind in _FREEZE_KINDS or d.kind in _OFFSET_KINDS:
                    for j in targeted:
                        next_sample[j] = now
            active = [d for d, on, off in faults if on <= k < off]
            plant = _plant_constants(limbs, active, dt)
            frozen = [
                any(d.kind in _FREEZE_KINDS and d.targets(limb.name) for d in active)
                for limb in limbs
            ]

        refresh = 0
        for j, period in enumerate(periods):
            if not frozen[j] and now >= next_sample[j] - _TIME_EPS:
                next_sample[j] = now + period
                refresh |= 1 << j
        if refresh == every:
            sensed = MultiPose._of_arrays(names, true_v, true_q)
        elif refresh:
            rows = masks.get(refresh)
            if rows is None:
                bits = [refresh >> j & 1 for j in range(len(limbs))]
                rows = masks[refresh] = np.array(bits, dtype=bool)[:, None]
                rows.setflags(write=False)
            v = sensed._v.copy()
            np.copyto(v, true_v, where=rows)
            q = sensed._q
            # Rotation-free plants hand the same quaternion array on.
            if q is not true_q:
                q = q.copy()
                np.copyto(q, true_q, where=rows)
            sensed = MultiPose._of_arrays(names, v, q)

        if tracking:
            ctrl, command = step_tracking(ctrl, sensed, path, metric, cfg, strategy)
        else:
            v = scenario.program.velocity_at(now)
            if v is not vel:
                vel, speed = v, SpeedInput(v)
            ctrl, command = step_speed(ctrl, sensed, speed, dt, metric, cfg)

        true_v, true_q = limb_step(plant, true_v, true_q, *delayed.push(command))

        steps.append(
            (now, sensed, command, ctrl.segment_t, ctrl.command_segment, ctrl.mode, ctrl.misses)
        )
        if len(steps) == _CHUNK_STEPS:
            chunks.append(_Chunk(steps, metric))
            steps = []
    if steps:
        chunks.append(_Chunk(steps, metric))
    return Trace(chunks)


def _active_steps(d: Disturbance, dt: float, n_steps: int) -> tuple[int, int]:
    """The steps k < n_steps at which ``d.active(k * dt)`` holds, as the run
    [on, off): one run, since k * dt only grows with k. A bound that no step
    reaches reads n_steps."""

    def first(x: float) -> int:  # the first step k with k * dt >= x
        return bisect.bisect_left(range(n_steps), x, key=lambda k: k * dt)

    return first(d.start), first(d.start + d.duration)


def _lag_steps(limb: LimbModel, dt: float) -> int:
    """The steps by which ``limb``'s commands are delayed."""
    return int(round(limb.command_latency / dt))


class _DelayLine:
    """The command each limb acts on: row i of the command issued lags[i]
    steps before the latest, or of the initial pose before the first.

    Keeps the last max(lags) + 1 commands in stacked (slot * n + row, 3)
    and (slot * n + row, 4) rings, prefilled with the initial pose, so each
    step gathers the delayed rows with one index per array.

    While every command in the ring has the same quaternion bytes, as on a
    rotation-free run, the quaternion ring is neither written nor gathered:
    each delayed row i is row i of that one pattern, so the gather would
    copy the latest command's quaternion array bit for bit, and ``push``
    hands on that array itself. The skipped slots all hold the pattern, so
    the first command with other bytes refills the ring with it first.
    """

    def __init__(self, limbs: tuple[LimbModel, ...], initial: MultiPose, dt: float):
        lags = np.array([_lag_steps(limb, dt) for limb in limbs])
        n = len(lags)
        size = int(lags.max()) + 1
        self._n = n
        self._size = size
        self._slot = -1
        self._v = np.concatenate([initial._v] * size)
        self._q = np.concatenate([initial._q] * size)
        # _gather[slot]: the ring rows to read when the latest command sits
        # in that slot
        self._gather = [((s - lags) % size) * n + np.arange(n) for s in range(size)]
        # A quaternion array with the latest command's bytes, those bytes, and
        # how many of the latest commands have them (the prefill counts as size)
        self._pattern = initial._q
        self._pattern_bytes = initial._q.tobytes()
        self._same = size

    def push(self, command: MultiPose) -> tuple[np.ndarray, np.ndarray]:
        """Record the command issued this step; return the delayed one's
        translation and quaternion rows."""
        if self._size == 1:
            return command._v, command._q
        slot = self._slot = (self._slot + 1) % self._size
        rows = slice(slot * self._n, (slot + 1) * self._n)
        self._v[rows] = command._v
        gather = self._gather[slot]
        # take copies the rows as indexing with ``gather`` would, at less cost
        v = self._v.take(gather, axis=0)
        q = command._q
        q_bytes = q.tobytes()
        if q_bytes != self._pattern_bytes:
            if self._same >= self._size:
                # Every slot holds the pattern, written or not.
                self._q.reshape(self._size, self._n, 4)[:] = self._pattern
            self._pattern, self._pattern_bytes, self._same = q, q_bytes, 0
        self._same += 1
        if self._same >= self._size:
            return v, q
        self._q[rows] = q
        return v, self._q.take(gather, axis=0)
