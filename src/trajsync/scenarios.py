"""Builtin scenarios and the JSON config schema.

Four compiled-in scenarios cover the interesting regimes: a single arm
integrating a speed command into a workspace ceiling (`out_of_range`), six
heterogeneous limbs lapping a square in lockstep (`nominal_square`), the same
six with a mid-run power cycle of four limbs (`power_loss`), and a two-minute
fault barrage (`robustness_mix`).

Scenario configs round-trip through plain JSON: one table of the config's
objects drives both `scenario_to_dict` and `scenario_from_dict`.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .controller import PathSpec, RecoveryStrategy
from .metric_core import ClampConfig
from .multi_ee import MultiMetricParams, MultiPose, multi_pose
from .se3 import Pose, Se3MetricParams
from .sim import (
    Box,
    Disturbance,
    DisturbanceKind,
    LimbModel,
    PathProgram,
    Program,
    Scenario,
    ScenarioValidationError,
    SpeedProgram,
)

_GAIN = 50.0

# Square with a 200 mm diagonal, traced as a diamond in the x-y plane.
_SQUARE_CORNERS = (
    np.array([100.0, 0.0, 0.0]),
    np.array([0.0, 100.0, 0.0]),
    np.array([-100.0, 0.0, 0.0]),
    np.array([0.0, -100.0, 0.0]),
)

_IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


# name: (home x, y; max_ee_speed, sensor_period, command_latency)
_SIX_LIMBS = {
    "heavy": (0.0, 0.0, 60.0, 0.06, 0.04),
    "quad1": (400.0, 400.0, 400.0, 0.02, 0.02),
    "quad2": (-400.0, 400.0, 400.0, 0.02, 0.02),
    "quad3": (-400.0, -400.0, 400.0, 0.02, 0.02),
    "quad4": (400.0, -400.0, 400.0, 0.02, 0.02),
    "light": (800.0, 0.0, 600.0, 0.04, 0.0),
}


def _six_limbs() -> tuple[tuple[LimbModel, ...], dict[str, np.ndarray]]:
    homes = {name: np.array([x, y, 0.0]) for name, (x, y, *_) in _SIX_LIMBS.items()}
    limbs = tuple(
        LimbModel(name, speed, Box(homes[name] - 300.0, homes[name] + 300.0), _GAIN, period, latency)
        for name, (_, _, speed, period, latency) in _SIX_LIMBS.items()
    )
    return limbs, homes


def _square_path(homes: dict[str, np.ndarray]) -> tuple[PathSpec, MultiPose]:
    names = tuple(homes)
    waypoints = []
    for corner in _SQUARE_CORNERS:
        poses = tuple(Pose(homes[n] + corner, _IDENTITY_Q) for n in names)
        waypoints.append(MultiPose(names, poses))
    path = PathSpec(tuple(waypoints), loop=True)
    return path, waypoints[0]


def out_of_range() -> Scenario:
    """One arm climbing at 30 mm/s into a ceiling 550 mm up, then back down."""
    limb = LimbModel(
        name="arm",
        max_ee_speed=100.0,
        workspace=Box(np.array([-1000.0, -1000.0, -1000.0]), np.array([1000.0, 1000.0, 550.0])),
        tracking_gain=_GAIN,
    )
    initial = MultiPose(("arm",), (Pose(np.zeros(3), _IDENTITY_Q),))
    program = SpeedProgram(
        (
            (22.0, np.array([0.0, 0.0, 30.0])),
            (44.0, np.array([0.0, 0.0, -30.0])),
        )
    )
    metric = MultiMetricParams(
        (Se3MetricParams(p_e=50.0, r_e=math.radians(30.0)),)
    )
    return Scenario(
        name="out_of_range",
        limbs=(limb,),
        initial=initial,
        program=program,
        metric=metric,
        dt=0.1,
        horizon=44.0,
    )


def nominal_square() -> Scenario:
    """Six heterogeneous limbs lapping the square with no faults."""
    limbs, homes = _six_limbs()
    path, initial = _square_path(homes)
    metric = MultiMetricParams.uniform(len(limbs), p_e=20.0)
    return Scenario(
        name="nominal_square",
        limbs=limbs,
        initial=initial,
        program=PathProgram(path),
        metric=metric,
        dt=0.02,
        horizon=34.0,
    )


def power_loss() -> Scenario:
    """The square run with the four fast legs power-cycled mid-lap.

    Their sensors freeze for 2 s; on restore each reports a pose fallen
    40 mm, well outside the 20 mm ball, forcing a retrace-and-resume.
    """
    base = nominal_square()
    fall = np.array([0.0, 0.0, -40.0])
    disturbances = tuple(
        Disturbance(
            kind=DisturbanceKind.POWER_CYCLE,
            target=name,
            start=20.0,
            duration=2.0,
            offset=fall,
        )
        for name in ("quad1", "quad2", "quad3", "quad4")
    )
    return replace(base, name="power_loss", disturbances=disturbances)


# Fault barrage mix: 8 blockages, 2 slowdowns, 10 displacements, 7 power
# cycles, 1 plain freeze, 1 small within-ball nudge. 29 events total.
_MIX_KINDS = (
    "block", "displace", "power_cycle", "displace", "block", "power_cycle",
    "displace", "slowdown", "block", "displace", "power_cycle", "block",
    "displace", "freeze", "power_cycle", "displace", "block", "slowdown",
    "displace", "power_cycle", "block", "displace", "nudge", "block",
    "power_cycle", "displace", "block", "power_cycle", "displace",
)

_MIX_OFFSETS = (
    np.array([0.0, 0.0, -40.0]),
    np.array([30.0, 0.0, 15.0]),
    np.array([0.0, -35.0, 0.0]),
    np.array([-28.0, 28.0, 0.0]),
    np.array([0.0, 25.0, -25.0]),
)

# The small within-ball displacement.
_NUDGE = np.array([4.0, -4.0, 2.0])


def robustness_mix() -> Scenario:
    """Two minutes of the square run under 29 scheduled faults of all kinds."""
    base = nominal_square()
    names = tuple(limb.name for limb in base.limbs)
    disturbances = []
    slowdown_targets = iter(("heavy", "light"))
    for i, kind in enumerate(_MIX_KINDS):
        start = 6.0 + 3.6 * i
        target = names[i % len(names)]
        if kind == "slowdown":
            fault = Disturbance(
                DisturbanceKind.SLOWDOWN, next(slowdown_targets), start, 3.0, factor=0.3
            )
        elif kind in ("displace", "nudge"):
            offset = _MIX_OFFSETS[i % len(_MIX_OFFSETS)] if kind == "displace" else _NUDGE
            fault = Disturbance(DisturbanceKind.DISPLACE, target, start, 0.5, offset=offset)
        elif kind == "power_cycle":
            offset = _MIX_OFFSETS[(i + 2) % len(_MIX_OFFSETS)]
            fault = Disturbance(DisturbanceKind.POWER_CYCLE, target, start, 1.5, offset=offset)
        else:  # block or freeze
            fault = Disturbance(DisturbanceKind(kind), target, start, 1.5)
        disturbances.append(fault)
    return replace(
        base,
        name="robustness_mix",
        disturbances=tuple(disturbances),
        horizon=120.0,
    )


BUILTIN_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "out_of_range": out_of_range,
    "nominal_square": nominal_square,
    "power_loss": power_loss,
    "robustness_mix": robustness_mix,
}


def get_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; builtins: {', '.join(BUILTIN_SCENARIOS)}"
        ) from None


# --- JSON schema -----------------------------------------------------------
#
# One table per JSON object lists its keys in the order they are written,
# each with a kind. A kind reads a JSON value, checking its JSON type and
# length and naming the field path in a ScenarioValidationError, and writes
# the value back. An object is read as the keyword arguments of its
# constructor, so an absent optional key takes the dataclass's own default
# and a constructor's ValueError comes back with the object's path in front.
# Infinite reals are written as the strings "inf" / "-inf".


class _Kind(NamedTuple):
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]


def _error(path: str, message: Any) -> ScenarioValidationError:
    return ScenarioValidationError([f"{path or 'config'}: {message}"])


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _built(make: Callable, path: str, *args, **kwargs) -> Any:
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _error(path, exc) from None


def _typed(json_type: type, what: str) -> _Kind:
    def read(value, path):
        if type(value) is not json_type:
            raise _error(path, f"must be {what}, got {value!r:.60}")
        return value
    return _Kind(read, json_type)


def _read_real(value: Any, path: str) -> float:
    if type(value) in (int, float) or value in ("inf", "-inf"):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise _error(path, f'must be a number, "inf" or "-inf", got {value!r:.60}')


def _write_real(x: float) -> Any:
    return ("inf" if x > 0 else "-inf") if math.isinf(x) else float(x)


_REAL = _Kind(_read_real, _write_real)
_COUNT = _typed(int, "an integer")
_FLAG = _typed(bool, "true or false")
_TEXT = _typed(str, "a string")


def _list(item: _Kind, length: int | None = None) -> _Kind:
    def read(value, path):
        if type(value) is not list or length not in (None, len(value)):
            raise _error(path, f"must be a list of {length or 'values'}, got {value!r:.60}")
        return tuple(item.read(v, f"{path}[{i}]") for i, v in enumerate(value))
    return _Kind(read, lambda values: [item.write(v) for v in values])


def _vector(n: int) -> _Kind:
    reals = _list(_REAL, n)
    return _Kind(lambda value, path: np.array(reals.read(value, path)), reals.write)


def _enum(cls: type[enum.Enum]) -> _Kind:
    values = [member.value for member in cls]

    def read(value, path):
        if value not in values:
            raise _error(path, f"must be one of {values}, got {value!r:.60}")
        return cls(value)
    return _Kind(read, lambda member: member.value)


def _object(make: Callable, view: Callable | None = None, **table: _Kind) -> _Kind:
    """The kind of a JSON object read as ``make(**fields)``. ``view`` gives an
    object's values in table order (default: its attributes of those names);
    a None value is left out of the JSON."""
    params = inspect.signature(make).parameters
    required = [key for key in table if params[key].default is inspect.Parameter.empty]

    def read(value, path):
        if type(value) is not dict:
            raise _error(path, f"must be an object, got {value!r:.60}")
        for key in value:
            if key not in table:
                raise _error(_at(path, key), f"unknown key; known: {', '.join(table)}")
        for key in required:
            if key not in value:
                raise _error(_at(path, key), "missing")
        return _built(make, path, **{
            key: kind.read(value[key], _at(path, key))
            for key, kind in table.items() if key in value
        })

    def write(obj):
        values = view(obj) if view else [getattr(obj, key) for key in table]
        return {
            key: kind.write(v)
            for (key, kind), v in zip(table.items(), values) if v is not None
        }
    return _Kind(read, write)


# A pose list (a MultiPose) is a list of {"name", "v", "q"} entries.
_POSE_ENTRIES = _list(_object(
    lambda name, v, q: (name, Pose(v, q)),
    lambda entry: entry,
    name=_TEXT, v=_vector(3), q=_vector(4),
))
_POSES = _Kind(
    lambda value, path: _built(multi_pose, path, _POSE_ENTRIES.read(value, path)),
    lambda mp: _POSE_ENTRIES.write(zip(mp.names, mp.translations(), mp.quaternions())),
)

# The program is an object tagged by its "type".
_PROGRAMS = {
    "path": _object(
        lambda waypoints, loop=PathSpec.loop, strategy=PathProgram.strategy:
            PathProgram(PathSpec(waypoints, loop), strategy),
        lambda program: (program.path.loop, program.strategy, program.path.waypoints),
        loop=_FLAG, strategy=_enum(RecoveryStrategy), waypoints=_list(_POSES),
    ),
    "speed": _object(SpeedProgram, schedule=_list(_object(
        lambda until, velocity: (until, velocity),
        lambda entry: entry,
        until=_REAL, velocity=_vector(3),
    ))),
}


def _read_program(value: Any, path: str) -> Program:
    tag = value.get("type") if type(value) is dict else None
    if tag not in list(_PROGRAMS):
        raise _error(_at(path, "type"), f"must be one of {list(_PROGRAMS)}, got {tag!r:.60}")
    fields = {key: v for key, v in value.items() if key != "type"}
    return _PROGRAMS[tag].read(fields, path)


def _write_program(program: Program) -> dict:
    tag = "path" if isinstance(program, PathProgram) else "speed"
    return {"type": tag, **_PROGRAMS[tag].write(program)}


_SCENARIO = _object(
    Scenario,
    name=_TEXT,
    dt=_REAL,
    horizon=_REAL,
    seed=_COUNT,
    limbs=_list(_object(
        LimbModel,
        name=_TEXT,
        max_ee_speed=_REAL,
        workspace=_object(Box, lower=_vector(3), upper=_vector(3)),
        tracking_gain=_REAL,
        sensor_period=_REAL,
        command_latency=_REAL,
    )),
    initial=_POSES,
    program=_Kind(_read_program, _write_program),
    metric=_object(
        MultiMetricParams,
        norm_order=_REAL,
        per_ee=_list(_object(Se3MetricParams, p_e=_REAL, r_e=_REAL)),
    ),
    clamp=_object(
        ClampConfig,
        step_distance=_REAL,
        min_samples=_COUNT,
        max_samples=_COUNT,
        enforce_monotonic_t=_FLAG,
    ),
    disturbances=_list(_object(
        Disturbance,
        kind=_enum(DisturbanceKind),
        target=_TEXT,
        start=_REAL,
        duration=_REAL,
        factor=_REAL,
        offset=_vector(3),
    )),
)


def scenario_to_dict(scenario: Scenario) -> dict:
    return _SCENARIO.write(scenario)


def scenario_from_dict(data: Any) -> Scenario:
    """Read a scenario from JSON data, or raise a ScenarioValidationError
    naming the first malformed field."""
    return _SCENARIO.read(data, "")


def _per_ee(scenario: Scenario, **fields) -> Scenario:
    """``scenario`` with ``fields`` set in every limb's metric."""
    per_ee = tuple(replace(p, **fields) for p in scenario.metric.per_ee)
    return replace(scenario, metric=replace(scenario.metric, per_ee=per_ee))


# CLI override keys, each with how it sets its value on a scenario. p_e and
# r_e apply uniformly to every limb; r_e is given in degrees ("inf" allowed)
# to match how rotation tolerances are usually quoted, and stored internally
# in radians.
_OVERRIDES: dict[str, Callable[[Scenario, float], Scenario]] = {
    "dt": lambda sc, x: replace(sc, dt=x),
    "p_e": lambda sc, x: _per_ee(sc, p_e=x),
    "r_e": lambda sc, x: _per_ee(sc, r_e=x if math.isinf(x) else math.radians(x)),
    "step_distance": lambda sc, x: replace(sc, clamp=replace(sc.clamp, step_distance=x)),
    "horizon": lambda sc, x: replace(sc, horizon=x),
}
OVERRIDE_KEYS = tuple(_OVERRIDES)


def apply_overrides(scenario: Scenario, overrides: dict[str, str]) -> Scenario:
    """``scenario`` with each ``--set`` key set to its value; a ValueError
    names the key it rejects."""
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown override keys {sorted(unknown)}; valid: {list(OVERRIDE_KEYS)}"
        )
    out = scenario
    for key in OVERRIDE_KEYS:
        if key in overrides:
            try:
                out = _OVERRIDES[key](out, float(overrides[key]))
            except ValueError as exc:
                raise ValueError(f"--set {key}: {exc}") from None
    return out
