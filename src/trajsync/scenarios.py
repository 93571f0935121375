"""Builtin scenarios and the JSON config schema.

Four compiled-in scenarios cover the interesting regimes: a single arm
integrating a speed command into a workspace ceiling (`out_of_range`), six
heterogeneous limbs lapping a square in lockstep (`nominal_square`), the same
six with a mid-run power cycle of four limbs (`power_loss`), and a two-minute
fault barrage (`robustness_mix`).

Scenario configs round-trip through plain JSON: `scenario_to_dict` /
`scenario_from_dict` define the schema, with non-finite reals encoded as the
strings "inf" / "-inf".
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from .controller import PathSpec, RecoveryStrategy
from .metric_core import ClampConfig
from .multi_ee import MultiMetricParams, MultiPose
from .se3 import Pose, Se3MetricParams
from .sim import (
    Box,
    Disturbance,
    DisturbanceKind,
    LimbModel,
    PathProgram,
    Scenario,
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


def _box_around(home: np.ndarray, half: float = 300.0) -> Box:
    return Box(home - half, home + half)


def _six_limbs() -> tuple[tuple[LimbModel, ...], dict[str, np.ndarray]]:
    homes = {
        "heavy": np.array([0.0, 0.0, 0.0]),
        "quad1": np.array([400.0, 400.0, 0.0]),
        "quad2": np.array([-400.0, 400.0, 0.0]),
        "quad3": np.array([-400.0, -400.0, 0.0]),
        "quad4": np.array([400.0, -400.0, 0.0]),
        "light": np.array([800.0, 0.0, 0.0]),
    }
    specs = {
        "heavy": (60.0, 0.06, 0.04),
        "quad1": (400.0, 0.02, 0.02),
        "quad2": (400.0, 0.02, 0.02),
        "quad3": (400.0, 0.02, 0.02),
        "quad4": (400.0, 0.02, 0.02),
        "light": (600.0, 0.04, 0.0),
    }
    limbs = tuple(
        LimbModel(
            name=name,
            max_ee_speed=specs[name][0],
            workspace=_box_around(homes[name]),
            tracking_gain=_GAIN,
            sensor_period=specs[name][1],
            command_latency=specs[name][2],
        )
        for name in homes
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
        clamp=ClampConfig(enforce_monotonic_t=True),
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
        clamp=ClampConfig(enforce_monotonic_t=True),
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


def robustness_mix() -> Scenario:
    """Two minutes of the square run under 29 scheduled faults of all kinds."""
    base = nominal_square()
    names = tuple(limb.name for limb in base.limbs)
    disturbances = []
    slowdown_targets = iter(("heavy", "light"))
    for i, kind in enumerate(_MIX_KINDS):
        start = 6.0 + 3.6 * i
        target = names[i % len(names)]
        if kind == "block":
            disturbances.append(
                Disturbance(DisturbanceKind.BLOCK, target, start, 1.5)
            )
        elif kind == "slowdown":
            disturbances.append(
                Disturbance(
                    DisturbanceKind.SLOWDOWN, next(slowdown_targets), start, 3.0, factor=0.3
                )
            )
        elif kind == "freeze":
            disturbances.append(
                Disturbance(DisturbanceKind.FREEZE, target, start, 1.5)
            )
        elif kind == "displace":
            offset = _MIX_OFFSETS[i % len(_MIX_OFFSETS)]
            disturbances.append(
                Disturbance(DisturbanceKind.DISPLACE, target, start, 0.5, offset=offset)
            )
        elif kind == "nudge":
            disturbances.append(
                Disturbance(
                    DisturbanceKind.DISPLACE, target, start, 0.5,
                    offset=np.array([4.0, -4.0, 2.0]),
                )
            )
        elif kind == "power_cycle":
            offset = _MIX_OFFSETS[(i + 2) % len(_MIX_OFFSETS)]
            disturbances.append(
                Disturbance(
                    DisturbanceKind.POWER_CYCLE, target, start, 1.5, offset=offset
                )
            )
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

def _real_out(x: float) -> Any:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _pose_out(name: str, pose: Pose) -> dict:
    return {
        "name": name,
        "v": [float(c) for c in pose.v],
        "q": [float(c) for c in pose.q],
    }


def _multipose_out(mp: MultiPose) -> list[dict]:
    return [_pose_out(n, p) for n, p in zip(mp.names, mp.poses)]


def _multipose_in(items: list[dict]) -> MultiPose:
    names = tuple(item["name"] for item in items)
    poses = tuple(
        Pose(np.array(item["v"], dtype=np.float64), np.array(item["q"], dtype=np.float64))
        for item in items
    )
    return MultiPose(names, poses)


def scenario_to_dict(scenario: Scenario) -> dict:
    if isinstance(scenario.program, PathProgram):
        program = {
            "type": "path",
            "loop": scenario.program.path.loop,
            "strategy": scenario.program.strategy.value,
            "waypoints": [_multipose_out(w) for w in scenario.program.path.waypoints],
        }
    else:
        program = {
            "type": "speed",
            "schedule": [
                {"until": float(until), "velocity": [float(c) for c in vel]}
                for until, vel in scenario.program.schedule
            ],
        }
    return {
        "name": scenario.name,
        "dt": float(scenario.dt),
        "horizon": float(scenario.horizon),
        "seed": int(scenario.seed),
        "limbs": [
            {
                "name": limb.name,
                "max_ee_speed": float(limb.max_ee_speed),
                "workspace": {
                    "lower": [float(c) for c in limb.workspace.lower],
                    "upper": [float(c) for c in limb.workspace.upper],
                },
                "tracking_gain": float(limb.tracking_gain),
                "sensor_period": float(limb.sensor_period),
                "command_latency": float(limb.command_latency),
            }
            for limb in scenario.limbs
        ],
        "initial": _multipose_out(scenario.initial),
        "program": program,
        "metric": {
            "norm_order": _real_out(scenario.metric.norm_order),
            "per_ee": [
                {"p_e": float(p.p_e), "r_e": _real_out(p.r_e)}
                for p in scenario.metric.per_ee
            ],
        },
        "clamp": {
            "step_distance": float(scenario.clamp.step_distance),
            "min_samples": int(scenario.clamp.min_samples),
            "max_samples": int(scenario.clamp.max_samples),
            "enforce_monotonic_t": bool(scenario.clamp.enforce_monotonic_t),
        },
        "disturbances": [
            {
                "kind": d.kind.value,
                "target": d.target,
                "start": float(d.start),
                "duration": float(d.duration),
                **({"factor": float(d.factor)} if d.factor is not None else {}),
                **({"offset": [float(c) for c in d.offset]} if d.offset is not None else {}),
            }
            for d in scenario.disturbances
        ],
    }


def _int_field(value: Any, path: str) -> int:
    """``value`` as an int, or a ValueError naming the field: JSON's 1e400
    loads as inf, which ``int`` cannot convert, and 2.5 is no count."""
    try:
        out = int(value)
    except (OverflowError, TypeError, ValueError):
        out = None
    if out is None or (isinstance(value, float) and out != value):
        raise ValueError(f"{path}: must be an integer, got {value!r}")
    return out


def scenario_from_dict(data: dict) -> Scenario:
    prog = data["program"]
    if prog["type"] == "path":
        waypoints = tuple(_multipose_in(w) for w in prog["waypoints"])
        program: Any = PathProgram(
            PathSpec(waypoints, loop=bool(prog.get("loop", False))),
            strategy=RecoveryStrategy(prog.get("strategy", "return_to_last_valid")),
        )
    elif prog["type"] == "speed":
        schedule = tuple(
            (float(e["until"]), np.array(e["velocity"], dtype=np.float64))
            for e in prog["schedule"]
        )
        program = SpeedProgram(schedule)
    else:
        raise ValueError(f"program.type: unknown {prog['type']!r}")
    limbs = tuple(
        LimbModel(
            name=entry["name"],
            max_ee_speed=float(entry["max_ee_speed"]),
            workspace=Box(
                np.array(entry["workspace"]["lower"], dtype=np.float64),
                np.array(entry["workspace"]["upper"], dtype=np.float64),
            ),
            tracking_gain=float(entry["tracking_gain"]),
            sensor_period=float(entry.get("sensor_period", 0.0)),
            command_latency=float(entry.get("command_latency", 0.0)),
        )
        for entry in data["limbs"]
    )
    metric = MultiMetricParams(
        per_ee=tuple(
            Se3MetricParams(p_e=float(p["p_e"]), r_e=float(p["r_e"]))
            for p in data["metric"]["per_ee"]
        ),
        norm_order=float(data["metric"]["norm_order"]),
    )
    clamp_data = data.get("clamp", {})
    clamp = ClampConfig(
        step_distance=float(clamp_data.get("step_distance", 0.01)),
        min_samples=_int_field(clamp_data.get("min_samples", 2), "clamp.min_samples"),
        max_samples=_int_field(clamp_data.get("max_samples", 1_000_000), "clamp.max_samples"),
        enforce_monotonic_t=bool(clamp_data.get("enforce_monotonic_t", False)),
    )
    disturbances = tuple(
        Disturbance(
            kind=DisturbanceKind(entry["kind"]),
            target=entry["target"],
            start=float(entry["start"]),
            duration=float(entry["duration"]),
            factor=float(entry["factor"]) if "factor" in entry else None,
            offset=np.array(entry["offset"], dtype=np.float64) if "offset" in entry else None,
        )
        for entry in data.get("disturbances", [])
    )
    return Scenario(
        name=str(data["name"]),
        limbs=limbs,
        initial=_multipose_in(data["initial"]),
        program=program,
        metric=metric,
        clamp=clamp,
        disturbances=disturbances,
        dt=float(data["dt"]),
        horizon=float(data["horizon"]),
        seed=_int_field(data.get("seed", 0), "seed"),
    )


# CLI override keys. p_e and r_e apply uniformly to every limb; r_e is given
# in degrees ("inf" allowed) to match how rotation tolerances are usually
# quoted, and stored internally in radians.
OVERRIDE_KEYS = ("dt", "p_e", "r_e", "step_distance", "horizon")


def apply_overrides(scenario: Scenario, overrides: dict[str, str]) -> Scenario:
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown override keys {sorted(unknown)}; valid: {list(OVERRIDE_KEYS)}"
        )
    out = scenario
    if "dt" in overrides:
        out = replace(out, dt=float(overrides["dt"]))
    if "horizon" in overrides:
        out = replace(out, horizon=float(overrides["horizon"]))
    if "step_distance" in overrides:
        out = replace(out, clamp=replace(out.clamp, step_distance=float(overrides["step_distance"])))
    if "p_e" in overrides or "r_e" in overrides:
        per_ee = []
        for p in out.metric.per_ee:
            p_e = float(overrides["p_e"]) if "p_e" in overrides else p.p_e
            if "r_e" in overrides:
                r_deg = float(overrides["r_e"])
                r_e = math.inf if math.isinf(r_deg) else math.radians(r_deg)
            else:
                r_e = p.r_e
            per_ee.append(Se3MetricParams(p_e=p_e, r_e=r_e))
        out = replace(out, metric=replace(out.metric, per_ee=tuple(per_ee)))
    return out
