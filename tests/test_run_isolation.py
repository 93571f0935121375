"""Runs share no state: interleaved runs give what each run gives alone."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from trajsync.cli import write_trace_csv
from trajsync.controller import ControllerState, Mode, PathSpec, step_tracking
from trajsync.metric_core import ClampConfig
from trajsync.multi_ee import MultiMetricParams, MultiPose, _translated
from trajsync.scenarios import get_scenario
from trajsync.se3 import Pose, Se3MetricParams, quat_from_axis_angle
from trajsync.sim import run_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_scenario_runs_in_one_process_equal_solo_runs(tmp_path):
    solo = {}
    for name in ("power_loss", "robustness_mix"):
        out = tmp_path / f"solo_{name}.csv"
        subprocess.run(
            [sys.executable, "-m", "trajsync", "run", "--scenario", name, "--output", str(out)],
            check=True, capture_output=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        solo[name] = out.read_bytes()
    for i, name in enumerate(("power_loss", "robustness_mix", "power_loss")):
        out = tmp_path / f"{i}_{name}.csv"
        write_trace_csv(run_scenario(get_scenario(name)), out)
        assert out.read_bytes() == solo[name], name


def _turned(x, y, angle):
    return Pose(np.array([x, y, 0.0]), quat_from_axis_angle([0.0, 0.0, 1.0], angle))


def _line_run():
    """One limb along a line, knocked 60 mm sideways at step 12: it enters
    RETURN_TO_LAST_VALID recovery and comes back."""
    path = PathSpec(tuple(MultiPose(("arm",), (_turned(x, 0.0, 0.0),)) for x in (0.0, 100.0)))
    return path, MultiMetricParams.uniform(1, p_e=10.0), ClampConfig(enforce_monotonic_t=True), 12


def _turning_run():
    """Two limbs that turn along a looping path, under a 2-norm."""
    path = PathSpec(
        tuple(
            MultiPose(("a", "b"), poses)
            for poses in (
                (_turned(0.0, 0.0, 0.0), _turned(0.0, 50.0, 0.2)),
                (_turned(40.0, 0.0, 0.6), _turned(40.0, 50.0, 0.2)),
                (_turned(0.0, 30.0, 0.0), _turned(-30.0, 50.0, 1.0)),
            )
        ),
        loop=True,
    )
    metric = MultiMetricParams((Se3MetricParams(9.0, 0.5), Se3MetricParams(5.0)), norm_order=2.0)
    return path, metric, ClampConfig(step_distance=0.3, enforce_monotonic_t=True), None


def _steps(path, metric, cfg, knocked_at, n_steps=40):
    """Each step's mode and command bytes; the sensed state is the last
    command, knocked sideways at step ``knocked_at``."""
    state = ControllerState.initial(path.waypoints[0])
    sensed = path.waypoints[0]
    for k in range(n_steps):
        if k == knocked_at:
            sensed = _translated(sensed, np.array([0.0, 60.0, 0.0]))
        state, command = step_tracking(state, sensed, path, metric, cfg)
        yield state.mode, command.translations().tobytes() + command.quaternions().tobytes()
        sensed = command


def test_controller_runs_stepped_alternately_equal_solo_runs():
    alone = [list(_steps(*run())) for run in (_line_run, _turning_run)]
    assert Mode.RECOVERING in [mode for mode, _ in alone[0]]
    assert alone[0] != alone[1]
    together = list(zip(_steps(*_line_run()), _steps(*_turning_run())))
    assert [a for a, _ in together] == alone[0]
    assert [b for _, b in together] == alone[1]
