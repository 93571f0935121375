"""Builtin scenario registry, JSON round-tripping and CLI overrides."""

import json
import math

import numpy as np
import pytest

from trajsync.scenarios import (
    BUILTIN_SCENARIOS,
    OVERRIDE_KEYS,
    apply_overrides,
    get_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from trajsync.sim import PathProgram, SpeedProgram, validate_scenario

EXPECTED = {"out_of_range", "nominal_square", "power_loss", "robustness_mix"}


def test_registry_contains_the_four_builtins():
    assert set(BUILTIN_SCENARIOS) == EXPECTED


def test_every_builtin_validates_cleanly():
    for name in BUILTIN_SCENARIOS:
        assert validate_scenario(get_scenario(name)) == []


def test_unknown_scenario_raises_with_the_valid_names():
    with pytest.raises(KeyError) as exc:
        get_scenario("warp_drive")
    assert "nominal_square" in str(exc.value)


def test_builtin_scenarios_are_fresh_instances():
    a = get_scenario("nominal_square")
    b = get_scenario("nominal_square")
    assert a is not b


def test_robustness_mix_schedules_many_faults_of_every_kind():
    sc = get_scenario("robustness_mix")
    kinds = {d.kind.value for d in sc.disturbances}
    assert len(sc.disturbances) >= 20
    assert kinds == {"block", "slowdown", "freeze", "displace", "power_cycle"}
    # the schedule fits inside the horizon
    assert max(d.start + d.duration for d in sc.disturbances) <= sc.horizon


def _assert_scenarios_equal(a, b):
    assert a.name == b.name
    assert a.dt == b.dt
    assert a.horizon == b.horizon
    assert a.seed == b.seed
    assert len(a.limbs) == len(b.limbs)
    for la, lb in zip(a.limbs, b.limbs):
        assert la.name == lb.name
        assert la.max_ee_speed == lb.max_ee_speed
        assert la.tracking_gain == lb.tracking_gain
        assert la.sensor_period == lb.sensor_period
        assert la.command_latency == lb.command_latency
        assert np.array_equal(la.workspace.lower, lb.workspace.lower)
        assert np.array_equal(la.workspace.upper, lb.workspace.upper)
    assert a.initial.names == b.initial.names
    for pa, pb in zip(a.initial.poses, b.initial.poses):
        assert np.array_equal(pa.v, pb.v)
        assert np.array_equal(pa.q, pb.q)
    assert a.metric.norm_order == b.metric.norm_order
    assert a.metric.per_ee == b.metric.per_ee
    assert a.clamp == b.clamp
    assert len(a.disturbances) == len(b.disturbances)
    for da, db in zip(a.disturbances, b.disturbances):
        assert (da.kind, da.target, da.start, da.duration, da.factor) == (
            db.kind, db.target, db.start, db.duration, db.factor,
        )
        assert (da.offset is None) == (db.offset is None)
        if da.offset is not None:
            assert np.array_equal(da.offset, db.offset)
    assert type(a.program) is type(b.program)
    if isinstance(a.program, PathProgram):
        assert a.program.strategy == b.program.strategy
        assert a.program.path.loop == b.program.path.loop
        assert len(a.program.path.waypoints) == len(b.program.path.waypoints)
    else:
        assert len(a.program.schedule) == len(b.program.schedule)
        for (ua, va), (ub, vb) in zip(a.program.schedule, b.program.schedule):
            assert ua == ub
            assert np.array_equal(va, vb)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_dict_round_trip_preserves_every_builtin(name):
    sc = get_scenario(name)
    data = scenario_to_dict(sc)
    # the dict is plain JSON, including infinities encoded as strings
    redone = scenario_from_dict(json.loads(json.dumps(data)))
    _assert_scenarios_equal(sc, redone)


def test_infinite_allowances_survive_json():
    sc = get_scenario("nominal_square")
    data = scenario_to_dict(sc)
    assert data["metric"]["per_ee"][0]["r_e"] == "inf"
    assert data["metric"]["norm_order"] == "inf"
    redone = scenario_from_dict(json.loads(json.dumps(data)))
    assert math.isinf(redone.metric.per_ee[0].r_e)
    assert math.isinf(redone.metric.norm_order)


def test_a_config_without_clamp_keeps_the_monotonic_floor_on():
    # ClampConfig's default, the one the controller runs when given no cfg
    data = scenario_to_dict(get_scenario("robustness_mix"))
    assert data["clamp"]["enforce_monotonic_t"] is True
    del data["clamp"]
    assert scenario_from_dict(data).clamp.enforce_monotonic_t is True
    data["clamp"] = {"step_distance": 0.01}
    assert scenario_from_dict(data).clamp.enforce_monotonic_t is True


def test_apply_overrides_scalar_fields():
    sc = get_scenario("nominal_square")
    out = apply_overrides(sc, {"dt": "0.05", "horizon": "10", "step_distance": "0.02"})
    assert out.dt == 0.05
    assert out.horizon == 10.0
    assert out.clamp.step_distance == 0.02
    # untouched fields carry over
    assert out.clamp.enforce_monotonic_t == sc.clamp.enforce_monotonic_t


def test_apply_overrides_metric_in_degrees():
    sc = get_scenario("nominal_square")
    out = apply_overrides(sc, {"p_e": "25", "r_e": "30"})
    for p in out.metric.per_ee:
        assert p.p_e == 25.0
        assert p.r_e == pytest.approx(math.radians(30.0))
    out = apply_overrides(sc, {"r_e": "inf"})
    assert all(math.isinf(p.r_e) for p in out.metric.per_ee)


def test_apply_overrides_rejects_unknown_keys():
    sc = get_scenario("nominal_square")
    with pytest.raises(ValueError) as exc:
        apply_overrides(sc, {"gravity": "9.81"})
    assert "gravity" in str(exc.value)
    assert all(k in str(exc.value) for k in OVERRIDE_KEYS)


def test_apply_overrides_rejects_non_numeric_values():
    sc = get_scenario("nominal_square")
    with pytest.raises(ValueError):
        apply_overrides(sc, {"dt": "fast"})
