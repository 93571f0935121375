"""The command-line interface: trace export formats, config handling and
exit codes."""

import json

import numpy as np
import pytest

import trajsync.cli as cli
from trajsync.cli import CSV_HEADER, main
from trajsync.multi_ee import MultiPose
from trajsync.se3 import Pose
from trajsync.sim import TraceRecord

# small but real run: single limb climbing for 2 simulated seconds
FAST = ["--set", "horizon=2", "--set", "dt=0.1"]


def run_cli(*argv):
    return main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


# --- trace formats -----------------------------------------------------------

def test_csv_header_is_the_documented_contract(tmp_path):
    out = tmp_path / "trace.csv"
    rc = run_cli("run", "--scenario", "out_of_range", *FAST, "--output", str(out))
    assert rc == 0
    lines = read_lines(out)
    assert lines[0] == (
        "time,limb,sx,sy,sz,sqw,sqx,sqy,sqz,"
        "cx,cy,cz,cqw,cqx,cqy,cqz,dist,t,segment,mode"
    )
    assert lines[0] == CSV_HEADER


def test_csv_has_one_row_per_limb_per_step(tmp_path):
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "nominal_square", *FAST, "--output", str(out))
    lines = read_lines(out)
    # 2 s at dt=0.1 is 20 steps; six limbs
    assert len(lines) == 1 + 20 * 6
    row = lines[1].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[1] == "heavy"
    assert row[-1] == "tracking"


def test_csv_cells_are_plain_readable_floats(tmp_path):
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "out_of_range", *FAST, "--output", str(out))
    body = out.read_text()
    assert "np.float64" not in body
    for line in read_lines(out)[1:]:
        cells = line.split(",")
        float(cells[0])  # time
        float(cells[16])  # dist
        int(cells[18])  # segment
        assert cells[19] in ("tracking", "recovering", "waiting")


def test_jsonl_rows_mirror_the_csv_columns(tmp_path):
    out = tmp_path / "trace.jsonl"
    rc = run_cli(
        "run", "--scenario", "out_of_range", *FAST,
        "--output", str(out), "--format", "json-lines",
    )
    assert rc == 0
    lines = read_lines(out)
    assert len(lines) == 20
    for line in lines:
        row = json.loads(line)
        assert list(row) == CSV_HEADER.split(",")


def test_repeated_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("run", "--scenario", "nominal_square", *FAST, "--output", str(a))
    run_cli("run", "--scenario", "nominal_square", *FAST, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


# --- config handling ---------------------------------------------------------

def test_dump_config_round_trips_byte_identically(tmp_path):
    cfg = tmp_path / "scenario.json"
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    rc = run_cli(
        "run", "--scenario", "out_of_range", *FAST,
        "--dump-config", str(cfg), "--output", str(first),
    )
    assert rc == 0
    data = json.loads(cfg.read_text())
    assert data["dt"] == 0.1
    assert data["horizon"] == 2.0
    rc = run_cli("run", "--scenario", str(cfg), "--output", str(second))
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_overrides_change_the_resolved_config(tmp_path):
    cfg = tmp_path / "scenario.json"
    run_cli(
        "run", "--scenario", "nominal_square", *FAST,
        "--set", "p_e=25", "--dump-config", str(cfg),
    )
    data = json.loads(cfg.read_text())
    assert all(p["p_e"] == 25.0 for p in data["metric"]["per_ee"])


def test_unknown_scenario_exits_2(capsys):
    assert run_cli("run", "--scenario", "warp_drive") == 2
    assert "not a builtin" in capsys.readouterr().err


def test_bad_override_key_exits_2(capsys):
    assert run_cli("run", "--scenario", "out_of_range", "--set", "warp=9") == 2
    err = capsys.readouterr().err
    assert "warp" in err


def test_malformed_override_exits_2(capsys):
    assert run_cli("run", "--scenario", "out_of_range", "--set", "dt") == 2


def test_invalid_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--scenario", str(bad)) == 2


NAN_FAULT = {"kind": "block", "target": "ALL", "start": float("nan"), "duration": 1.0}


@pytest.mark.parametrize(
    "builtin,keys,value,field",
    [
        pytest.param("out_of_range", ("dt",), -1.0, "dt", id="dt"),
        pytest.param("nominal_square", ("horizon",), "inf", "horizon", id="horizon_inf"),
        pytest.param(
            "nominal_square", ("limbs", 0, "sensor_period"), float("nan"),
            "limbs[0].heavy.sensor_period", id="sensor_period_nan",
        ),
        pytest.param(
            "nominal_square", ("limbs", 0, "command_latency"), 1e12,
            "limbs[0].heavy.command_latency", id="command_latency_huge",
        ),
        pytest.param(
            "nominal_square", ("limbs", 0, "command_latency"), "inf",
            "limbs[0].heavy.command_latency", id="command_latency_inf",
        ),
        pytest.param(
            "nominal_square", ("disturbances",), [NAN_FAULT],
            "disturbances[0].start", id="fault_start_nan",
        ),
        pytest.param(
            "out_of_range", ("program", "schedule", 0, "velocity"), [1, 2],
            "program.schedule[0].velocity", id="velocity_2_vector",
        ),
        pytest.param(
            "out_of_range", ("program", "schedule", 1, "velocity"), [0, 0, "inf"],
            "program.schedule[1].velocity", id="velocity_inf",
        ),
    ],
)
def test_invalid_scenario_content_exits_2(tmp_path, capsys, builtin, keys, value, field):
    cfg = tmp_path / "scenario.json"
    run_cli("run", "--scenario", builtin, *FAST, "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg)) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_safety_violation_exits_3(tmp_path, monkeypatch, capsys):
    # the controller never emits an unsafe command, so fabricate a trace with
    # one out-of-ball step to prove the exit-code plumbing
    q = np.array([1.0, 0.0, 0.0, 0.0])
    sensed = MultiPose(("arm",), (Pose(np.zeros(3), q),))
    command = MultiPose(("arm",), (Pose(np.array([99.0, 0.0, 0.0]), q),))
    fake = [
        TraceRecord(
            time=0.0, sensed=sensed, command=command,
            distances=(9.9,), t=0.5, segment=0, mode="tracking",
        )
    ]
    monkeypatch.setattr(cli, "run_scenario", lambda scenario: fake)
    out = tmp_path / "trace.csv"
    rc = run_cli("run", "--scenario", "out_of_range", "--output", str(out))
    assert rc == 3
    assert "VIOLATED" in capsys.readouterr().out
    assert len(read_lines(out)) == 2  # trace still written for post-mortem


def test_summary_reports_per_limb_peaks(capsys):
    rc = run_cli("run", "--scenario", "out_of_range", *FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario: out_of_range" in out
    assert "arm:" in out
    assert "safety invariant: OK" in out


# --- other subcommands -------------------------------------------------------

def test_list_scenarios_names_all_builtins(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out
    for name in ("out_of_range", "nominal_square", "power_loss", "robustness_mix"):
        assert name in out


def test_verify_parser_knows_the_suites():
    from trajsync.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["verify", "--suite", "slerp"])
    assert args.suite == "slerp"
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "nonsense"])
