"""The command-line interface: trace export formats, config handling and
exit codes."""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trajsync.cli as cli
from trajsync.cli import CSV_HEADER, main
from trajsync.multi_ee import MultiPose
from trajsync.scenarios import get_scenario, scenario_to_dict
from trajsync.se3 import Pose
from trajsync.sim import _CHUNK_STEPS, RecoveryStrategy, TraceRecord, run_scenario

ROOT = Path(__file__).resolve().parent.parent

# The steps of a trace chunk, which the writers follow
_CHUNK = _CHUNK_STEPS

# small but real run: single limb climbing for 2 simulated seconds
FAST = ["--set", "horizon=2", "--set", "dt=0.1"]
# 20 steps of nominal_square at its own dt, 0.02 s: at dt 0.1 its command
# latencies of 0.02 and 0.04 s would round to no step, which a run rejects
SQUARE_FAST = ["--set", "horizon=0.4"]


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
    run_cli("run", "--scenario", "nominal_square", *SQUARE_FAST, "--output", str(out))
    lines = read_lines(out)
    # 0.4 s at dt=0.02 is 20 steps; six limbs
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


# sha256 of each builtin's CSV and json-lines traces
BUILTIN_CSV_SHA256 = {
    "out_of_range": "865324924eae583cec4cc8a582f9338915d97c5ea2c6ef02eeec85bd19bcfad7",
    "nominal_square": "2f470232c10fccaf1ad6bd6342e102e9c8e639b5a7c0aa30513ac3f7aebba99e",
    "power_loss": "dc25135e77dda6ffa9aa30f8d3f06224afd2cd0a6b38f579e5e47ddae3cde028",
    "robustness_mix": "cbed3e86f7e9ab3e4a37e0685386c07d4811e84f9d7a5c907f699cd88b166ded",
}
BUILTIN_JSONL_SHA256 = {
    "out_of_range": "57dcf8c3853e0e8215c41468e912db496c66b4305be538071439f5481b174da1",
    "nominal_square": "7beffdfd62637a78da601f9c87a076d2378323e3580b206b4219471ae5fb5286",
    "power_loss": "02d93db4a82ef9fb95b16118dbf75f256555fddae4055cfd869cb476627f4de7",
    "robustness_mix": "0107496faa63d005293f0afecf5aaff34a06fad8431e5f7edd039d895b2a73cf",
}


@functools.lru_cache(maxsize=None)
def builtin_trace(name):
    """One run of a builtin, shared by both formats' pins."""
    return run_scenario(get_scenario(name))


@pytest.mark.parametrize("name", BUILTIN_JSONL_SHA256)
def test_builtin_jsonl_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "trace.jsonl"
    cli.write_trace_jsonl(builtin_trace(name), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILTIN_JSONL_SHA256[name]


@pytest.mark.parametrize("name", BUILTIN_CSV_SHA256)
def test_builtin_csv_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "trace.csv"
    cli.write_trace_csv(builtin_trace(name), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILTIN_CSV_SHA256[name]


def _fields(record):
    """A record's fields as bytes and plain values, which compare equal
    between two records built from the same step."""
    arrays = (
        record.sensed.translations(), record.sensed.quaternions(),
        record.command.translations(), record.command.quaternions(),
        np.array(record.distances),
    )
    return (
        record.time, record.sensed.names, record.command.names, *(a.tobytes() for a in arrays),
        record.t, record.segment, record.mode, record.misses,
    )


@functools.lru_cache(maxsize=None)
def full_chunks_trace():
    """out_of_range cut to 256 steps: a run that ends with a full chunk."""
    trace = run_scenario(dataclasses.replace(get_scenario("out_of_range"), horizon=25.6))
    assert len(trace) == 2 * _CHUNK
    return trace


@pytest.mark.parametrize("name", [*BUILTIN_CSV_SHA256, "full_chunks"])
def test_trace_reads_as_the_list_of_its_records(tmp_path, name):
    trace = full_chunks_trace() if name == "full_chunks" else builtin_trace(name)
    records = list(trace)
    # the trace finds a step's chunk by division: every chunk but the last is full
    sizes = [len(chunk) for chunk in trace._chunks]
    assert sizes[:-1] == [_CHUNK] * (len(sizes) - 1) and 0 < sizes[-1] <= _CHUNK
    # both routes into the writers, the trace's chunks and a plain list, agree
    for write in (cli.write_trace_csv, cli.write_trace_jsonl):
        write(trace, tmp_path / "trace")
        write(records, tmp_path / "records")
        assert (tmp_path / "trace").read_bytes() == (tmp_path / "records").read_bytes()
    n = len(trace)
    assert n == len(records) == len(list(reversed(trace)))
    assert [_fields(r) for r in records] == [_fields(trace[i]) for i in range(n)]
    assert _fields(trace[-1]) == _fields(records[-1]) == _fields(trace[n - 1])
    assert _fields(trace[-n]) == _fields(records[0])
    for cut in (slice(5, 300), slice(-3, None), slice(None, None, -7), slice(n, n + 2)):
        assert [_fields(r) for r in trace[cut]] == [_fields(r) for r in records[cut]]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[index]
    # records are built on access
    assert trace[0] is not trace[0]
    # the blocks, and the records' views of them, are read-only
    for chunk in trace._chunks:
        for slot in chunk.__slots__[1:]:
            block = getattr(chunk, slot)
            assert not block.flags.writeable, slot
    with pytest.raises(ValueError):
        trace[0].sensed.translations()[0, 0] = 1.0


# sha256 of robustness_mix's (CSV, json-lines) traces under the two recovery
# strategies that no builtin runs: the detour of restart_to_f and the
# off-ball samples of nearest_sample, over a whole run
STRATEGY_SHA256 = {
    "nearest_sample": (
        "bf50322c65ccf199aac02547a91ddf58b280cfe9b1f571b1eb799e01b9670468",
        "bb7578917b8ed1ef7af2970a8d4efb1f42d5419e4f140742f3f6d3e8df291a5d",
    ),
    "restart_to_f": (
        "64e8e4e2e446221553f7850e911e7257263b896552a9f9abd3186c9f7a18b405",
        "b7834822bab154e3a9d9f183d330eece7d193886914df64824834ce7b3b445ce",
    ),
}


@pytest.mark.parametrize("strategy", STRATEGY_SHA256)
def test_strategy_trace_bytes_are_pinned(tmp_path, strategy):
    scenario = get_scenario("robustness_mix")
    program = dataclasses.replace(scenario.program, strategy=RecoveryStrategy(strategy))
    trace = run_scenario(dataclasses.replace(scenario, program=program))
    csv, jsonl = tmp_path / "trace.csv", tmp_path / "trace.jsonl"
    cli.write_trace_csv(trace, csv)
    cli.write_trace_jsonl(trace, jsonl)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, jsonl))
    assert digests == STRATEGY_SHA256[strategy]


def test_repeated_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("run", "--scenario", "nominal_square", *SQUARE_FAST, "--output", str(a))
    run_cli("run", "--scenario", "nominal_square", *SQUARE_FAST, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


# --- writers against a per-value reference -----------------------------------

def _reference_rows(trace):
    """(time, limb, sx, ..., cqz, dist, t, segment, mode) per limb per step,
    every float a Python float."""
    for r in trace:
        arrays = (
            r.sensed.translations(), r.sensed.quaternions(),
            r.command.translations(), r.command.quaternions(),
        )
        for i, name in enumerate(r.sensed.names):
            values = [float(x) for a in arrays for x in a[i]]
            yield (float(r.time), name, *values, float(r.distances[i]), float(r.t), r.segment, r.mode)


def reference_csv(trace) -> str:
    """The trace as CSV with every float formatted on its own by ``repr``."""
    lines = [CSV_HEADER]
    for row in _reference_rows(trace):
        lines.append(",".join(x if isinstance(x, str) else repr(x) for x in row))
    return "\n".join(lines) + "\n"


def reference_jsonl(trace) -> str:
    """The trace as json-lines, one ``json.dumps`` of a dict per row."""
    return "".join(
        json.dumps(dict(zip(CSV_HEADER.split(","), row))) + "\n"
        for row in _reference_rows(trace)
    )


def _record(k, sensed_v, command_v, distances):
    names = tuple(f"l{i}" for i in range(len(sensed_v)))
    q = np.tile([1.0, 0.0, 0.0, 0.0], (len(names), 1))
    return TraceRecord(
        time=0.1 * k,
        sensed=MultiPose._of_arrays(names, np.array(sensed_v, dtype=float), q.copy()),
        command=MultiPose._of_arrays(names, np.array(command_v, dtype=float), q.copy()),
        distances=tuple(distances), t=0.5, segment=k, mode="tracking",
    )


def signed_zero_trace():
    """0.0 and -0.0 in the same columns, NaN (of both signs) and +-inf."""
    nan, inf = float("nan"), float("inf")
    return [
        _record(0, [[0.0, -0.0, nan], [inf, -inf, 1.5]], [[-0.0, 0.0, 2.0], [nan, 0.0, -0.0]], (0.0, nan)),
        _record(1, [[-0.0, 0.0, -nan], [-inf, inf, 1.5]], [[0.0, -0.0, inf], [-nan, -0.0, 0.0]], (-0.0, inf)),
        _record(2, [[0.0, -0.0, nan], [inf, -inf, -1.5]], [[-0.0, 0.0, -inf], [nan, 0.0, -0.0]], (0.0, -0.0)),
    ]


def many_values_trace():
    """Thousands of distinct floats over seven chunks, and values that recur
    within and across chunks."""
    rng = np.random.default_rng(3)
    trace = []
    for k in range(800):
        fresh = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-300, 300, size=(3, 3))
        recurring = np.full((3, 3), float(k % 7)) - 0.5
        trace.append(_record(k, fresh, recurring, rng.random(3).tolist()))
    return trace


def chunked_trace(n_records, n_limbs):
    """Records that cross the writers' chunk boundaries. sx is 0.0 but for
    one -0.0; sy and the first limb's command quaternion are constant in the
    first chunk and vary in the next; the distances carry NaN and +-inf."""
    rng = np.random.default_rng(1000 * n_records + n_limbs)
    chunk = _CHUNK
    names = tuple(f"l{i}" for i in range(n_limbs))
    specials = [float("nan"), float("inf"), -float("inf"), -0.0]
    trace = []
    for k in range(n_records):
        sv = np.zeros((n_limbs, 3))
        sv[:, 1] = 2.5 if k < chunk else 0.25 * k
        sv[:, 2] = rng.normal(size=n_limbs)
        if k == n_records // 2:
            sv[-1, 0] = -0.0
        cq = np.tile([1.0, 0.0, 0.0, 0.0], (n_limbs, 1))
        if k >= chunk:
            cq[0] = [np.cos(1e-3 * k), np.sin(1e-3 * k), 0.0, 0.0]
        dists = rng.random(n_limbs)
        dists[k % n_limbs] = specials[k % len(specials)]
        trace.append(TraceRecord(
            time=0.02 * k,
            sensed=MultiPose._of_arrays(names, sv, np.tile([1.0, 0.0, 0.0, 0.0], (n_limbs, 1))),
            command=MultiPose._of_arrays(names, sv + rng.normal(size=(n_limbs, 3)), cq),
            distances=tuple(dists.tolist()), t=float(k // 3) / n_records, segment=k // 50,
            mode=("tracking", "waiting", "recovering")[k % 3],
        ))
    return trace


# (records, limbs): around the chunk boundaries for 1 and 6 limbs, and a
# chunk of 40 limbs, 5120 rows with thousands of distinct values per column
CHUNKED = {
    f"chunked_{m}x{n}": (m, n)
    for m in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
    for n in (1, 6)
}
CHUNKED[f"chunked_{_CHUNK}x40"] = (_CHUNK, 40)


@pytest.fixture(scope="module")
def power_loss_trace():
    return run_scenario(get_scenario("power_loss"))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("which", ["signed_zero", "many_values", "power_loss", *CHUNKED])
def test_writers_equal_the_per_value_reference(tmp_path, request, fmt, which):
    if which == "power_loss":
        trace = request.getfixturevalue("power_loss_trace")
    elif which in CHUNKED:
        trace = chunked_trace(*CHUNKED[which])
    else:
        trace = {"signed_zero": signed_zero_trace, "many_values": many_values_trace}[which]()
    out = tmp_path / f"trace.{fmt}"
    if fmt == "csv":
        cli.write_trace_csv(trace, out)
        expected = reference_csv(trace)
    else:
        cli.write_trace_jsonl(trace, out)
        expected = reference_jsonl(trace)
    got = out.read_text()
    if got != expected:
        pytest.fail(first_differing_line(got, expected))


def first_differing_line(got: str, want: str) -> str:
    """Where two texts first differ, as one line of report: pytest's own
    diff of two whole traces can run for minutes."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i} differs: {g!r} != {w!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


def test_limb_names_that_change_cut_the_chunks(tmp_path):
    # 130 records of two limbs, then 140 of three: each run of names is cut
    # into chunks of its own, counted from the run's first record
    rng = np.random.default_rng(5)
    runs = [
        [
            _record(k, rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), rng.random(n))
            for k in range(m)
        ]
        for m, n in ((130, 2), (140, 3))
    ]
    trace = runs[0] + runs[1]
    assert [len(chunk) for chunk in cli._chunks(trace)] == [_CHUNK, 2, _CHUNK, 12]
    for write, reference, head in (
        (cli.write_trace_csv, reference_csv, CSV_HEADER + "\n"),
        (cli.write_trace_jsonl, reference_jsonl, ""),
    ):
        write(trace, tmp_path / "whole")
        got = (tmp_path / "whole").read_text()
        apart = []
        for run in runs:
            write(run, tmp_path / "run")
            apart.append((tmp_path / "run").read_text().removeprefix(head))
        assert got == head + "".join(apart)
        expected = reference(trace)
        if got != expected:
            pytest.fail(first_differing_line(got, expected))


def test_each_chunk_formats_each_distinct_pattern_once():
    trace = signed_zero_trace() + many_values_trace()
    i = 0
    for block in cli._chunks(trace):
        chunk = trace[i : i + len(block)]
        formatted = []
        cli._float_texts(block, lambda x: formatted.append(x) or repr(x))
        cells = [
            a
            for r in chunk
            for a in (
                r.sensed.translations(), r.sensed.quaternions(),
                r.command.translations(), r.command.quaternions(), np.array(r.distances),
            )
        ]
        cells.append(np.array([r.t for r in chunk]))
        distinct = set(np.concatenate([a.ravel() for a in cells]).view(np.int64).tolist())
        times = np.array([r.time for r in chunk]).view(np.int64).tolist()
        # each distinct pattern once; times are formatted as they are
        assert Counter(np.array(formatted).view(np.int64).tolist()) == Counter(distinct) + Counter(times)
        if i == 0:
            specials = np.array([0.0, -0.0, float("nan"), -float("nan")]).view(np.int64).tolist()
            assert set(specials) <= distinct
        i += len(block)
    assert i == len(trace)


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


def test_a_config_without_clamp_runs_the_builtin_trace(tmp_path, capsys):
    # ClampConfig()'s monotonic floor is the one robustness_mix sets
    data = scenario_to_dict(get_scenario("robustness_mix"))
    del data["clamp"]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "trace.csv"
    assert run_cli("run", "--scenario", str(cfg), "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILTIN_CSV_SHA256["robustness_mix"]
    lines = capsys.readouterr().out.splitlines()
    assert "no-solution events: 17" in lines and "recoveries: 17" in lines


def test_overrides_change_the_resolved_config(tmp_path):
    cfg = tmp_path / "scenario.json"
    rc = run_cli(
        "run", "--scenario", "nominal_square", *SQUARE_FAST,
        "--set", "p_e=25", "--dump-config", str(cfg),
    )
    assert rc == 0
    data = json.loads(cfg.read_text())
    assert all(p["p_e"] == 25.0 for p in data["metric"]["per_ee"])


def test_unknown_scenario_exits_2(capsys):
    assert run_cli("run", "--scenario", "warp_drive") == 2
    assert "not a builtin" in capsys.readouterr().err


def test_bad_override_key_exits_2(capsys):
    assert run_cli("run", "--scenario", "out_of_range", "--set", "warp=9") == 2
    err = capsys.readouterr().err
    assert "warp" in err


@pytest.mark.parametrize("key,value", [
    ("dt", "abc"), ("p_e", "abc"), ("r_e", "nan"), ("step_distance", "0"),
])
def test_rejected_override_value_names_its_key(capsys, key, value):
    assert run_cli("run", "--scenario", "out_of_range", "--set", f"{key}={value}") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --set {key}: ")
    assert "Traceback" not in err


def test_malformed_override_exits_2(capsys):
    assert run_cli("run", "--scenario", "out_of_range", "--set", "dt") == 2


def test_overflowing_p_e_override_exits_2(capsys):
    # p_e^2 overflows to inf, which would read every distance as 0
    rc = run_cli("run", "--scenario", "nominal_square", "--set", "horizon=1", "--set", "p_e=1e308")
    assert rc == 2
    err = capsys.readouterr().err
    assert "p_e" in err and "Traceback" not in err


@pytest.mark.parametrize("option", ["--output", "--dump-config"])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_path_exits_2_before_the_run(tmp_path, monkeypatch, capsys, option, where):
    path = str(tmp_path if where == "directory" else tmp_path / "missing" / "out")

    def no_run(scenario):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert run_cli("run", "--scenario", "out_of_range", *FAST, option, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: cannot write {path!r}: ")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == []


def test_output_check_leaves_no_file_when_validation_fails(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli("run", "--scenario", "out_of_range", "--set", "dt=-1", "--output", str(out)) == 2
    assert not out.exists()


def test_invalid_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--scenario", str(bad)) == 2


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000], ids=["not_utf8", "nested_200000"]
)
def test_unreadable_config_exits_2_with_its_name(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run_cli("run", "--scenario", str(bad)) == 2
    err = capsys.readouterr().err
    assert f"error: config {bad}: " in err
    assert "Traceback" not in err


def test_fault_window_that_holds_no_control_step_exits_2(tmp_path, capsys):
    # at dt 0.02 the window [1.001, 1.006) holds no step, so the run would
    # never apply the fault
    cfg = tmp_path / "scenario.json"
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "nominal_square", "--set", "horizon=4", "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    data["disturbances"] = [
        {"kind": "displace", "target": "quad1", "start": 1.001, "duration": 0.005,
         "offset": [0.0, 0.0, -40.0]}
    ]
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert "disturbances[0]: interval" in err and "holds no control step" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_latency_that_rounds_to_no_step_exits_2(tmp_path, capsys):
    # at dt 0.02 a latency of 0.01 s is round(0.5) = 0 steps, so the run
    # would drop it
    cfg = tmp_path / "scenario.json"
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "nominal_square", "--set", "horizon=4", "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    data["limbs"][1]["command_latency"] = 0.01
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert "limbs[1].quad1.command_latency: must be 0 or delay by at least one step" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a,b", "a\nb", 'a"b', "a\rb"])
def test_limb_name_that_a_csv_row_cannot_hold_exits_2(tmp_path, capsys, name):
    cfg = tmp_path / "scenario.json"
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "out_of_range", "--set", "horizon=1", "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    data["limbs"][0]["name"] = data["initial"][0]["name"] = name
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert "limbs[0].name: must not contain" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_limb_named_like_the_every_limb_fault_target_exits_2(tmp_path, capsys):
    # A fault on "ALL" hits every limb, so a limb of that name would take
    # every other limb down with its own faults.
    cfg = tmp_path / "scenario.json"
    out = tmp_path / "trace.csv"
    run_cli("run", "--scenario", "power_loss", "--dump-config", str(cfg))
    cfg.write_text(cfg.read_text().replace('"quad1"', '"ALL"'))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert "limbs[1].name: 'ALL' is reserved" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_directory_as_scenario_exits_2(tmp_path, capsys):
    assert run_cli("run", "--scenario", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "scenario:" in err and str(tmp_path) in err
    assert "Traceback" not in err


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
        pytest.param(
            "out_of_range", ("program", "schedule", 0, "until"), float("nan"),
            "program.schedule[0].until", id="until_nan",
        ),
        pytest.param(
            "out_of_range", ("clamp",), {"step_distance": 1e-15, "max_samples": 1e10},
            "clamp.max_samples", id="max_samples_huge",
        ),
        # JSON's 1e400 loads as float("inf"), which int() cannot convert
        pytest.param(
            "out_of_range", ("clamp", "max_samples"), 1e400, "clamp.max_samples",
            id="max_samples_1e400",
        ),
        pytest.param(
            "out_of_range", ("clamp", "min_samples"), 1e400, "clamp.min_samples",
            id="min_samples_1e400",
        ),
        pytest.param("out_of_range", ("seed",), 1e400, "seed", id="seed_1e400"),
        pytest.param(
            "nominal_square", ("limbs", 0, "max_ee_speed"), float("inf"),
            "limbs[0].heavy.max_ee_speed", id="max_ee_speed_inf",
        ),
        pytest.param(
            "nominal_square", ("limbs", 0, "tracking_gain"), float("inf"),
            "limbs[0].heavy.tracking_gain", id="tracking_gain_inf",
        ),
        # 2e9 steps: rejected before the run, which would otherwise not end
        pytest.param("out_of_range", ("dt",), 1e-9, "horizon", id="steps_unbounded"),
        # 2e6 steps: over the bound of 10^6, which keeps the trace near 1 GB
        pytest.param("out_of_range", ("dt",), 1e-6, "horizon", id="steps_2e6"),
        pytest.param(
            "nominal_square", ("limbs", 0, "sensor_perod"), 0.1, "limbs[0].sensor_perod",
            id="unknown_limb_key",
        ),
        pytest.param(
            "nominal_square", ("clamp", "step_distnce"), 0.1, "clamp.step_distnce",
            id="unknown_clamp_key",
        ),
        pytest.param("nominal_square", ("horizn",), 2.0, "horizn", id="unknown_top_key"),
        pytest.param(
            "out_of_range", ("program", "type"), "spline", "program.type", id="unknown_program",
        ),
        pytest.param(
            "out_of_range", ("clamp", "enforce_monotonic_t"), "no",
            "clamp.enforce_monotonic_t", id="flag_as_string",
        ),
        pytest.param(
            "nominal_square", ("limbs", 0, "max_ee_speed"), "fast",
            "limbs[0].max_ee_speed", id="max_ee_speed_string",
        ),
        pytest.param("out_of_range", ("dt",), "0.1", "dt", id="quoted_number"),
        pytest.param("out_of_range", ("horizon",), True, "horizon", id="bool_for_number"),
        pytest.param("out_of_range", ("seed",), 2.5, "seed", id="seed_fraction"),
        pytest.param("out_of_range", ("clamp",), [1, 2], "clamp", id="clamp_as_list"),
        pytest.param(
            "nominal_square", ("limbs", 0, "workspace"), [1, 2], "limbs[0].workspace",
            id="workspace_as_list",
        ),
        pytest.param(
            "nominal_square", ("limbs", 0, "workspace", "lower"), [1, 2],
            "limbs[0].workspace.lower", id="workspace_2_vector",
        ),
        pytest.param(
            "nominal_square", ("initial", 1, "q"), [0, 0, 0, 0], "initial[1]", id="zero_quaternion",
        ),
        pytest.param("nominal_square", ("limbs", 0, "name"), [], "limbs[0].name", id="name_list"),
        pytest.param(
            "nominal_square", ("metric", "per_ee", 0, "p_e"), 1e-200, "metric.per_ee[0]",
            id="p_e_square_underflows",
        ),
        pytest.param(
            "nominal_square", ("metric", "per_ee", 2, "p_e"), 1e308, "metric.per_ee[2]",
            id="p_e_square_overflows",
        ),
        pytest.param(
            "out_of_range", ("metric", "per_ee", 0, "r_e"), 1e-309, "metric.per_ee[0]",
            id="r_e_reciprocal_overflows",
        ),
        pytest.param(
            "nominal_square", ("disturbances",),
            [{"kind": "displace", "target": "heavy", "start": 0.0, "duration": 0.5,
              "offset": [float("nan"), 0.0, 0.0]}],
            "disturbances[0].offset", id="offset_nan",
        ),
        pytest.param(
            "nominal_square", ("disturbances",),
            [{"kind": "block", "target": "heavy", "start": 0.0, "duration": 0.5, "factor": 0.5}],
            "disturbances[0].factor", id="block_factor",
        ),
        pytest.param(
            "nominal_square", ("disturbances",),
            [{"kind": "freeze", "target": "heavy", "start": 0.0, "duration": 0.5,
              "offset": [1.0, 0.0, 0.0]}],
            "disturbances[0].offset", id="freeze_offset",
        ),
        # every span reads inf under a k-norm of 1e308; spans stay finite up to k = 51
        pytest.param(
            "nominal_square", ("metric", "norm_order"), 1e308, "metric.norm_order",
            id="norm_order_1e308",
        ),
        pytest.param(
            "nominal_square", ("metric", "norm_order"), 52, "metric.norm_order",
            id="norm_order_52",
        ),
        # coordinates beyond +-1e150 mm square to inf
        pytest.param(
            "nominal_square", ("program", "waypoints", 2, 1, "v"), [0.0, 2e150, 0.0],
            "program.waypoints[2][1].v", id="waypoint_2e150",
        ),
        pytest.param(
            "nominal_square", ("initial", 1, "v"), [-1e151, 0.0, 0.0], "initial[1].v",
            id="initial_1e151",
        ),
        pytest.param(
            "out_of_range", ("limbs", 0, "workspace", "upper"), [1e151, 1e151, 1e151],
            "limbs[0].arm.workspace.upper", id="workspace_1e151",
        ),
        pytest.param(
            "nominal_square", ("disturbances",),
            [{"kind": "displace", "target": "heavy", "start": 0.0, "duration": 0.5,
              "offset": [0.0, 0.0, -1e160]}],
            "disturbances[0].offset", id="offset_1e160",
        ),
        # 1e150 mm/s over a 2 s horizon carries the command to 2e150 mm
        pytest.param(
            "out_of_range", ("program", "schedule", 0, "velocity"), [0.0, 0.0, 1e150],
            "program.schedule[0].velocity", id="velocity_x_horizon",
        ),
    ],
)
def test_invalid_scenario_content_exits_2(tmp_path, capsys, builtin, keys, value, field):
    # a 2 s horizon at the builtin's own dt: the base config runs, so the
    # exit 2 below comes from the one mutated field
    cfg = tmp_path / "scenario.json"
    rc = run_cli("run", "--scenario", builtin, "--set", "horizon=2", "--dump-config", str(cfg))
    assert rc == 0
    data = json.loads(cfg.read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg)) == 2
    err = capsys.readouterr().err
    if field is not None:
        assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "builtin,keys,value",
    [
        pytest.param(
            "nominal_square", ("program", "waypoints", 0, 0, "v"), [1e200, 0.0, 0.0],
            id="waypoint_1e200",
        ),
        pytest.param(
            "out_of_range", ("program", "schedule", 0, "velocity"), [0.0, 0.0, 1e308],
            id="velocity_1e308",
        ),
        pytest.param("nominal_square", ("clamp", "step_distance"), 1e-320, id="step_1e-320"),
    ],
)
def test_overflowing_span_ends_without_a_traceback(tmp_path, capsys, builtin, keys, value):
    # the segment span overflows to inf; its clamp takes max_samples
    cfg = tmp_path / "scenario.json"
    run_cli("run", "--scenario", builtin, "--set", "horizon=0.2", "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(cfg)) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_huge_initial_quaternion_runs_without_a_warning(tmp_path):
    # [1e200, 0, 0, 0] is the identity, though its sum of squares overflows
    cfg = tmp_path / "scenario.json"
    run_cli("run", "--scenario", "nominal_square", "--set", "horizon=0.2", "--dump-config", str(cfg))
    data = json.loads(cfg.read_text())
    data["initial"][0]["q"] = [1e200, 0.0, 0.0, 0.0]
    cfg.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "trajsync", "run", "--scenario", str(cfg)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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


def test_a_record_with_an_unknown_mode_is_refused(tmp_path):
    # The blocks keep each mode as a one-byte code of the three modes.
    record = dataclasses.replace(_record(0, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], (0.1,)), mode="paused")
    for write in (cli.write_trace_csv, cli.write_trace_jsonl):
        with pytest.raises(ValueError, match="'paused' is not one of"):
            write([record], tmp_path / "trace.out")


def test_nan_distance_in_any_limb_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN distance is a violation wherever it sits, and is its limb's peak
    q = np.array([1.0, 0.0, 0.0, 0.0])
    pose = Pose(np.zeros(3), q)
    sensed = MultiPose(("arm", "leg"), (pose, pose))
    fake = [
        TraceRecord(
            time=0.0, sensed=sensed, command=sensed,
            distances=(0.5, float("nan")), t=0.5, segment=0, mode="tracking",
        )
    ]
    monkeypatch.setattr(cli, "run_scenario", lambda scenario: fake)
    out = tmp_path / "trace.csv"
    rc = run_cli("run", "--scenario", "out_of_range", "--output", str(out))
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    assert "  arm: 0.500000" in lines
    assert "  leg: nan" in lines
    assert any(line.startswith("safety invariant: VIOLATED") for line in lines)
    assert len(read_lines(out)) == 3


def summary_of(records, tmp_path, monkeypatch, capsys, exit_code=0):
    """The summary lines of a run whose trace is ``records``."""
    monkeypatch.setattr(cli, "run_scenario", lambda scenario: records)
    out = tmp_path / "trace.csv"
    assert run_cli("run", "--scenario", "out_of_range", "--output", str(out)) == exit_code
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("first, last", [(120, 140), (_CHUNK, 140)])
def test_a_recovery_across_chunks_counts_once(tmp_path, monkeypatch, capsys, first, last):
    # 300 steps, three chunks; one recovering stretch over steps first..last
    records = [
        dataclasses.replace(
            _record(k, [[0.0, 0.0, 0.0]], [[0.5, 0.0, 0.0]], (0.5,)),
            mode="recovering" if first <= k <= last else "tracking",
        )
        for k in range(300)
    ]
    assert "recoveries: 1" in summary_of(records, tmp_path, monkeypatch, capsys)


def test_a_nan_distance_in_a_later_chunk_exits_3(tmp_path, monkeypatch, capsys):
    # finite peaks in the first chunk, the first NaN in the second
    distances = [(0.25 + 0.001 * k, 0.5) for k in range(200)]
    distances[150] = (0.1, float("nan"))
    records = [_record(k, [[0.0] * 3] * 2, [[0.1] * 3] * 2, d) for k, d in enumerate(distances)]
    lines = summary_of(records, tmp_path, monkeypatch, capsys, exit_code=3)
    assert "  l0: 0.449000" in lines
    assert "  l1: nan" in lines
    assert any(line.startswith("safety invariant: VIOLATED") for line in lines)


def test_summary_reports_per_limb_peaks(capsys):
    rc = run_cli("run", "--scenario", "out_of_range", *FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario: out_of_range" in out
    assert "arm:" in out
    assert "safety invariant: OK" in out


def _summary_counts(capsys, scenario_ref, exit_code=0):
    assert run_cli("run", "--scenario", scenario_ref) == exit_code
    lines = capsys.readouterr().out.splitlines()
    return (
        int(next(l for l in lines if l.startswith("no-solution events: ")).split()[-1]),
        int(next(l for l in lines if l.startswith("recoveries: ")).split()[-1]),
    )


@pytest.mark.parametrize(
    "name, events, recoveries",
    [("out_of_range", 0, 0), ("nominal_square", 0, 0), ("power_loss", 1, 1), ("robustness_mix", 17, 17)],
)
def test_builtin_summary_counts(capsys, name, events, recoveries):
    assert _summary_counts(capsys, name) == (events, recoveries)


@pytest.mark.parametrize(
    "strategy, events, exit_code", [("nearest_sample", 89, 3), ("restart_to_f", 17, 0)]
)
def test_summary_counts_misses_under_every_strategy(tmp_path, capsys, strategy, events, exit_code):
    # Neither strategy enters the recovering mode, so a count read off the
    # trace's modes reads 0; every miss the controller acted on counts. An
    # off-ball nearest sample violates the safety invariant: exit 3.
    cfg = tmp_path / "scenario.json"
    assert run_cli("run", "--scenario", "robustness_mix", "--dump-config", str(cfg)) == 0
    data = json.loads(cfg.read_text())
    data["program"]["strategy"] = strategy
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    assert _summary_counts(capsys, str(cfg), exit_code) == (events, 0)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, unbuffered):
    out = tmp_path / "trace.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trajsync", "run", "--scenario", "out_of_range", "--output", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
    expected = tmp_path / "expected.csv"
    cli.write_trace_csv(run_scenario(get_scenario("out_of_range")), expected)
    assert out.read_bytes() == expected.read_bytes()


# --- other subcommands -------------------------------------------------------

def test_list_scenarios_names_all_builtins(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out
    for name in ("out_of_range", "nominal_square", "power_loss", "robustness_mix"):
        assert name in out


def test_verify_runs_the_chosen_suites_and_exits_1_on_a_failure(monkeypatch, capsys):
    from trajsync.verify import SuiteResult

    ran = []

    def suite(name, passed):
        return lambda: ran.append(name) or SuiteResult(name, passed, "2 checks", 1.0)

    monkeypatch.setattr(cli, "ALL_SUITES", {"good": suite("good", True), "bad": suite("bad", False)})
    assert run_cli("verify") == 1
    assert capsys.readouterr().out == (
        "good: PASS (2 checks; 1.0 s)\nbad: FAIL (2 checks; 1.0 s)\n"
    )
    assert ran == ["good", "bad"]
    ran.clear()
    assert run_cli("verify", "--suite", "good") == 0
    assert capsys.readouterr().out == "good: PASS (2 checks; 1.0 s)\n"
    assert ran == ["good"]


def test_verify_parser_knows_the_suites():
    from trajsync.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["verify", "--suite", "slerp"])
    assert args.suite == "slerp"
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "nonsense"])
