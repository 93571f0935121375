"""Command-line front end: run scenarios, export traces, verify oracles.

Traces are written one row per limb per step. CSV column order is fixed:

    time,limb,sx,sy,sz,sqw,sqx,sqy,sqz,cx,cy,cz,cqw,cqx,cqy,cqz,dist,t,segment,mode

The json-lines format carries the same field names, one object per row.
Exit codes: 0 success; 1 a verify suite failed, or stdout was closed
before everything was printed to it (``trajsync run ... | head -1``; the
trace file is still written in full); 2 scenario/config validation error;
3 safety invariant violated during the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np

from .scenarios import (
    BUILTIN_SCENARIOS,
    apply_overrides,
    get_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .sim import Scenario, ScenarioValidationError, TraceRecord, run_scenario
from .verify import ALL_SUITES

SAFETY_TOLERANCE = 1e-9

CSV_HEADER = (
    "time,limb,sx,sy,sz,sqw,sqx,sqy,sqz,"
    "cx,cy,cz,cqw,cqx,cqy,cqz,dist,t,segment,mode"
)

_CSV_FIELDS = CSV_HEADER.split(",")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return str(float(value))


# Each writer formats a distinct float once. A trace has far fewer distinct
# values than float cells (the quaternions of a translation-only limb are
# constant, and held or frozen limbs repeat their values from step to step),
# so the writers map each value's 64-bit pattern to its text through a memo.
# The key is the bits, not the float: a float key would merge 0.0 with -0.0
# and never find a NaN. The memo is cleared when it reaches this many
# entries (about 1 MB), so its size does not grow with the trace.
_MEMO_ENTRIES = 4096


class _FloatText(dict):
    """64-bit pattern of a float -> ``format(value)``, formatted on first use."""

    __slots__ = ("_format",)

    def __init__(self, to_text):
        super().__init__()
        self._format = to_text

    def __missing__(self, bits: int) -> str:
        if len(self) >= _MEMO_ENTRIES:
            self.clear()
        text = self[bits] = self._format(struct.unpack("d", struct.pack("q", bits))[0])
        return text


def _record_bits(record: TraceRecord) -> list[list[int]]:
    """The 64-bit patterns of sx, ..., cqz, dist, one list per limb of one record."""
    sensed, command = record.sensed, record.command
    block = np.concatenate(
        (
            sensed.translations(),
            sensed.quaternions(),
            command.translations(),
            command.quaternions(),
            np.array(record.distances)[:, None],
        ),
        axis=1,
        dtype=np.float64,
    )
    return block.view(np.int64).tolist()


def write_trace_csv(trace: list[TraceRecord], path: Path) -> None:
    text = _FloatText(repr).__getitem__
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in trace:
            head = _fmt(record.time) + ","
            tail = f",{_fmt(record.t)},{_fmt(record.segment)},{_fmt(record.mode)}\n"
            fh.write("".join(
                head + name + "," + ",".join(map(text, bits)) + tail
                for name, bits in zip(record.sensed.names, _record_bits(record))
            ))


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _json_value(value) -> str:
    """A trace field as ``json.dumps`` writes it, anything but a str or an
    int as a float."""
    if isinstance(value, (str, int)):
        return json.dumps(value)
    return _json_float(float(value))


# One json-lines row, its fields in CSV column order.
_JSON_ROW = "{{" + ", ".join(f"{json.dumps(k)}: {{}}" for k in _CSV_FIELDS) + "}}\n"


def write_trace_jsonl(trace: list[TraceRecord], path: Path) -> None:
    text = _FloatText(_json_float).__getitem__
    with open(path, "w") as fh:
        for record in trace:
            time_s, t_s, segment_s, mode_s = map(
                _json_value, (record.time, record.t, record.segment, record.mode)
            )
            for name, bits in zip(record.sensed.names, _record_bits(record)):
                fh.write(_JSON_ROW.format(
                    time_s, _json_value(name), *map(text, bits), t_s, segment_s, mode_s
                ))


def load_scenario(ref: str) -> Scenario:
    """Resolve a builtin name or a JSON config file path."""
    if ref in BUILTIN_SCENARIOS:
        return get_scenario(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioValidationError(
            [f"scenario: {ref!r} is not a builtin "
             f"({', '.join(BUILTIN_SCENARIOS)}) and no such file exists"]
        )
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"config {ref}: {exc}"]) from exc
    except OSError as exc:  # a directory, an unreadable file
        raise ScenarioValidationError([f"scenario: cannot read {ref!r}: {exc.strerror}"]) from exc
    return scenario_from_dict(data)


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioValidationError(
                [f"--set {pair!r}: expected key=value"]
            )
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _summarize(scenario: Scenario, trace: list[TraceRecord], wall: float) -> tuple[str, bool]:
    names = trace[0].sensed.names if trace else ()
    max_dev = {name: 0.0 for name in names}
    for record in trace:
        for i, name in enumerate(names):
            if record.distances[i] > max_dev[name]:
                max_dev[name] = record.distances[i]
    waiting_steps = sum(1 for r in trace if r.mode == "waiting")
    recoveries = sum(
        1
        for prev, cur in zip(trace, trace[1:])
        if prev.mode != "recovering" and cur.mode == "recovering"
    )
    if trace and trace[0].mode == "recovering":
        recoveries += 1
    no_solution_events = waiting_steps + recoveries
    safe = all(max(r.distances) <= 1.0 + SAFETY_TOLERANCE for r in trace)

    lines = [
        f"scenario: {scenario.name}",
        f"steps: {len(trace)}  wall: {wall:.2f} s",
        "max normalized |command - sensed| per limb:",
    ]
    for name in names:
        lines.append(f"  {name}: {max_dev[name]:.6f}")
    lines.append(f"no-solution events: {no_solution_events}")
    lines.append(f"recoveries: {recoveries}")
    lines.append(
        "safety invariant: "
        + ("OK (all <= 1+1e-9)" if safe else "VIOLATED (some > 1+1e-9)")
    )
    return "\n".join(lines), safe


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        overrides = _parse_overrides(args.set or [])
        if overrides:
            scenario = apply_overrides(scenario, overrides)
    except (ScenarioValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dump_config:
        with open(args.dump_config, "w") as fh:
            json.dump(scenario_to_dict(scenario), fh, indent=2)
            fh.write("\n")
        print(f"config written to {args.dump_config}")

    t0 = time.perf_counter()
    try:
        trace = run_scenario(scenario)
    except ScenarioValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0

    if args.output:
        out = Path(args.output)
        if args.format == "csv":
            write_trace_csv(trace, out)
        else:
            write_trace_jsonl(trace, out)
        print(f"trace written to {out} ({len(trace)} steps, format {args.format})")

    summary, safe = _summarize(scenario, trace, wall)
    print(summary)
    return 0 if safe else 3


def cmd_list_scenarios(_args: argparse.Namespace) -> int:
    for name in BUILTIN_SCENARIOS:
        scenario = get_scenario(name)
        kind = type(scenario.program).__name__
        print(
            f"{name}: {len(scenario.limbs)} limb(s), {kind}, "
            f"dt={scenario.dt} s, horizon={scenario.horizon} s, "
            f"{len(scenario.disturbances)} disturbance(s)"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        suites = list(ALL_SUITES)
    else:
        suites = [args.suite]
    all_passed = True
    for name in suites:
        result = ALL_SUITES[name]()
        print(result.line())
        all_passed = all_passed and result.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajsync",
        description="Synchronized multi-limb trajectory clamping: scenario "
        "runner and oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and export its trace")
    p_run.add_argument(
        "--scenario",
        required=True,
        help="builtin scenario name or path to a JSON config file",
    )
    p_run.add_argument("--output", help="trace output path")
    p_run.add_argument(
        "--format",
        choices=("csv", "json-lines"),
        default="csv",
        help="trace file format (default csv)",
    )
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario parameter "
        "(dt, p_e, r_e [degrees, 'inf' allowed], step_distance, horizon)",
    )
    p_run.add_argument(
        "--dump-config",
        metavar="PATH",
        help="write the resolved scenario (overrides applied) as a JSON config",
    )
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list-scenarios", help="list builtin scenarios")
    p_list.set_defaults(func=cmd_list_scenarios)

    p_verify = sub.add_parser(
        "verify", help="run the brute-force oracle and property suites"
    )
    p_verify.add_argument(
        "--suite",
        choices=("all",) + tuple(ALL_SUITES),
        default="all",
        help="which suite to run (default all)",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. Point stdout at devnull, so that
        # the interpreter's flush at exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
