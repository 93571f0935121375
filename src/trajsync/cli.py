"""Command-line front end: run scenarios, export traces, verify oracles.

Traces are written one row per limb per step. CSV column order is fixed:

    time,limb,sx,sy,sz,sqw,sqx,sqy,sqz,cx,cy,cz,cqw,cqx,cqy,cqz,dist,t,segment,mode

The json-lines format carries the same field names, one object per row.
Exit codes: 0 success, 2 scenario/config validation error, 3 safety
invariant violated during the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

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


def _record_rows(record: TraceRecord):
    for i, name in enumerate(record.sensed.names):
        s = record.sensed.poses[i]
        c = record.command.poses[i]
        yield {
            "time": record.time,
            "limb": name,
            "sx": s.v[0], "sy": s.v[1], "sz": s.v[2],
            "sqw": s.q[0], "sqx": s.q[1], "sqy": s.q[2], "sqz": s.q[3],
            "cx": c.v[0], "cy": c.v[1], "cz": c.v[2],
            "cqw": c.q[0], "cqx": c.q[1], "cqy": c.q[2], "cqz": c.q[3],
            "dist": record.distances[i],
            "t": record.t,
            "segment": record.segment,
            "mode": record.mode,
        }


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return str(float(value))


def write_trace_csv(trace: list[TraceRecord], path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in trace:
            for row in _record_rows(record):
                fh.write(",".join(_fmt(row[k]) for k in _CSV_FIELDS) + "\n")


def write_trace_jsonl(trace: list[TraceRecord], path: Path) -> None:
    with open(path, "w") as fh:
        for record in trace:
            for row in _record_rows(record):
                clean = {
                    k: (v if isinstance(v, (str, int)) else float(v))
                    for k, v in row.items()
                }
                fh.write(json.dumps(clean) + "\n")


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
        return scenario_from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioValidationError([f"config {ref}: {exc}"]) from exc


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
