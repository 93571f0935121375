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
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .scenarios import (
    BUILTIN_SCENARIOS,
    apply_overrides,
    get_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .sim import (
    _MODES,
    Scenario,
    ScenarioValidationError,
    TraceRecord,
    _Chunk,
    _chunks,
    run_scenario,
)
from .verify import ALL_SUITES

SAFETY_TOLERANCE = 1e-9

CSV_HEADER = (
    "time,limb,sx,sy,sz,sqw,sqx,sqy,sqz,"
    "cx,cy,cz,cqw,cqx,cqy,cqz,dist,t,segment,mode"
)

_CSV_FIELDS = CSV_HEADER.split(",")


def _float_texts(chunk: _Chunk, to_text) -> tuple[list, list, list]:
    """The text of every float field of ``chunk``: the lists of its steps'
    time and t, and sx, ..., cqz and dist of its limb rows as 15 cells.

    A cell is the text of a column whose bits are the same on every row,
    else the list of the rows' texts. Times are formatted as they are, since
    no two steps share one. The rest are formatted once per distinct 64-bit
    pattern in the chunk: a trace has far fewer distinct values than float
    cells (the quaternions of a translation-only limb are constant, and held
    or frozen limbs repeat their values from step to step). The key is the
    bits, not the float, so that 0.0 and -0.0 stay apart. Nothing is kept
    from one chunk to the next.
    """
    blocks = (chunk.sensed_v, chunk.sensed_q, chunk.command_v, chunk.command_q)
    block = np.concatenate([*blocks, chunk.distances[:, :, None]], axis=2).reshape(-1, 15)
    bits = block.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    varying = bits[:, ~constant].T
    patterns, inverse = np.unique(
        np.concatenate([varying.ravel(), bits[0, constant], chunk.t.view(np.int64)]),
        return_inverse=True,
    )
    texts = np.array(list(map(to_text, patterns.view(np.float64).tolist())), dtype=object)[inverse]
    columns = iter(texts[: varying.size].reshape(varying.shape).tolist())
    firsts = iter(texts[varying.size : -len(chunk)].tolist())
    cells = [next(firsts) if same else next(columns) for same in constant.tolist()]
    times = list(map(to_text, chunk.time.tolist()))
    return times, texts[-len(chunk) :].tolist(), cells


def _rows(cells: list) -> str:
    """The rows of ``cells``, each the concatenation of its cells. A cell is
    the list of its rows' texts, or one str that every row shares (at least
    one cell is a list); a run of adjacent strs is joined once."""
    pieces = []
    for cell in cells:
        if isinstance(cell, str) and pieces and isinstance(pieces[-1], str):
            pieces[-1] += cell
        else:
            pieces.append(cell)
    columns = (itertools.repeat(p) if isinstance(p, str) else p for p in pieces)
    return "".join(map("".join, zip(*columns)))


def _write_trace(trace, path, head: str, keys: list[str], end: str, to_text, quote) -> None:
    """Write ``head``, then per limb per step each field's key in ``keys``
    followed by its value, and ``end``. Floats are formatted by ``to_text``,
    and the limb names, segment and mode by ``quote``."""
    segment_key, mode_key = keys[-2:]
    chunks = _chunks(trace)
    modes = [quote(mode) for mode in _MODES]
    with open(path, "w") as fh:
        fh.write(head)
        for chunk in chunks:
            times, ts, cells = _float_texts(chunk, to_text)
            limbs = range(len(chunk.names))
            tails = [
                f"{t_s}{segment_key}{quote(segment)}{mode_key}{modes[code]}{end}"
                for t_s, segment, code in zip(ts, chunk.segment.tolist(), chunk.mode.tolist())
            ]
            cells = [
                [s for s in times for _ in limbs],
                list(map(quote, chunk.names)) * len(chunk),
                *cells,
                [s for s in tails for _ in limbs],
            ]
            fh.write(_rows([piece for key, cell in zip(keys, cells) for piece in (key, cell)]))


# What comes before each field's value in a row, in CSV column order
_CSV_KEYS = [""] + [","] * (len(_CSV_FIELDS) - 1)
# '{"time": ', ', "limb": ', ...
_JSON_KEYS = ["{" + json.dumps(_CSV_FIELDS[0]) + ": "] + [
    ", " + json.dumps(k) + ": " for k in _CSV_FIELDS[1:]
]


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def write_trace_csv(trace: Sequence[TraceRecord], path: Path) -> None:
    _write_trace(trace, path, CSV_HEADER + "\n", _CSV_KEYS, "\n", repr, str)


def write_trace_jsonl(trace: Sequence[TraceRecord], path: Path) -> None:
    _write_trace(trace, path, "", _JSON_KEYS, "}\n", _json_float, json.dumps)


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
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, nested too deep
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


def _summarize(scenario: Scenario, trace: Sequence[TraceRecord], wall: float) -> tuple[str, bool]:
    chunks = _chunks(trace)
    names = chunks[0].names if chunks else ()
    peaks = np.zeros(len(names))
    for chunk in chunks:
        # np.maximum carries a NaN through: a NaN distance is its limb's
        # peak, and so breaks the invariant.
        peaks = np.maximum(peaks, chunk.distances.max(axis=0))
    # A recovery is entered at each step in the recovering mode that
    # follows one outside it, or that starts the run.
    recovering = np.concatenate([[False], *(c.mode == _MODES.index("recovering") for c in chunks)])
    recoveries = int((recovering[1:] > recovering[:-1]).sum())
    safe = bool((peaks <= 1.0 + SAFETY_TOLERANCE).all())

    lines = [
        f"scenario: {scenario.name}",
        f"steps: {len(trace)}  wall: {wall:.2f} s",
        "max normalized |command - sensed| per limb:",
    ]
    for name, peak in zip(names, peaks.tolist()):
        lines.append(f"  {name}: {peak:.6f}")
    lines.append(f"no-solution events: {chunks[-1].misses[-1] if chunks else 0}")
    lines.append(f"recoveries: {recoveries}")
    lines.append(
        "safety invariant: "
        + ("OK (all <= 1+1e-9)" if safe else "VIOLATED (some > 1+1e-9)")
    )
    return "\n".join(lines), safe


def _check_writable(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing raises (a
    directory, a missing parent, no permission); leave the file as it was."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cannot_write(option: str, path: str, exc: OSError) -> int:
    print(f"error: {option}: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        overrides = _parse_overrides(args.set or [])
        if overrides:
            scenario = apply_overrides(scenario, overrides)
    except (ScenarioValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        try:
            _check_writable(args.output)
        except OSError as exc:
            return _cannot_write("--output", args.output, exc)

    if args.dump_config:
        try:
            with open(args.dump_config, "w") as fh:
                json.dump(scenario_to_dict(scenario), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            return _cannot_write("--dump-config", args.dump_config, exc)
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
        try:
            if args.format == "csv":
                write_trace_csv(trace, out)
            else:
                write_trace_jsonl(trace, out)
        except OSError as exc:
            return _cannot_write("--output", args.output, exc)
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
