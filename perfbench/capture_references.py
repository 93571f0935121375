#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/capture_references.py

Writes perfbench/references.json: the CSV trace fingerprint of every builtin
scenario, the JSON-lines fingerprint of ``rot_knorm_seeded`` and the oracle
suite's detail line, for the default and the held-out seed, plus the oracle's
anchor seed.

The references define correct behaviour. Re-capture them only on a commit
whose behaviour is accepted, never to make a changed trace pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run

run._import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from trajsync import cli, scenarios, verify  # noqa: E402


def _cli_trace(argv: list[str], out: Path, fmt: str) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--format", fmt, "--output", str(out)])
    if code != 0:
        raise SystemExit(f"trajsync {' '.join(argv)} exited {code}")
    return checks.fingerprint(out, fmt)


def _oracle(seed: int) -> dict:
    result = verify.run_clamp_oracle_suite(n_instances=workloads.ORACLE_INSTANCES, seed=seed)
    if not result.passed:
        raise SystemExit(f"oracle suite failed for seed {seed}: {result.detail}")
    print("oracle seed", seed, result.detail)
    return {"instances": workloads.ORACLE_INSTANCES, "detail": result.detail}


def main() -> int:
    workdir = run.TMP / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    refs: dict = {"builtins": {}, "rot_knorm_seeded": {}, "oracle_verify": {}}
    try:
        for name in scenarios.BUILTIN_SCENARIOS:
            refs["builtins"][name] = _cli_trace(
                ["run", "--scenario", name], workdir / f"{name}.csv", "csv"
            )
            print(name, refs["builtins"][name]["sha256"])
        for seed in seeds:
            w = workloads.RotKnormSeeded(seed, workdir)
            w.prepare()
            refs["rot_knorm_seeded"][str(seed)] = _cli_trace(
                ["run", "--scenario", str(w.config)], workdir / f"rot{seed}.jsonl", "json-lines"
            )
            print("rot_knorm_seeded", seed, refs["rot_knorm_seeded"][str(seed)]["sha256"])
        for seed in seeds + (workloads.ORACLE_ANCHOR_SEED,):
            refs["oracle_verify"][str(seed)] = _oracle(seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.TMP.rmdir()
        except OSError:
            pass
    with open(checks.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
