"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They run the benchmark's cheap modes so that an API change that breaks it
fails here, fast, instead of in a timed run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_mode_runs_every_workload_traced_and_untraced():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: PASS")


def test_determinism_gate_passes_on_all_builtins():
    proc = _run("--check-only")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": OK (") == 4


def test_result_line_names_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "speed_arm", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 440
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_exits_nonzero_without_a_result_when_sources_are_missing():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "speed_arm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
