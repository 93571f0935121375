"""Guards on the shape of the package that its tooling relies on."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_state_is_rebound_by_a_global_statement():
    # every constant of a step belongs to the run that owns it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "trajsync").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_traced_benchmark_names_every_step_layer():
    # The tracer wraps the step path's functions by name; a step that no
    # longer calls one of them would silently drop that layer's figures.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix_cli_csv", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    detail = next(line["detail"] for line in lines if "detail" in line)
    assert lines[-1]["correct"]
    layers = detail["per_layer_info"]["self_pct"]
    for name in (
        "cli.main",
        "sim.loop",
        "controller.step",
        "metric_core.sample_count",
        "kernels.coeff",
        "kernels.grid",
        "multi_ee.interp",
        "sim.plant",
        "controller.recovery",
        "cli.export",
    ):
        assert name in layers, name


def test_circular_arc_workload_reproduces_its_reference_bytes():
    # No builtin scenario has a limb on a circular rotation arc, so the
    # kernel's arc path is gated by this seeded workload's reference output.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rot_knorm_seeded", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert lines[-1]["correct"], proc.stdout


def test_oracle_workload_reproduces_its_reference_detail():
    # The oracle's scan is gated by the suite's detail line at seed 7: every
    # verdict and the largest grid-step gap must match the stored reference.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_verify", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    detail = next(line["detail"] for line in lines if "detail" in line)
    assert detail["checks"]["rules"] == ["suite seed 7: detail identical"], proc.stdout
    assert lines[-1]["correct"], proc.stdout


def test_readme_python_examples_run(capsys):
    # Every fenced python block of the README runs as written, each in a
    # namespace of its own.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
