"""Determinism gate for the rotation path.

No builtin scenario rotates or stacks with the 2-norm, so their byte-identity
checks cannot see a drift in the rotation arithmetic. The benchmark's seeded
``rot_knorm_seeded`` workload does both (finite r_e, 2-norm, 37 faults); this
runs it once, untimed, against the committed reference trace of seed 7.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rotating_two_norm_trace_is_byte_identical_to_its_reference():
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "rot_knorm_seeded",
            "--seed", "7", "--seconds", "0", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line)["detail"] for line in lines if line.startswith('{"detail"'))
    result = json.loads(lines[-1])
    assert result["correct"], detail["checks"]
    assert "bytes identical" in detail["checks"]["rules"], detail["checks"]
