"""Output checks: trace fingerprints and the comparison with references.

A trace (the CSV or JSON-lines export of one run) matches its reference
when either

1. its bytes hash to the reference SHA-256 (rule ``bytes``), or
2. its ``time,limb,segment,mode,t`` columns are exactly the reference's and
   every numeric column's per-limb sum and maximum agree within 1e-9
   relative (rule ``columns``).

Rule 2 lets a refactor that moves the last bit of a float pass, while any
change of behaviour (a different mode, segment or t on any row) fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

EXACT_COLUMNS = ("time", "limb", "segment", "mode", "t")
NUMERIC_COLUMNS = (
    "sx", "sy", "sz", "sqw", "sqx", "sqy", "sqz",
    "cx", "cy", "cz", "cqw", "cqx", "cqy", "cqz", "dist",
)
REL_TOL = 1e-9
SAFETY_TOLERANCE = 1e-9

REFERENCES = Path(__file__).with_name("references.json")


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path: Path, fmt: str):
    with open(path, newline="") as fh:
        if fmt == "csv":
            yield from csv.DictReader(fh)
        else:
            for line in fh:
                yield json.loads(line)


def fingerprint(path: Path, fmt: str) -> dict:
    """Everything the reference check and the safety count need from a trace."""
    exact = hashlib.sha256()
    sums: dict[str, dict[str, list[float]]] = {}
    unsafe_times = set()
    rows = 0
    times = set()
    for row in _rows(path, fmt):
        rows += 1
        key = (
            repr(float(row["time"])), str(row["limb"]), str(int(row["segment"])),
            str(row["mode"]), repr(float(row["t"])),
        )
        exact.update((",".join(key) + "\n").encode())
        times.add(key[0])
        per_col = sums.setdefault(key[1], {c: [] for c in NUMERIC_COLUMNS})
        for c in NUMERIC_COLUMNS:
            per_col[c].append(float(row[c]))
        if float(row["dist"]) > 1.0 + SAFETY_TOLERANCE:
            unsafe_times.add(key[0])
    per_limb = {
        limb: {
            c: [math.fsum(v), math.fsum(abs(x) for x in v), max(v)]
            for c, v in cols.items()
        }
        for limb, cols in sums.items()
    }
    return {
        "sha256": file_sha256(path),
        "rows": rows,
        "steps": len(times),
        "unsafe_steps": len(unsafe_times),
        "exact_sha256": exact.hexdigest(),
        "per_limb": per_limb,
    }


def compare(fp: dict, ref: dict) -> tuple[str | None, str]:
    """Return (rule that held, explanation); the rule is None on mismatch."""
    if fp["sha256"] == ref["sha256"]:
        return "bytes", "bytes identical"
    if fp["rows"] != ref["rows"]:
        return None, f"{fp['rows']} rows, reference {ref['rows']}"
    if fp["exact_sha256"] != ref["exact_sha256"]:
        return None, "time/limb/segment/mode/t columns differ"
    if fp["per_limb"].keys() != ref["per_limb"].keys():
        return None, "limb names differ"
    for limb, cols in ref["per_limb"].items():
        for col, (ref_sum, ref_abs, ref_max) in cols.items():
            got_sum, _, got_max = fp["per_limb"][limb][col]
            # Relative to the column's magnitude, so sums that cancel to
            # about zero are held to the precision of their terms.
            scale = max(ref_abs, 1e-300)
            if abs(got_sum - ref_sum) > REL_TOL * scale:
                return None, f"{limb}.{col} sum {got_sum!r} vs {ref_sum!r}"
            if abs(got_max - ref_max) > REL_TOL * max(abs(ref_max), scale / fp["rows"]):
                return None, f"{limb}.{col} max {got_max!r} vs {ref_max!r}"
    return "columns", "bytes differ; exact columns equal, sums and maxima within 1e-9"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
