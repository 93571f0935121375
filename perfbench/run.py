#!/usr/bin/env python3
"""Benchmark of trajsync's control step, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mix_cli_csv --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --check-only            # determinism gate, no timing
    python3 perfbench/run.py --smoke                 # every path at tiny size

A run prints a readable report, one ``detail`` JSON line (environment, host
probe, checks, every metric with its sample count) and, as its last line,
the result object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 5


def _import_package():
    """Import trajsync from this checkout's source tree, or exit 2."""
    if not (SRC / "trajsync" / "__init__.py").is_file():
        print(f"error: no trajsync sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import trajsync

    if Path(trajsync.__file__).resolve().parent != (SRC / "trajsync").resolve():
        print(f"error: imported trajsync from {trajsync.__file__}", file=sys.stderr)
        sys.exit(2)
    return trajsync


# --- environment and host probe ---------------------------------------------

def environment(trajsync) -> dict:
    import importlib.util

    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        # BACKEND may be removed with the numba path; the benchmark must not care.
        "backend": str(getattr(trajsync, "BACKEND", "numpy (no BACKEND attribute)")),
        "trajsync": getattr(trajsync, "__version__", "unknown"),
    }


def step_path_chunk() -> None:
    """Host probe loop like the step path: pure Python plus small-array numpy."""
    import numpy as np

    acc = 0
    for i in range(4_000):
        acc += i * i % 7
    a = np.arange(3.0)
    for _ in range(400):
        a = np.sqrt(a * a + 1.0) - 0.5


def scan_chunk() -> None:
    """Host probe loop like the oracle's dense scan: one chunk of large
    float64 arrays (grid, distance, feasibility, argmin)."""
    import numpy as np

    ts = 1.0 - np.arange(131_072, dtype=np.float64) / 999_999.0
    dists = np.sqrt((ts * 3.0 - 1.0) ** 2 + 0.25)
    (dists <= 0.1).any()
    np.argmin(dists)


# Each host probe loop, by the name a workload gives in ``probe``, with its
# least chunk time (see ``undisturbed``) in ms on the reference host: a
# 2-core Xeon, Python 3.11, numpy 2.4. Gated times are scaled to it.
PROBES = {
    "step_path": (step_path_chunk, 0.95),
    "scan": (scan_chunk, 0.75),
}


class SetupProbe:
    """Set-up seconds, each measured in a fresh interpreter.

    One discarded warm-up fills the bytecode caches; the timed samples are
    spread over the run so that one slow spell of the host cannot hit all.
    """

    def __init__(self, workload):
        self.code = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            + workload.setup_code()
            + "print(repr(time.perf_counter() - t0))\n"
        )
        self.samples: list[float] = []
        self._once()

    def _once(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT, capture_output=True,
            text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    def sample(self) -> None:
        self.samples.append(self._once())


# --- one workload -----------------------------------------------------------

class Checker:
    """Checks every pass's outputs; counts attempted and failed operations."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.reference = self._reference(references)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.rules: set[str] = set()
        self._first_sha = None
        self._first_output = None
        self._same_passes = 0  # passes whose bytes equal the first pass's
        self._same_ops = 0
        self._set_details: dict[int, str] = {}  # oracle detail line by instance set

    def _reference(self, refs: dict):
        """The reference for this run's inputs: for the oracle, by suite seed."""
        w = self.workload
        if w.reference_builtin:
            return refs["builtins"][w.reference_builtin]
        if w.smoke:
            return None
        if w.trace_format is None:
            return {
                int(seed): ref["detail"]
                for seed, ref in refs["oracle_verify"].items()
                if ref["instances"] == w.instances
            }
        return refs["rot_knorm_seeded"].get(str(w.seed))

    def add(self, result, index: int) -> None:
        """Cheap per-pass check, run between passes (outside timing).

        Every pass of one seed must export the same bytes; the first pass's
        trace is checked in full by ``finish``.
        """
        self.attempted += result.ops
        if self.workload.trace_format is None:
            self._add_oracle(result, index)
            return
        if result.exit_code != 0:
            self.failed += result.ops
            self.notes.append(f"trajsync run exited {result.exit_code}")
            return
        sha = checks.file_sha256(result.output)
        if self._first_sha is None:
            self._first_sha = sha
            self._first_output = result.output.rename(result.output.with_suffix(".first"))
        if sha == self._first_sha:
            self._same_passes += 1
            self._same_ops += result.ops
        else:
            self.failed += result.ops
            self.notes.append("a pass exported different bytes from the first pass")
        result.output.unlink(missing_ok=True)

    def _add_oracle(self, result, index: int) -> None:
        w = self.workload
        detail = result.detail
        ok = result.passed and detail.startswith(f"{w.instances}/{w.instances} instances")
        # A repeated instance set must give the same detail line.
        ok = ok and self._set_details.setdefault(result.key, detail) == detail
        want = (self.reference or {}).get(w.suite_seed(index))
        if want is not None:
            ok = ok and detail == want
            self.rules.add(f"suite seed {w.suite_seed(index)}: detail identical" if ok else "detail differs")
        if not ok:
            mismatches = detail.split(" mismatches", 1)[0]
            self.failed += int(mismatches) if mismatches.isdigit() else result.ops
            self.notes.append(f"oracle pass {index}: {detail}")

    def finish(self) -> None:
        """Full check of the first trace; it stands for every identical pass."""
        if self._first_output is None:
            return
        fp = checks.fingerprint(self._first_output, self.workload.trace_format)
        steps = self._same_ops // self._same_passes
        if self.reference is not None:
            rule, why = checks.compare(fp, self.reference)
            if rule is None:
                self.notes.append(f"reference mismatch: {why}")
                self.failed += self._same_ops
                return
            self.rules.add(why)
        elif fp["steps"] != steps or fp["rows"] != steps * len(fp["per_limb"]):
            self.notes.append(f"trace has {fp['rows']} rows for {steps} steps")
            self.failed += self._same_ops
            return
        if fp["unsafe_steps"]:
            self.notes.append(f"{fp['unsafe_steps']} steps per pass broke dist <= 1 + 1e-9")
            self.failed += fp["unsafe_steps"] * self._same_passes

    def traced_matches(self, result, index: int) -> bool:
        """A traced pass must give what the untraced pass on its inputs gave."""
        if self.workload.trace_format is None:
            key = self.workload.input_key(index)
            return result.passed and result.detail == self._set_details.get(key)
        same = result.exit_code == 0 and checks.file_sha256(result.output) == self._first_sha
        result.output.unlink(missing_ok=True)
        return same


def undisturbed(passes) -> dict:
    """Throughput and latency of the run's passes, least disturbed.

    This host slows a whole core by up to 1.8x, in spells from tens of
    milliseconds to over a minute (a fixed loop's CPU time grows with its
    wall time, so the core is slower, not descheduled). Passes with the same
    key ran the same inputs, so every segment of a pass (each op, each gap
    between ops, the parts before and after) is taken at its least over the
    repeats, as ``timeit`` reports the best of its repeats: throughput is ops
    over the summed least segments, latency the least of each op.

    A spell can outlast a whole run, so the host probe's chunks, timed at
    the same places in every repeat, are taken the same way: each at its
    least over the repeats, then averaged. That is the host's speed as the
    least segments saw it (``probe_least_ms``).
    """
    import numpy as np

    groups: dict = {}
    for r in passes:
        groups.setdefault((r.key, len(r.segments_ns)), []).append(r)
    ops = 0
    best_ns = 0.0
    least_ops = []
    least_probe = []
    for group in groups.values():
        least = np.min(np.array([r.segments_ns for r in group], dtype=np.float64), axis=0)
        best_ns += least.sum()
        ops += group[0].ops
        least_ops.append(least[1:] if group[0].ops == len(least) - 1 else least[1::2])
        least_probe.append(np.min(np.array([r.probe_ns for r in group], dtype=np.float64), axis=0))
    us = np.concatenate(least_ops) / 1e3
    return {
        "op_per_s": ops / (best_ns / 1e9),
        "op_mean_us": float(us.mean()),
        "op_p90_us": float(np.percentile(us, 90)),
        "op_p50_us": float(np.percentile(us, 50)),
        "op_p99_us": float(np.percentile(us, 99)),
        "probe_least_ms": float(np.concatenate(least_probe).mean()) / 1e6,
        "inputs": len(groups),
        "ops": ops,
        "repeats": [len(g) for g in groups.values()],
    }


def run_workload(args, trajsync, references: dict) -> dict:
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = TMP / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, workdir, smoke=args.smoke)
        workload.prepare()
        setup = SetupProbe(workload) if args.smoke or not args.trace else None
        setup_repeats = 1 if args.smoke else SETUP_REPEATS
        calibrate, reference_chunk_ms = PROBES[workload.probe]
        for _ in range(3):  # warm-up of the host probe's loop
            calibrate()
        checker = Checker(workload, references)
        oracle = workload.trace_format is None
        timer = tracing.StepTimer(oracle, calibrate, workload.ops_per_probe)
        tracer = tracing.Tracer() if args.trace else None

        untraced, traced = [], []
        traced_wall_ns = 0
        traced_ok = True
        t_start = time.perf_counter()
        index = 0
        while True:
            timer.install()
            try:
                start_ns = time.perf_counter_ns()
                result = workload.run_pass(index)
            finally:
                latencies, segments, probe_ns = timer.uninstall(start_ns, time.perf_counter_ns())
            result.segments_ns = segments
            result.probe_ns = probe_ns
            result.seconds -= sum(probe_ns) / 1e9
            result.ops = len(latencies)
            result.key = workload.input_key(index)
            workload.after_pass(result, index)
            checker.add(result, index)
            untraced.append(result)
            if tracer is not None:
                tracer.install()
                steps_before = tracer.counts["steps"]
                try:
                    w0 = time.perf_counter_ns()
                    with tracer.root("bench.pass"):
                        result = workload.run_pass(index, "t")
                    traced_wall_ns += time.perf_counter_ns() - w0
                finally:
                    tracer.uninstall()
                if not oracle:
                    result.ops = tracer.counts["steps"] - steps_before
                workload.after_pass(result, index, "t")
                traced.append(result)
                traced_ok = traced_ok and checker.traced_matches(result, index)
            index += 1
            elapsed = time.perf_counter() - t_start
            if setup is not None and len(setup.samples) < min(setup_repeats, setup_repeats * elapsed / max(args.seconds, 1e-9)):
                setup.sample()
            if elapsed >= args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measure_s = time.perf_counter() - t_start
        while setup is not None and len(setup.samples) < setup_repeats:
            setup.sample()
        checker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    if not any(r.ops for r in untraced):
        raise RuntimeError(f"no {args.workload} operation completed: {checker.notes}")
    best = undisturbed(untraced)
    unit_name = "instance" if oracle else "step"
    repeats = f"{best['ops']} {unit_name}s on {best['inputs']} input(s), repeated {best['repeats']}"
    slowdown = best["probe_least_ms"] / reference_chunk_ms
    e2e = {
        "op_per_s_at_ref": (best["op_per_s"] * slowdown, "1/s", f"{len(untraced)} passes"),
        "op_mean_us_at_ref": (best["op_mean_us"] / slowdown, "us", repeats),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    if setup is not None:
        e2e["setup_s"] = (statistics.median(setup.samples), "s", f"{len(setup.samples)} interpreters")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "why": workload.why,
        "closed_loop": "1 process, 1 thread, next pass after the previous returns",
        "env": environment(trajsync),
        "host_probe": {
            "loop": workload.probe,
            "chunks": sum(len(r.probe_ns) for r in untraced),
            "least_ms": best["probe_least_ms"],
            "median_ms": statistics.median(c for r in untraced for c in r.probe_ns) / 1e6,
            "slowdown": slowdown,
        },
        "passes": len(untraced),
        "traced_passes": len(traced),
        "measured_s": measure_s,
        "op": unit_name,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "error_rate": checker.failed / max(checker.attempted, 1),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "checks": {"rules": sorted(checker.rules), "notes": checker.notes},
        "pass_rates": [r.ops / r.seconds for r in untraced],
        # Least-disturbed figures as measured, before scaling to the reference host.
        "as_measured": {k: best[k] for k in ("op_per_s", "op_mean_us", "op_p50_us", "op_p90_us", "op_p99_us")},
    }
    correct = checker.failed == 0 and not checker.notes
    if tracer is not None:
        layers, info, integrity = per_layer(tracer, untraced, traced, traced_wall_ns, oracle)
        report["per_layer"] = layers
        report["per_layer_info"] = info
        report["trace_integrity"] = integrity
        report["checks"]["traced_outputs_match"] = traced_ok
        correct = correct and traced_ok and integrity["ok"]
    report["correct"] = correct
    return report


def per_layer(tracer, untraced, traced, traced_wall_ns, oracle):
    """Per-layer metrics of the traced passes (see README for definitions)."""
    st = tracer.self_times()
    c = tracer.counts
    spans_wall = sum(v["total_ns"] for k, v in st.items() if k == "bench.pass")
    ops = max(sum(r.ops for r in traced), 1)

    def self_ns(*names):
        return sum(st.get(n, {"self_ns": 0})["self_ns"] for n in names)

    def calls(name):
        return st.get(name, {"calls": 0})["calls"]

    def per_call_us(name):
        return self_ns(name) / max(calls(name), 1) / 1e3

    def pct(*names):
        return 100.0 * self_ns(*names) / max(spans_wall, 1)

    # Each traced pass runs right after the untraced pass on the same inputs.
    overhead = 100.0 * (
        statistics.median(
            (t.seconds / max(t.ops, 1)) / (u.seconds / max(u.ops, 1))
            for u, t in zip(untraced, traced)
        ) - 1.0
    )
    layers = {
        "metric_core.clamp_self_us_per_call": (per_call_us("metric_core.clamp"), "us"),
        "metric_core.samples_per_clamp": (c["clamp_samples"] / max(c["clamps"], 1), "count"),
        "metric_core.scan_useful_ratio": (c["useful_samples"] / max(c["evaluated_samples"], 1), "ratio"),
        "metric_core.no_solution_share": (c["no_solution"] / max(c["clamps"], 1), "ratio"),
        "multi_ee.interp_us_per_call": (per_call_us("multi_ee.interp"), "us"),
        "multi_ee.distance_us_per_call": (per_call_us("multi_ee.distance"), "us"),
        "kernels.coeff_us_per_call": (per_call_us("kernels.coeff"), "us"),
        "kernels.grid_ns_per_sample_limb": (self_ns("kernels.grid") / max(c["grid_sample_limbs"], 1), "ns"),
        "se3.pose_constructions_per_op": (c["pose_constructions"] / ops, "count"),
        "se3.slerp_calls_per_op": (c["slerp_calls"] / ops, "count"),
        "sim.loop_self_pct": (pct("sim.loop"), "%"),
        "sim.plant_pct": (pct("sim.plant"), "%"),
        "controller.self_pct": (pct("controller.step", "controller.recovery"), "%"),
        "controller.recovery_entries": (c["recovery_entries"] / max(len(traced), 1), "count"),
        "controller.recovering_share": (c["recovering_steps"] / max(c["steps"], 1), "ratio"),
        "cli.export_pct": (pct("cli.export"), "%"),
        "scenarios.build_pct": (pct("scenarios.build"), "%"),
        "verify.oracle_scan_pct": (pct("verify.oracle_scan"), "%"),
        "verify.clamp_under_test_share": (tracer.clamp_under_test_ns() / max(spans_wall, 1), "ratio"),
        "trace.overhead_pct": (overhead, "%"),
    }
    # Per-step figures of the layers that only some workloads cross.
    info = {"self_pct": {k: 100.0 * v["self_ns"] / max(spans_wall, 1) for k, v in sorted(st.items())}}
    steps = max(c["steps"], 1)
    if not oracle:
        info.update({
            "sim.loop_self_us_per_step": self_ns("sim.loop") / steps / 1e3,
            "sim.plant_us_per_step": self_ns("sim.plant") / steps / 1e3,
            "controller.self_us_per_step": self_ns("controller.step", "controller.recovery") / steps / 1e3,
            "multi_ee.interp_us_per_step": self_ns("multi_ee.interp") / steps / 1e3,
            "multi_ee.distance_us_per_step": self_ns("multi_ee.distance") / steps / 1e3,
        })
    export_ns = st.get("cli.export", {}).get("total_ns", 0)
    if export_ns:
        info["cli.export_rows_per_s"] = c["export_rows"] / (export_ns / 1e9)
    if calls("cli.config_load"):
        info["cli.config_load_s"] = st["cli.config_load"]["total_ns"] / calls("cli.config_load") / 1e9
    if calls("scenarios.build"):
        info["scenarios.build_s"] = st["scenarios.build"]["total_ns"] / calls("scenarios.build") / 1e9
    if calls("verify.oracle_scan"):
        info["verify.oracle_scan_s_per_instance"] = (
            st["verify.oracle_scan"]["total_ns"] / calls("verify.oracle_scan") / 1e9
        )
    accounted = sum(v["self_ns"] for v in st.values())
    negative = [k for k, v in st.items() if v["self_ns"] < 0]
    integrity = {
        "traced_wall_s": traced_wall_ns / 1e9,
        "accounted_s": accounted / 1e9,
        "unattributed_pct": 100.0 * self_ns("bench.pass") / max(spans_wall, 1),
        "negative_self": negative,
        "ok": not negative and abs(accounted - traced_wall_ns) <= 0.01 * traced_wall_ns,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, info, integrity


# --- output -------------------------------------------------------------------

def _plain_name(metric: str, op: str) -> str:
    """The name the report prints for a generic op metric."""
    if metric.startswith("op_per_s"):
        return ("steps_per_s" if op == "step" else "oracle_instances_per_s") + metric[len("op_per_s"):]
    return metric.replace("op_", op + "_", 1) if metric.startswith("op_") else metric


def print_report(report: dict) -> None:
    op = report["op"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"   {report['why']}")
    env = report["env"]
    print(
        f"   env: {env['cores']} cores, {env['cpu_model']}, Python {env['python']}, "
        f"numpy {env['numpy']}, numba importable: {env['numba_importable']}, "
        f"backend {env['backend']}"
    )
    probe = report["host_probe"]
    print(
        f"   host probe: least chunk {probe['least_ms']:.3f} ms, median {probe['median_ms']:.3f} ms "
        f"of {probe['chunks']}; slowdown against the reference host {probe['slowdown']:.3f}"
    )
    print(f"   {report['passes']} passes, {report['traced_passes']} traced, {report['measured_s']:.1f} s")
    for name, m in report["end_to_end"].items():
        label = _plain_name(name, op)
        print(f"   {label:<26} {m['value']:>14.4f} {m['unit']:<4} [{name}] {m['n']}")
    for name, value in report["as_measured"].items():
        unit = "1/s" if name == "op_per_s" else "us"
        print(f"   {_plain_name(name, op):<26} {value:>14.4f} {unit:<4} (as measured, information)")
    print(
        f"   {'error_rate':<26} {report['error_rate']:>14.4f}      "
        f"{report['failed']}/{report['attempted']} {op}s failed"
    )
    for name, m in report.get("per_layer", {}).items():
        print(f"   {name:<40} {m['value']:>14.4f} {m['unit']}")
    for name, value in report.get("per_layer_info", {}).items():
        if name == "self_pct":
            split = ", ".join(f"{k} {v:.1f}%" for k, v in sorted(value.items(), key=lambda kv: -kv[1]))
            print(f"   self-time split of the traced wall: {split}")
        else:
            print(f"   {name:<40} {value:>14.4f}  (this workload only)")
    if "trace_integrity" in report:
        t = report["trace_integrity"]
        print(
            f"   trace integrity: {t['accounted_s']:.3f} s of self time for "
            f"{t['traced_wall_s']:.3f} s traced wall ({t['unattributed_pct']:.1f}% outside "
            f"any layer); traced outputs match: {report['checks']['traced_outputs_match']}"
        )
    outcome = report["checks"]
    print(f"   output check: {', '.join(outcome['rules']) or 'invariants only (no reference for this seed)'}")
    for note in outcome["notes"]:
        print(f"   FAILED CHECK: {note}")
    print(f"   correct: {report['correct']}")


def result_line(report: dict) -> str:
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


# --- modes ----------------------------------------------------------------------

def check_only(references: dict) -> int:
    """Determinism gate: every builtin's CSV trace against its reference."""
    import contextlib
    import io

    from trajsync import cli, scenarios

    workdir = TMP / f"check-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for name in scenarios.BUILTIN_SCENARIOS:
            out = workdir / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--scenario", name, "--output", str(out)])
            ref = references["builtins"].get(name)
            if ref is None:
                rule, why = None, "no reference recorded"
            elif code != 0:
                rule, why = None, f"trajsync run exited {code}"
            else:
                rule, why = checks.compare(checks.fingerprint(out, "csv"), ref)
            print(f"{name}: {'OK' if rule else 'MISMATCH'} ({why})")
            if rule is None:
                status = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    print("determinism check:", "PASS" if status == 0 else "FAIL")
    return status


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"   {name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def smoke() -> int:
    """Every workload, untraced and traced, at tiny size; invariants only."""
    import workloads

    status = 0
    references = checks.load_references()
    with open(ROOT / "BENCHMARK.json") as fh:
        declared_metrics = json.load(fh)
    for name in workloads.WORKLOADS:
        args = argparse.Namespace(
            workload=name, seed=workloads.DEFAULT_SEED, seconds=0, trace=1, smoke=True
        )
        report = run_workload(args, sys.modules["trajsync"], references)
        print(
            f"{name}: correct={report['correct']} attempted={report['attempted']} "
            f"failed={report['failed']}"
        )
        for note in report["checks"]["notes"]:
            print(f"   FAILED CHECK: {note}")
        status |= 0 if report["correct"] else 1
        for kind in ("end_to_end", "per_layer"):
            declared = [m["name"] for m in declared_metrics[kind]]
            if sorted(report[kind]) != sorted(declared):
                print(f"   {kind} metrics {list(report[kind])} differ from BENCHMARK.json {declared}")
                status = 1
    print("smoke:", "PASS" if status == 0 else "FAIL")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true", help="determinism gate only")
    parser.add_argument("--smoke", action="store_true", help="every path at tiny size")
    args = parser.parse_args(argv)

    trajsync = _import_package()
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.check_only:
        return check_only(checks.load_references())
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    report = run_workload(args, trajsync, checks.load_references())
    print_report(report)
    print(json.dumps({"detail": report}))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
