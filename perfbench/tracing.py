"""Outside-in timing of trajsync: the step timer and the span tracer.

Both work by replacing a public function, in every trajsync module that
holds it, with a wrapper, and by putting the original back afterwards.
Nothing in the package is changed on disk and no hook is needed.

``StepTimer`` is the untraced run's only wrapper: one ``perf_counter_ns``
pair around each controller call (``step_tracking``/``step_speed``), or, on
the oracle workload, one ``perf_counter_ns`` read as each instance's clamp
under test starts. Before every n-th op it also times one chunk of the host
calibration loop and takes that time out of the segment it falls in.

``Tracer`` records a span (name, start, end, parent, op index) around every
call into a layer and counts ``Pose`` constructions and ``slerp`` calls.
The op index is the control step (or oracle instance) the span belongs to.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

import trajsync
from trajsync import metric_core, se3

perf_counter_ns = time.perf_counter_ns


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "trajsync" or name.startswith("trajsync."))
    ]


class Patches:
    """Replace objects by identity across trajsync's module namespaces."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement, modules=None) -> None:
        for module in modules if modules is not None else _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def set_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _step_functions():
    return (trajsync.controller.step_tracking, trajsync.controller.step_speed)


def _oracle_clamps():
    # The clamp under test, as the verify module calls it.
    from trajsync import verify

    return verify, (verify.hypersphere_clamp, verify.clamp_stacked)


class StepTimer:
    """Per-op host latency from one clock read pair (or one read) per op.

    The reads, with the pass's start and end, cut the pass into segments that
    tile it: before the first op, each op, each gap between ops (the
    simulator's own work) and after the last op (export). On the oracle an
    op runs from its clamp call to the next instance's.

    ``calibrate`` (the host probe's loop) runs before every
    ``ops_per_probe``-th op, so the probe samples the host's speed across
    the whole pass, at the same places in every repeat of it.
    """

    def __init__(self, oracle: bool, calibrate, ops_per_probe: int):
        self.oracle = oracle
        self.calibrate = calibrate
        self.ops_per_probe = ops_per_probe
        self._stamps: list[int] = []
        self._probe_ns: list[int] = []
        self._probe_at: dict[int, int] = {}  # stamp index -> probe ns in the segment ending there
        self._patches = Patches()

    def install(self) -> None:
        self._stamps, self._probe_ns, self._probe_at = [], [], {}
        stamps, probe_ns, probe_at = self._stamps, self._probe_ns, self._probe_at
        calibrate, every = self.calibrate, self.ops_per_probe
        count = [0]

        def probe():
            if count[0] % every == 0:
                t0 = perf_counter_ns()
                calibrate()
                probe_ns.append(perf_counter_ns() - t0)
                probe_at[len(stamps)] = probe_ns[-1]
            count[0] += 1

        if self.oracle:
            verify, clamps = _oracle_clamps()
            for fn in clamps:
                def stamped(*args, _fn=fn, **kwargs):
                    probe()
                    stamps.append(perf_counter_ns())
                    return _fn(*args, **kwargs)
                self._patches.replace(fn, stamped, [verify])
            return
        for fn in _step_functions():
            def timed(*args, _fn=fn, **kwargs):
                probe()
                stamps.append(perf_counter_ns())
                out = _fn(*args, **kwargs)
                stamps.append(perf_counter_ns())
                return out
            self._patches.replace(fn, timed)

    def uninstall(self, start_ns: int, end_ns: int) -> tuple[list[int], list[int], list[int]]:
        """Restore the package; return the pass's op latencies, its segments
        (probe time taken out) and its probe chunk times, all in ns."""
        self._patches.restore()
        stamps = [start_ns] + self._stamps + [end_ns]
        segments = [b - a for a, b in zip(stamps, stamps[1:])]
        for index, chunk_ns in self._probe_at.items():
            segments[index] -= chunk_ns
        ops = segments[1:] if self.oracle else segments[1::2]
        return ops, segments, self._probe_ns


# Span name -> the public functions it wraps, as (module, attribute).
LAYER_SPANS = {
    "cli.main": [("cli", "main")],
    "cli.config_load": [("cli", "load_scenario")],
    "cli.export": [("cli", "write_trace_csv"), ("cli", "write_trace_jsonl")],
    "scenarios.build": [("scenarios", "get_scenario"), ("scenarios", "scenario_from_dict")],
    "sim.loop": [("sim", "run_scenario")],
    "sim.validate": [("sim", "validate_scenario")],
    "sim.plant": [("sim", "limb_step")],
    "controller.step": [("controller", "step_tracking"), ("controller", "step_speed")],
    "controller.recovery": [("controller", "handle_no_solution")],
    "metric_core.clamp": [("metric_core", "hypersphere_clamp")],
    "metric_core.sample_count": [("metric_core", "sample_count")],
    "multi_ee.clamp_stacked": [("multi_ee", "clamp_stacked")],
    "multi_ee.interp": [("multi_ee", "stacked_interp")],
    "multi_ee.distance": [("multi_ee", "stacked_distance"), ("multi_ee", "per_ee_distances")],
    "kernels.coeff": [("_kernels", "segment_coefficients")],
    "kernels.grid": [("_kernels", "grid_distances")],
    "verify.suite": [("verify", "run_clamp_oracle_suite")],
    "verify.oracle_scan": [("verify", "oracle_scan_1d"), ("verify", "oracle_scan_stacked")],
}

# Span names that are the clamp under test when called by the oracle suite.
_CLAMP_SPANS = ("metric_core.clamp", "multi_ee.clamp_stacked")


class Tracer:
    """In-memory spans around every layer call, plus exact counts."""

    def __init__(self):
        # One list per span: [name, start_ns, end_ns, parent index, op index]
        self.spans: list[list] = []
        self.op = -1
        self.counts = defaultdict(int)
        self._patches = Patches()
        self._stack = [-1]

    def install(self) -> None:
        for span_name, targets in LAYER_SPANS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"trajsync.{module_name}")
                original = getattr(module, attr)
                self._patches.replace(original, self._wrap(span_name, original))
        self._count_calls()

    def uninstall(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span for the benchmark's own pass, around the layer spans."""
        rec = [name, perf_counter_ns(), 0, self._stack[-1], self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter_ns()

    def _wrap(self, span_name, fn):
        spans = self.spans
        stack = self._stack
        observe = getattr(self, "_observe_" + span_name.replace(".", "_"), None)
        starts_op = span_name == "controller.step"
        is_clamp = span_name in _CLAMP_SPANS

        def traced(*args, **kwargs):
            parent = stack[-1]
            if starts_op or (is_clamp and parent >= 0 and spans[parent][0] == "verify.suite"):
                self.op += 1
            rec = [span_name, 0, 0, parent, self.op]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _count_calls(self) -> None:
        counts = self.counts
        post_init = se3.Pose.__post_init__

        def counted_post_init(pose):
            counts["pose_constructions"] += 1
            post_init(pose)

        self._patches.set_attr(se3.Pose, "__post_init__", counted_post_init)
        slerp = se3.slerp

        def counted_slerp(*args, **kwargs):
            counts["slerp_calls"] += 1
            return slerp(*args, **kwargs)

        self._patches.replace(slerp, counted_slerp)

    # -- observers: exact counts taken at the layer boundary ------------------

    def _observe_controller_step(self, args, kwargs, out):
        self.counts["steps"] += 1
        if out[0].mode is trajsync.Mode.RECOVERING:
            self.counts["recovering_steps"] += 1

    def _observe_controller_recovery(self, args, kwargs, out):
        self.counts["recovery_entries"] += 1

    def _observe_metric_core_clamp(self, args, kwargs, out):
        n = kwargs["n_samples"] if "n_samples" in kwargs else args[5]
        batch = kwargs.get("grid_eval", args[6] if len(args) > 6 else None) is not None
        self.counts["clamps"] += 1
        self.counts["clamp_samples"] += n
        if isinstance(out, metric_core.Solution):
            hit = int(round((1.0 - out.t) * (n - 1)))
            useful = hit + 1
        else:
            self.counts["no_solution"] += 1
            useful = n
        self.counts["useful_samples"] += useful
        # A batch evaluation scores the whole grid; the sequential scan stops
        # at the hit.
        self.counts["evaluated_samples"] += n if batch else useful

    def _observe_kernels_grid(self, args, kwargs, out):
        ts, coeffs = args[0], args[1]
        self.counts["grid_sample_limbs"] += len(ts) * len(coeffs[0])

    def _observe_cli_export(self, args, kwargs, out):
        trace = args[0]
        if trace:
            self.counts["export_rows"] += len(trace) * len(trace[0].sensed.names)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, int]]:
        """Per span name: total self ns, total ns and call count."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"self_ns": 0, "total_ns": 0, "calls": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_ns"] += end - start - child[i]
            entry["total_ns"] += end - start
            entry["calls"] += 1
        return dict(out)

    def clamp_under_test_ns(self) -> int:
        """Inclusive time of clamps called directly by the oracle suite."""
        return sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if name in _CLAMP_SPANS and parent >= 0 and self.spans[parent][0] == "verify.suite"
        )
