"""The clamp oracle's dense scan against a plain per-sample evaluation."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from trajsync.multi_ee import (
    MultiMetricParams,
    MultiPose,
    stacked_distance,
    stacked_interp,
)
from trajsync.se3 import Pose, Se3MetricParams, quat_from_axis_angle, quat_mul
from trajsync import verify
from trajsync.verify import oracle_scan_1d, oracle_scan_stacked, run_clamp_oracle_suite

# Enough samples to cross the scan's chunk boundaries.
N_SAMPLES = 20_001


def reference_scan(dist_at, n):
    """Same contract as the oracle, one sample at a time."""
    best_dist, best_t = math.inf, 1.0
    for i in range(n):
        t = 1.0 - i / (n - 1)
        d = dist_at(t)
        if d <= 1.0:
            return True, t, d
        if d < best_dist:
            best_dist, best_t = d, t
    return False, best_t, best_dist


def assert_matches_reference(got, want, feasible):
    assert got[0] is want[0] is feasible
    assert got[1] == want[1]
    assert got[2] == pytest.approx(want[2], abs=1e-9)
    # A feasible hit past the first chunk, or a full scan of every chunk.
    assert got[1] < 0.5


@pytest.mark.parametrize("y, feasible", [(32.5, True), (1.0, False)])
def test_oracle_scan_1d_matches_per_sample_evaluation(y, feasible):
    s, f, p = 10.0, 110.0, 4.0
    got = oracle_scan_1d(y, s, f, p, N_SAMPLES)
    want = reference_scan(lambda t: abs(y - (s + t * (f - s))) / p, N_SAMPLES)
    assert_matches_reference(got, want, feasible)


Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Q0 = quat_from_axis_angle(Z, 0.3)


def limb(kind):
    """(start, final, metric) of a limb that takes one branch of the scan.

    "inf": translation only (r_e = inf); "flat": an arc below
    FLAT_ARC_ANGLE, taken by normalized LERP; "sine": a 70 degree arc
    through the sine-weight SLERP.
    """
    start = Pose((0.0, 0.0, 0.0), Q0)
    angle = 4e-7 if kind == "flat" else math.radians(70.0)
    final = Pose((200.0, 40.0, -20.0), quat_mul(quat_from_axis_angle(X, angle), Q0))
    r_e = math.inf if kind == "inf" else math.radians(60.0)
    return start, final, Se3MetricParams(p_e=20.0, r_e=r_e)


def instance(kinds, norm_order, far):
    limbs = [limb(kind) for kind in kinds]
    names = tuple(f"ee{j}" for j in range(len(kinds)))
    start = MultiPose(names, tuple(s for s, _, _ in limbs))
    final = MultiPose(names, tuple(f for _, f, _ in limbs))
    params = MultiMetricParams(tuple(m for _, _, m in limbs), norm_order=norm_order)
    on_path = stacked_interp(0.3, start, final)
    shift = 45.0 if far else 8.0
    tilt = quat_from_axis_angle((0.6, 0.0, 0.8), math.radians(15.0))
    target = MultiPose(
        names,
        tuple(
            Pose(pose.v + (0.0, shift, 0.0), quat_mul(tilt, pose.q))
            for pose in on_path.poses
        ),
    )
    return target, start, final, params


@pytest.mark.parametrize(
    "kinds, norm_order, far",
    [
        (("inf", "sine"), math.inf, False),
        (("inf", "sine"), math.inf, True),
        (("flat", "sine"), 2.0, False),
        (("flat", "sine"), 2.0, True),
    ],
)
def test_oracle_scan_stacked_matches_per_sample_evaluation(kinds, norm_order, far):
    target, start, final, params = instance(kinds, norm_order, far)
    got = oracle_scan_stacked(target, start, final, params, N_SAMPLES)
    want = reference_scan(
        lambda t: stacked_distance(stacked_interp(t, start, final), target, params),
        N_SAMPLES,
    )
    assert_matches_reference(got, want, not far)


# (_CHUNK_FIRST, _CHUNK_MAX): many capped chunks, one big chunk, the default.
SCHEDULES = [(8, 32), (8_192, 262_144), (verify._CHUNK_FIRST, verify._CHUNK_MAX)]
SCHEDULE_SAMPLES = 2_001


def scan_under(schedule, monkeypatch, scan, *args):
    """scan(*args) under a chunk schedule, in a fresh thread.

    The workspace is thread-local and sized at its first use, so a new thread
    builds one for this schedule's cap.
    """
    first, cap = schedule
    monkeypatch.setattr(verify, "_CHUNK_FIRST", first)
    monkeypatch.setattr(verify, "_CHUNK_MAX", cap)
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(scan, *args).result()


@pytest.mark.parametrize("y, feasible", [(32.5, True), (1.0, False)])
def test_oracle_scan_1d_does_not_depend_on_the_chunk_schedule(y, feasible, monkeypatch):
    args = (y, 10.0, 110.0, 4.0, SCHEDULE_SAMPLES)
    got = [scan_under(sched, monkeypatch, oracle_scan_1d, *args) for sched in SCHEDULES]
    assert got[0][0] is feasible
    assert got[1] == got[0] and got[2] == got[0]


@pytest.mark.parametrize("norm_order", [math.inf, 2.0, 3.5])
@pytest.mark.parametrize("far", [False, True])
def test_oracle_scan_stacked_does_not_depend_on_the_chunk_schedule(
    norm_order, far, monkeypatch
):
    args = (*instance(("inf", "flat", "sine"), norm_order, far), SCHEDULE_SAMPLES)
    got = [scan_under(sched, monkeypatch, oracle_scan_stacked, *args) for sched in SCHEDULES]
    assert got[0][0] is not far
    # A hit several (8, 32) chunks in, or a full scan of all of them.
    assert got[0][1] < 0.5
    assert got[1] == got[0] and got[2] == got[0]


def test_warm_oracle_scan_allocates_no_arrays():
    # Every chunk pass writes into the thread's workspace; a scan that made
    # fresh temporaries would show them in the traced peak.
    args = instance(("inf", "flat", "sine"), 3.5, far=True)
    assert not oracle_scan_stacked(*args)[0]  # builds this thread's workspace
    tracemalloc.start()
    try:
        assert not oracle_scan_stacked(*args)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


@pytest.mark.parametrize("n", [0, 1])
def test_oracle_scans_reject_fewer_than_two_samples(n):
    with pytest.raises(ValueError, match="n_samples"):
        oracle_scan_1d(1.0, 10.0, 110.0, 4.0, n)
    with pytest.raises(ValueError, match="n_samples"):
        oracle_scan_stacked(*instance(("sine",), math.inf, far=False), n)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"n_instances": 0}, "n_instances"),
        ({"n_instances": -3}, "n_instances"),
        ({"n_instances": 5, "oracle_samples": 1}, "oracle_samples"),
        ({"n_instances": 5, "oracle_samples": 0}, "oracle_samples"),
    ],
)
def test_clamp_oracle_suite_rejects_degenerate_sizes(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_clamp_oracle_suite(**kwargs)
