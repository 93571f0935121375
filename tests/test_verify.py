"""The clamp oracle's dense scan against a plain per-sample evaluation."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
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
    # fresh temporaries would show them in the traced peak. One scan per
    # route: an infeasible stacked scan (both phases), a feasible one (phase
    # 1 stops at an exact span) and the 1-D scan.
    scans = [
        (oracle_scan_stacked, instance(("inf", "flat", "sine"), 3.5, far=True), False),
        (oracle_scan_stacked, instance(("inf", "flat", "sine"), 3.5, far=False), True),
        (oracle_scan_1d, (32.5, 10.0, 110.0, 4.0), True),
    ]
    for scan, args, feasible in scans:
        assert scan(*args)[0] is feasible  # builds this thread's workspace
        tracemalloc.start()
        try:
            assert scan(*args)[0] is feasible
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024, scan.__name__


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
    ],
)
def test_clamp_oracle_suite_rejects_degenerate_sizes(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_clamp_oracle_suite(**kwargs)


@pytest.mark.parametrize(
    "args, name",
    [
        ((1.0, 10.0, 110.0, -4.0), "p"),
        ((1.0, 10.0, 110.0, 0.0), "p"),
        ((1.0, 10.0, 110.0, math.nan), "p"),
        ((1.0, 10.0, 110.0, math.inf), "p"),
        ((math.nan, 10.0, 110.0, 4.0), "y"),
        ((1.0, math.inf, 110.0, 4.0), "s"),
        ((1.0, 10.0, -math.inf, 4.0), "f"),
    ],
    ids=["p-negative", "p-zero", "p-nan", "p-inf", "y-nan", "s-inf", "f-inf"],
)
def test_oracle_scan_1d_rejects_a_bad_argument(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        oracle_scan_1d(*args, SCHEDULE_SAMPLES)


def test_oracle_scan_stacked_rejects_too_few_metric_params():
    target, start, final, params = instance(("inf", "sine"), math.inf, far=True)
    one = MultiMetricParams(params.per_ee[:1], norm_order=params.norm_order)
    with pytest.raises(ValueError, match="1 metric params for 2 end effectors"):
        oracle_scan_stacked(target, start, final, one, SCHEDULE_SAMPLES)


def test_oracle_scan_stacked_rejects_a_target_with_fewer_limbs():
    target, start, final, params = instance(("inf", "sine"), math.inf, far=True)
    short = MultiPose(target.names[:1], target.poses[:1])
    with pytest.raises(ValueError, match="end-effector mismatch"):
        oracle_scan_stacked(short, start, final, params, SCHEDULE_SAMPLES)


def test_oracle_scan_stacked_rejects_differing_names():
    target, start, final, params = instance(("inf", "sine"), math.inf, far=True)
    renamed = MultiPose(("ee0", "other"), final.poses)
    with pytest.raises(ValueError, match="end-effector mismatch"):
        oracle_scan_stacked(target, start, renamed, params, SCHEDULE_SAMPLES)


def dense_reference_scan(n, chunk_dists):
    """The oracle's scan with no bound: chunk_dists(ts) scores every sample.

    Chunks follow verify._chunk_bounds, so a chunk holding a NaN distance is
    passed over exactly as the oracle passes it over.
    """
    best_dist, best_t = math.inf, 1.0
    for lo, hi in verify._chunk_bounds(n):
        ts = 1.0 - np.arange(lo, hi, dtype=np.float64) / (n - 1)
        dists = chunk_dists(ts)
        feasible = dists <= 1.0
        if feasible.any():
            j = int(np.argmax(feasible))
            return True, float(ts[j]), float(dists[j])
        j = int(np.argmin(dists))
        if dists[j] < best_dist:
            best_dist, best_t = float(dists[j]), float(ts[j])
    return False, best_t, best_dist


def dense_dists_1d(y, s, f, p):
    return lambda ts: np.abs(y - (ts * (f - s) + s)) / p


def dense_dists_stacked(target, start, final, params):
    """Every limb's direct-evaluation distance, folded limb by limb."""
    consts = [
        verify._limb_constants(s, f, y)
        for s, f, y in zip(start.poses, final.poses, target.poses)
    ]
    k = params.norm_order

    def dists(ts):
        rev = 1.0 - ts
        tmp = tuple(np.empty(len(ts)) for _ in range(3))
        acc = None
        for c, p in zip(consts, params.per_ee):
            d = verify._chunk_dists_se3(np.empty(len(ts)), ts, rev, c, p, tmp)
            if math.isinf(k):
                acc = d if acc is None else np.maximum(acc, d)
            else:
                d **= k
                acc = d if acc is None else acc + d
        return acc if math.isinf(k) else acc ** (1.0 / k)

    return dists


# A grid of 2049 samples has dyadic t = 1 - i/2048: a segment 2048 long puts
# every sample on an integer, so distances tie and hit 1.0 exactly.
DYADIC_SAMPLES = 2_049


def line_instance(targets, p_e, norm_order, length=2048.0):
    """Translation-only limbs along x from 0 to length, one per target (x, y)."""
    names = tuple(f"ee{j}" for j in range(len(targets)))

    def poses(vs):
        return MultiPose(names, tuple(Pose(v, Q0) for v in vs))

    start = poses([(0.0, 0.0, 0.0)] * len(targets))
    final = poses([(length, 0.0, 0.0)] * len(targets))
    target = poses([(x, y, 0.0) for x, y in targets])
    per_ee = tuple(Se3MetricParams(p_e=p_e, r_e=math.inf) for _ in targets)
    return target, start, final, MultiMetricParams(per_ee, norm_order=norm_order)


def case(args, id, n=DYADIC_SAMPLES, expected=None):
    """args, and the (feasible, t) the scan must return if it is known."""
    return pytest.param(args, n, expected, id=id)


NORM_ORDERS = [math.inf, 1.0, 2.0, 3.5]
LIMB_SETS = [("sine",), ("inf", "sine"), ("inf", "flat", "sine", "sine", "flat", "inf")]
STACKED_CASES = [
    case(instance(kinds, k, far), f"{len(kinds)}limb-k{k}-{'far' if far else 'near'}",
         SCHEDULE_SAMPLES)
    for kinds in LIMB_SETS
    for k in NORM_ORDERS
    for far in (False, True)
] + [
    # Samples 1000 and 1001 are equally near: the larger t must win.
    case(line_instance([(1000.5, 10.0)], 4.0, k), f"tie-k{k}", expected=(False, 1001 / 2048))
    for k in NORM_ORDERS
] + [
    # Limb 0 is at distance exactly 1.0 at x = 1000, limb 1 at 0.0.
    case(line_instance([(1000.0, 4.0), (1000.0, 0.0)], 4.0, k), f"exactly-one-k{k}",
         expected=(True, 1000 / 2048))
    for k in NORM_ORDERS
] + [
    # Squares overflow to inf at every sample but x = 0.5e160.
    case(line_instance([(0.5e160, 0.5e150)], 1e150, 3.5, 1e160), "squares-overflow-feasible",
         expected=(True, 0.5)),
    case(line_instance([(0.5e160, 2e150)], 1e150, math.inf, 1e160), "squares-overflow-far",
         expected=(False, 0.5)),
    # d**3.5 overflows to inf farther than about 1e88 from x = 0.5e91.
    case(line_instance([(0.5e91, 5.0)], 1.0, 3.5, 1e91), "power-overflows",
         expected=(False, 0.5)),
    # The offset itself overflows: inf everywhere.
    case(line_instance([(1e308, 0.0)], 1.0, math.inf, -1e308), "offset-overflows",
         expected=(False, 1.0)),
]
ONE_D_CASES = [
    case((32.5, 10.0, 110.0, 4.0), "feasible", SCHEDULE_SAMPLES),
    case((1.0, 10.0, 110.0, 4.0), "far", SCHEDULE_SAMPLES),
    case((1000.5, 0.0, 2048.0, 0.25), "tie", expected=(False, 1001 / 2048)),
    case((1004.0, 0.0, 2048.0, 4.0), "exactly-one", expected=(True, 1008 / 2048)),
    # f - s overflows: inf at every t > 0, NaN at t = 0.
    case((0.0, -1e308, 1e308, 1.0), "overflows", expected=(False, 1.0)),
]


def assert_equals_reference(got, want, expected):
    assert got == want and repr(got) == repr(want)
    if expected is not None:
        assert got[:2] == expected


# The overflow cases overflow on purpose.
overflow_is_expected = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
TWO_SCHEDULES = pytest.mark.parametrize(
    "schedule", [SCHEDULES[0], SCHEDULES[2]], ids=["small-chunks", "default-chunks"]
)


@overflow_is_expected
@TWO_SCHEDULES
@pytest.mark.parametrize("args, n, expected", STACKED_CASES)
def test_oracle_scan_stacked_equals_the_dense_reference(
    args, n, expected, schedule, monkeypatch
):
    got = scan_under(schedule, monkeypatch, oracle_scan_stacked, *args, n)
    assert_equals_reference(got, dense_reference_scan(n, dense_dists_stacked(*args)), expected)


@overflow_is_expected
@TWO_SCHEDULES
@pytest.mark.parametrize("args, n, expected", ONE_D_CASES)
def test_oracle_scan_1d_equals_the_dense_reference(args, n, expected, schedule, monkeypatch):
    got = scan_under(schedule, monkeypatch, oracle_scan_1d, *args, n)
    assert_equals_reference(got, dense_reference_scan(n, dense_dists_1d(*args)), expected)


def fold_rounds_below_bound(ys, p_e, k):
    """Whether, for limbs at these y offsets from a sample, the exact fold
    of their distances there rounds below the translation-only bound."""
    t2 = np.square(np.array(ys))
    t2 /= p_e * p_e
    bound = np.sqrt(t2.sum(keepdims=True) if k <= 2 else t2.max(keepdims=True))
    d = np.sqrt(t2)
    d **= k
    fold = d.sum(keepdims=True)
    fold **= 1.0 / k
    return fold[0] < bound[0]


@TWO_SCHEDULES
@pytest.mark.parametrize(
    "k, p_e, ys_of",
    [
        (3.5, 1.0, lambda i: [2.0 + i / 1024]),  # bound: the largest limb
        (2.0, 3.0, lambda i: [2.0 + i / 256, 3.125]),  # bound: the 2-norm
    ],
    ids=["largest-limb", "two-norm"],
)
def test_oracle_scan_stacked_equals_the_dense_reference_where_the_fold_rounds_down(
    k, p_e, ys_of, schedule, monkeypatch
):
    # The nearest sample, x = 1024, is one where the finite-k bound exceeds
    # the distance unless it keeps its margin. Which offsets round so
    # depends on the host's pow, so they are searched for.
    ys = next(ys for ys in map(ys_of, range(1, 4096)) if fold_rounds_below_bound(ys, p_e, k))
    args = line_instance([(1024.0, y) for y in ys], p_e, k)
    got = scan_under(schedule, monkeypatch, oracle_scan_stacked, *args, DYADIC_SAMPLES)
    want = dense_reference_scan(DYADIC_SAMPLES, dense_dists_stacked(*args))
    assert_equals_reference(got, want, (False, 0.5))
