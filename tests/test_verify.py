"""The clamp oracle's dense scan against a plain per-sample evaluation."""

import itertools
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"

# Enough samples to cross the scan's chunk boundaries.
N_SAMPLES = 20_001


def reference_scan(dist_at, n):
    """Same contract as the oracle, one sample at a time: the first t at
    distance <= 1, or None."""
    for i in range(n):
        t = 1.0 - i / (n - 1)
        if dist_at(t) <= 1.0:
            return t
    return None


def assert_matches_reference(got, want, feasible):
    assert got == want
    assert (got is not None) is feasible
    # A feasible hit past the first chunk.
    assert not feasible or got < 0.5


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
    assert (got[0] is not None) is feasible
    assert got[1] == got[0] and got[2] == got[0]


@pytest.mark.parametrize("norm_order", [math.inf, 2.0, 3.5])
@pytest.mark.parametrize("far", [False, True])
def test_oracle_scan_stacked_does_not_depend_on_the_chunk_schedule(
    norm_order, far, monkeypatch
):
    args = (*instance(("inf", "flat", "sine"), norm_order, far), SCHEDULE_SAMPLES)
    got = [scan_under(sched, monkeypatch, oracle_scan_stacked, *args) for sched in SCHEDULES]
    assert (got[0] is None) is far
    # A hit several (8, 32) chunks in, or a full scan of all of them.
    assert far or got[0] < 0.5
    assert got[1] == got[0] and got[2] == got[0]


def test_warm_oracle_scan_allocates_no_arrays():
    # Every chunk pass writes into the thread's workspace; a scan that made
    # fresh temporaries would show them in the traced peak. One scan per
    # route: an infeasible stacked scan (every chunk bounded), a feasible one
    # (it stops at an exact span) and the 1-D scan.
    scans = [
        (oracle_scan_stacked, instance(("inf", "flat", "sine"), 3.5, far=True), False),
        (oracle_scan_stacked, instance(("inf", "flat", "sine"), 3.5, far=False), True),
        (oracle_scan_1d, (32.5, 10.0, 110.0, 4.0), True),
    ]
    for scan, args, feasible in scans:
        assert (scan(*args) is not None) is feasible  # builds this thread's workspace
        tracemalloc.start()
        try:
            assert (scan(*args) is not None) is feasible
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024, scan.__name__


def scan_counting_exact(monkeypatch, scan, *args):
    """scan(*args), and the bounds of the samples each exact call was given."""
    seen = []
    real = verify._scan

    def counting(n, bound, exact):
        def counted(ts, ws):
            seen.append(bound(ts, verify._Workspace()).copy())
            return exact(ts, ws)

        return real(n, bound, counted)

    monkeypatch.setattr(verify, "_scan", counting)
    return scan(*args), seen


@pytest.mark.parametrize("norm_order", [math.inf, 2.0, 3.5])
def test_a_scan_whose_every_bound_exceeds_one_evaluates_nothing_exactly(
    norm_order, monkeypatch
):
    args = (*instance(("inf", "sine"), norm_order, far=True), SCHEDULE_SAMPLES)
    assert scan_counting_exact(monkeypatch, oracle_scan_stacked, *args) == (None, [])


def rotated_off(norm_order):
    """An instance whose target lies on the path at t = 0.3 but is turned
    90 degrees about y: some bounds are <= 1, no distance is."""
    target, start, final, params = instance(("inf", "sine"), norm_order, far=False)
    turn = quat_from_axis_angle((0.0, 1.0, 0.0), math.radians(90.0))
    on_path = stacked_interp(0.3, start, final)
    poses = tuple(Pose(pose.v, quat_mul(turn, pose.q)) for pose in on_path.poses)
    return MultiPose(target.names, poses), start, final, params


@pytest.mark.parametrize("norm_order", [math.inf, 2.0, 3.5])
def test_a_scan_with_no_hit_evaluates_only_samples_bounded_by_one(norm_order, monkeypatch):
    args = rotated_off(norm_order)
    got, seen = scan_counting_exact(monkeypatch, oracle_scan_stacked, *args, SCHEDULE_SAMPLES)
    assert got is None
    assert dense_reference_scan(SCHEDULE_SAMPLES, dense_dists_stacked(*args)) is None
    assert seen and all((bounds <= 1.0).all() for bounds in seen)


@pytest.mark.parametrize("seed", ["1", "7", "20260821"])
def test_clamp_oracle_suite_reproduces_its_reference_detail(seed):
    # Every verdict and the largest grid-step gap of the benchmark's reference.
    reference = json.loads(REFERENCES.read_text())["oracle_verify"][seed]
    result = run_clamp_oracle_suite(reference["instances"], int(seed))
    assert result.passed
    assert result.detail == reference["detail"]


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


def dense_reference_scan(n, dists_at):
    """The oracle's scan with no bound: dists_at(ts) scores every sample."""
    ts = 1.0 - np.arange(n, dtype=np.float64) / (n - 1)
    feasible = dists_at(ts) <= 1.0
    return float(ts[np.argmax(feasible)]) if feasible.any() else None


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


UNKNOWN = object()


def case(args, id, n=DYADIC_SAMPLES, expected=UNKNOWN):
    """args, and the t the scan must return (None: no hit) if it is known."""
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
    # Samples 1000 and 1001 tie as the nearest, both outside the ball: no hit.
    case(line_instance([(1000.5, 10.0)], 4.0, k), f"tie-k{k}", expected=None)
    for k in NORM_ORDERS
] + [
    # Limb 0 is at distance exactly 1.0 at x = 1000, limb 1 at 0.0.
    case(line_instance([(1000.0, 4.0), (1000.0, 0.0)], 4.0, k), f"exactly-one-k{k}",
         expected=1000 / 2048)
    for k in NORM_ORDERS
] + [
    # Squares overflow to inf at every sample but x = 0.5e160.
    case(line_instance([(0.5e160, 0.5e150)], 1e150, 3.5, 1e160), "squares-overflow-feasible",
         expected=0.5),
    case(line_instance([(0.5e160, 2e150)], 1e150, math.inf, 1e160), "squares-overflow-far",
         expected=None),
    # d**3.5 overflows to inf farther than about 1e88 from x = 0.5e91.
    case(line_instance([(0.5e91, 5.0)], 1.0, 3.5, 1e91), "power-overflows",
         expected=None),
    # The offset itself overflows: inf everywhere.
    case(line_instance([(1e308, 0.0)], 1.0, math.inf, -1e308), "offset-overflows",
         expected=None),
]
ONE_D_CASES = [
    case((32.5, 10.0, 110.0, 4.0), "feasible", SCHEDULE_SAMPLES),
    case((1.0, 10.0, 110.0, 4.0), "far", SCHEDULE_SAMPLES),
    case((1000.5, 0.0, 2048.0, 0.25), "tie", expected=None),
    case((1004.0, 0.0, 2048.0, 4.0), "exactly-one", expected=1008 / 2048),
    # f - s overflows: inf at every t > 0, NaN at t = 0.
    case((0.0, -1e308, 1e308, 1.0), "overflows", expected=None),
]


def assert_equals_reference(got, want, expected):
    assert got == want and repr(got) == repr(want)
    if expected is not UNKNOWN:
        assert got == expected


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


def bound_rounds_above_the_fold(ys, p_e):
    """Whether, for limbs at these y offsets from a sample, the 2-norm bound
    there rounds above 1 while the exact fold of their distances is <= 1."""
    t2 = np.square(np.array(ys))
    t2 /= p_e * p_e
    bound = np.sqrt(t2.sum(keepdims=True))
    d = np.sqrt(t2)
    d **= 2.0
    fold = d.sum(keepdims=True)
    fold **= 0.5
    return bound[0] > 1.0 >= fold[0]


@TWO_SCHEDULES
def test_oracle_scan_stacked_keeps_a_hit_whose_bound_rounds_above_one(schedule, monkeypatch):
    # Limbs 3 and 4 off a 2-norm ball of radius 5, nudged until the bound at
    # x = 1024 rounds above 1 and the distance does not: only the bound's
    # margin keeps that sample, the only one inside, from being skipped.
    nudged = ([3.0 + i * 2**-50, 4.0 + j * 2**-50] for i in range(64) for j in range(-64, 64))
    ys = next(ys for ys in nudged if bound_rounds_above_the_fold(ys, 5.0))
    args = line_instance([(1024.0, y) for y in ys], 5.0, 2.0)
    got = scan_under(schedule, monkeypatch, oracle_scan_stacked, *args, DYADIC_SAMPLES)
    want = dense_reference_scan(DYADIC_SAMPLES, dense_dists_stacked(*args))
    assert_equals_reference(got, want, 0.5)


# --- metric-axiom suite ------------------------------------------------------

def off_by_one(dist):
    """d + 1: d(a, a) = 1, so every triple breaks identity."""
    return lambda x, y, params: dist(x, y, params) + 1.0


def scaled_by_call(dist):
    """d scaled by a factor that grows with each call: d(a, a) stays 0, and
    d(a, b) != d(b, a) whenever d(a, b) > 0, so every triple breaks symmetry."""
    calls = itertools.count(1)
    return lambda x, y, params: dist(x, y, params) * next(calls)


@pytest.mark.parametrize("family", ["weighted_euclidean", "se3_distance", "stacked_distance"])
@pytest.mark.parametrize("breaker", [off_by_one, scaled_by_call])
def test_metric_axiom_suite_reports_a_broken_family(family, breaker, monkeypatch):
    n = 20
    monkeypatch.setattr(verify, family, breaker(getattr(verify, family)))
    result = verify.run_metric_axiom_suite(n_triples=n)
    assert result.passed is False
    # The broken family fails all n of its triples, so n violations in all
    # leaves none to the other two.
    assert result.detail.startswith(f"{n} violations over {3 * n} triples")
