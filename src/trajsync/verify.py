"""Brute-force oracles and randomized sweeps for the clamp and its metrics.

The clamp oracle re-solves randomized instances on a fixed one-million-sample
grid using direct evaluation (translation by explicit interpolation, rotation
by sine-weight spherical interpolation dots), deliberately avoiding the
precomputed-coefficient route the library kernels use, so the two
implementations share no code path beyond quaternion sign alignment.

The scan is bound first, then exact. A cheap lower bound on the distance
(for a stacked segment, a norm of the limbs' translation-only distances: no
sines) is computed at every sample; the exact distance is computed only
where the bound leaves the answer open. Phase 1 looks for the largest
feasible t and evaluates exactly only samples whose bound is <= 1; phase 2,
when none is feasible, looks for the nearest sample and evaluates exactly
only samples whose bound is below the nearest distance known so far. A
skipped sample's distance is at least its bound, so it can be neither
feasible nor nearer, and every result is the one a scan that evaluated every
sample exactly would return, bit for bit.

Suites are deterministic: every instance derives from a fixed seed.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .metric_core import (
    ClampConfig,
    NoSolution,
    Solution,
    hypersphere_clamp,
    sample_count,
)
from .multi_ee import (
    MultiMetricParams,
    MultiPose,
    _check_names,
    _check_params,
    clamp_stacked,
    stacked_distance,
    stacked_interp,
)
from .se3 import (
    FLAT_ARC_ANGLE,
    Pose,
    Se3MetricParams,
    aligned_quat,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    rotations_equal,
    slerp,
)

ORACLE_SAMPLES = 1_000_000

# Scan chunks grow geometrically from _CHUNK_FIRST, since feasible-t instances
# usually resolve close to t = 1, and stop at _CHUNK_MAX. The cap keeps each
# workspace buffer at 128 KB, so a chunk's working set stays in a core's L2
# cache through the ~25 elementwise passes per limb. Sweep of the cap on a
# 2-core Xeon (2 MB L2 per core), numpy 2.4, least time of a full infeasible
# 10^6-sample scan, over two runs of interleaved caps:
#     cap        1 limb      2 limbs     6 limbs   (sine arcs)
#       8 192    29 ms       56 ms       161-166 ms
#      16 384    26-28 ms    51-53 ms    155-158 ms
#      32 768    27 ms       52 ms       152-154 ms
#      65 536    29-30 ms    54-56 ms    152-156 ms
#     262 144    37-38 ms    65-68 ms    178-183 ms
# The clamp-oracle suite (200 instances at two seeds, best of 3) ran faster at
# 16 384 than at 32 768 in 6 of 6 alternating runs (medians 4.25 s vs 4.55 s):
# a feasible scan stops inside a smaller chunk.
_CHUNK_FIRST = 8_192
_CHUNK_MAX = 16_384


def _chunk_bounds(n_samples: int):
    lo = 0
    size = _CHUNK_FIRST
    while lo < n_samples:
        hi = min(lo + size, n_samples)
        yield lo, hi
        lo = hi
        size = min(size * 2, _CHUNK_MAX)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    wall_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.detail}; {self.wall_s:.1f} s)"


class _Workspace:
    """Chunk buffers of _CHUNK_MAX samples, reused across chunks and scans.

    Eight float64 buffers of 128 KB and two bool buffers, about 1 MB per
    thread: small enough that a chunk's passes run out of a core's L2 cache
    rather than main memory. Every scan writes into views of these, so once
    a thread has built its workspace a scan allocates no array at all.
    """

    def __init__(self):
        self.idx = np.arange(_CHUNK_MAX, dtype=np.float64)
        self.ts = np.empty(_CHUNK_MAX)
        self.rev = np.empty(_CHUNK_MAX)  # 1 - ts, shared by every limb
        self.dists = np.empty(_CHUNK_MAX)  # what the scan tests against 1
        self.limb = np.empty(_CHUNK_MAX)
        self.tmp = tuple(np.empty(_CHUNK_MAX) for _ in range(3))
        self.feasible = np.empty(_CHUNK_MAX, dtype=bool)
        self.flipped = np.empty(_CHUNK_MAX, dtype=bool)


_local = threading.local()


def _workspace() -> _Workspace:
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = _Workspace()
    return ws


def _chunk_ts(ws: _Workspace, lo: int, hi: int, n_samples: int) -> np.ndarray:
    """The grid's t at samples lo..hi-1, descending from t = 1."""
    ts = np.add(ws.idx[: hi - lo], lo, out=ws.ts[: hi - lo])
    ts /= n_samples - 1
    return np.subtract(1.0, ts, out=ts)


def _span(mask: np.ndarray, flipped: np.ndarray) -> tuple[int, int] | None:
    """(first, last + 1) of the True entries of mask, or None if there are none.

    flipped is scratch of mask's length: argmax of a reversed view would
    copy it.
    """
    first = int(np.argmax(mask))
    if not mask[first]:
        return None
    np.copyto(flipped, mask[::-1])
    return first, len(mask) - int(np.argmax(flipped))


def _scan(n_samples: int, bound, exact) -> tuple[bool, float, float]:
    """Descending-grid scan, bound first, then exact evaluation.

    bound(ts, ws) returns a lower bound on the distance at every t of a
    chunk, exact(ts, ws) the distance itself at every t it is given; both
    may write ws.dists, so a bound is read only before exact is called. The
    result is the one a single pass of exact over every chunk returns: the
    first sample (largest t) at distance <= 1, else the first sample of
    least distance (see oracle_scan_1d).

    Phase 1 bounds each chunk in descending order. A sample whose bound
    exceeds 1 has a distance above 1, so exact runs only over the span from
    the first to the last sample whose bound is <= 1, and the first sample
    there at distance <= 1 is the answer. Each chunk's least bound, and
    where it falls, is recorded.

    Phase 2 runs only when no sample is feasible. best_dist, the limit,
    starts just above the exact distance at the sample of least bound, so
    the nearest distance lies below it. A chunk whose least bound reaches
    the limit is skipped; in any other chunk exact runs over the span of
    samples whose bound is below it, and the limit falls to each strictly
    smaller distance found there. A skipped sample's distance is at least
    the limit, so it can neither be nearer nor tie the nearest from a
    later chunk, and within a span argmin keeps the first of equals: ties
    still go to the larger t. A NaN bound means a NaN distance at that
    sample; a chunk holding one is skipped, as a full pass's argmin, which
    returns the NaN, leaves such a chunk out.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    ws = _workspace()
    least = []  # each chunk's least bound
    seed, seed_bound = None, math.inf  # (lo, hi, j) of the least bound of all
    for lo, hi in _chunk_bounds(n_samples):
        ts = _chunk_ts(ws, lo, hi, n_samples)
        lb = bound(ts, ws)
        j = int(np.argmin(lb))
        least.append(float(lb[j]))
        if least[-1] < seed_bound:
            seed, seed_bound = (lo, hi, j), least[-1]
        m = hi - lo
        span = _span(np.less_equal(lb, 1.0, out=ws.feasible[:m]), ws.flipped[:m])
        if span is None:
            continue
        first, last = span
        dists = exact(ts[first:last], ws)
        feasible = np.less_equal(dists, 1.0, out=ws.feasible[: last - first])
        if feasible.any():
            j = int(np.argmax(feasible))
            return True, float(ts[first + j]), float(dists[j])

    if seed is None:  # every distance is inf or NaN
        return False, 1.0, math.inf
    lo, hi, j = seed
    ts = _chunk_ts(ws, lo, hi, n_samples)
    best_dist = math.nextafter(float(exact(ts[j : j + 1], ws)[0]), math.inf)
    best_t = 1.0
    for (lo, hi), lb_least in zip(_chunk_bounds(n_samples), least):
        if not lb_least < best_dist:
            continue
        ts = _chunk_ts(ws, lo, hi, n_samples)
        lb = bound(ts, ws)
        m = hi - lo
        first, last = _span(np.less(lb, best_dist, out=ws.feasible[:m]), ws.flipped[:m])
        dists = exact(ts[first:last], ws)
        j = int(np.argmin(dists))
        if dists[j] < best_dist:
            best_dist = float(dists[j])
            best_t = float(ts[first + j])
    return False, best_t, best_dist


def oracle_scan_1d(
    y: float, s: float, f: float, p: float, n_samples: int = ORACLE_SAMPLES
) -> tuple[bool, float, float]:
    """Dense descending-grid scan of |y - lerp(t)| / p.

    Returns (feasible, t, dist): the largest feasible t when one exists,
    otherwise the nearest sample (ties to larger t).
    """
    for name, value in (("y", y), ("s", s), ("f", f), ("p", p)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")

    def chunk_dists(ts, ws):
        d = np.multiply(ts, f - s, out=ws.dists[: len(ts)])
        d += s
        np.subtract(y, d, out=d)
        np.abs(d, out=d)
        d /= p
        return d

    # The distance is as cheap as any bound on it, so it is its own bound.
    return _scan(n_samples, chunk_dists, chunk_dists)


def _limb_constants(start: Pose, final: Pose, target: Pose):
    """Per-limb scan constants for the direct-evaluation route."""
    q_f = aligned_quat(start.q, final.q)
    dot_sf = min(1.0, max(-1.0, float(np.dot(start.q, q_f))))
    omega = math.acos(dot_sf)
    c1 = float(np.dot(start.q, target.q))
    c2 = float(np.dot(q_f, target.q))
    offset = (target.v - start.v).tolist()
    seg = (final.v - start.v).tolist()
    return offset, seg, omega, dot_sf, c1, c2


def _rotation_dot(ts, rev, consts, a, b, c) -> np.ndarray:
    """|<q(t), q_target>| into a, with q(t) the SLERP of the limb's arc.

    rev holds 1 - ts.
    """
    _, _, omega, dot_sf, c1, c2 = consts
    if omega >= FLAT_ARC_ANGLE:
        sin_om = math.sin(omega)
        np.multiply(rev, omega, out=a)
        np.sin(a, out=a)
        a /= sin_om
        a *= c1
        np.multiply(ts, omega, out=b)
        np.sin(b, out=b)
        b /= sin_om
        b *= c2
        a += b
        return np.abs(a, out=a)
    # Near-zero arc: normalized LERP of the quaternions.
    np.square(rev, out=b)
    np.square(ts, out=c)
    b += c
    np.multiply(ts, 2.0, out=c)
    c *= rev
    c *= dot_sf
    b += c
    np.sqrt(b, out=b)
    np.multiply(rev, c1, out=a)
    np.multiply(ts, c2, out=c)
    a += c
    np.abs(a, out=a)
    a /= b
    return a


def _translation_term(
    out: np.ndarray, ts: np.ndarray, consts, params: Se3MetricParams, a: np.ndarray
) -> np.ndarray:
    """One limb's squared normalized translation distance at every t, into out.

    _chunk_dists_se3 adds the rotation term to exactly these bits, so
    sqrt(out) is a lower bound on the limb's distance bit for bit.
    """
    offset, seg = consts[:2]
    # The first axis's square goes straight into out: the same bits as
    # adding it to zeros, since 0.0 + x == x for every x >= +0.
    np.multiply(ts, seg[0], out=out)
    np.subtract(offset[0], out, out=out)
    np.square(out, out=out)
    for off_ax, seg_ax in zip(offset[1:], seg[1:]):
        np.multiply(ts, seg_ax, out=a)
        np.subtract(off_ax, a, out=a)
        np.square(a, out=a)
        out += a
    out /= params.p_e * params.p_e
    return out


def _chunk_dists_se3(
    out: np.ndarray,
    ts: np.ndarray,
    rev: np.ndarray,
    consts,
    params: Se3MetricParams,
    tmp,
) -> np.ndarray:
    """One limb's normalized distance at every t of the chunk, into out.

    rev holds 1 - ts.
    """
    a, b, c = (buf[: len(ts)] for buf in tmp)
    _translation_term(out, ts, consts, params, a)
    if not math.isinf(params.r_e):
        rd = _rotation_dot(ts, rev, consts, a, b, c)
        np.minimum(rd, 1.0, out=rd)
        np.arccos(rd, out=rd)
        rd *= 2.0
        rd /= params.r_e
        np.square(rd, out=rd)
        out += rd
    return np.sqrt(out, out=out)


# The stacked bound is a norm of the limbs' translation-only distances
# sqrt(T_i) <= d_i: the stacked k-norm of the d_i is at least their 2-norm
# when k <= 2 and at least their largest when k > 2, so the bound is
# sqrt(sum T_i) or sqrt(max T_i), one fold pass per limb either way.
# For k = inf it holds bit for bit: sqrt(max T_i) = max sqrt(T_i), and the
# exact fold takes the max of sqrt(T_i + R_i) >= sqrt(T_i). For a finite k it
# holds up to rounding: the bound's sum and square root may round up, and the
# exact fold's powers, sum and 1/k-th power may round down, by a few ulps in
# all, plus 2**-53 * ln(sum d_i**k) <= 8e-14 relative for 1/k being rounded.
# The bound is only tested above 1, where the powers sum to more than about
# 1, so a power that underflows loses nothing that counts; a sum that
# overflows is inf, which no bound exceeds. A relative margin of 1e-9 is four
# orders of magnitude above all of that.
_FOLD_MARGIN = 1.0 - 1e-9


def oracle_scan_stacked(
    target: MultiPose,
    start: MultiPose,
    final: MultiPose,
    params: MultiMetricParams,
    n_samples: int = ORACLE_SAMPLES,
) -> tuple[bool, float, float]:
    """Dense descending-grid scan of the stacked distance.

    Same return convention as oracle_scan_1d. The lower bound is a norm of
    the limbs' translation-only distances (see _FOLD_MARGIN): it needs no
    sine.
    """
    _check_names(start, final)
    _check_names(start, target)
    _check_params(start, params)
    consts = [
        _limb_constants(s, f, y)
        for s, f, y in zip(start.poses, final.poses, target.poses)
    ]
    limbs = list(zip(consts, params.per_ee))
    k = params.norm_order
    fold = np.add if k <= 2 else np.maximum

    def bound(ts, ws):
        m = len(ts)
        acc = ws.dists[:m]
        for i, (c, p) in enumerate(limbs):
            t2 = _translation_term(ws.limb[:m] if i else acc, ts, c, p, ws.tmp[0][:m])
            if i:
                fold(acc, t2, out=acc)
        np.sqrt(acc, out=acc)
        if not math.isinf(k):
            acc *= _FOLD_MARGIN
        return acc

    def chunk_dists(ts, ws):
        m = len(ts)
        rev = np.subtract(1.0, ts, out=ws.rev[:m])
        # Fold limb by limb: running max, or running sum of k-th powers.
        acc = ws.dists[:m]
        for i, (c, p) in enumerate(limbs):
            d = _chunk_dists_se3(ws.limb[:m] if i else acc, ts, rev, c, p, ws.tmp)
            if math.isinf(k):
                if i:
                    np.maximum(acc, d, out=acc)
            else:
                d **= k
                if i:
                    acc += d
        if not math.isinf(k):
            acc **= 1.0 / k
        return acc

    return _scan(n_samples, bound, chunk_dists)


def _random_pose(rng: np.random.Generator, scale: float = 100.0) -> Pose:
    v = rng.normal(0.0, scale, 3)
    q = quat_normalize(rng.normal(0.0, 1.0, 4))
    return Pose(v, q)


def _random_metric(rng: np.random.Generator, n: int) -> MultiMetricParams:
    per_ee = []
    for _ in range(n):
        p_e = float(rng.uniform(5.0, 50.0))
        if rng.uniform() < 0.25:
            r_e = math.inf
        else:
            r_e = float(rng.uniform(math.radians(10.0), math.radians(90.0)))
        per_ee.append(Se3MetricParams(p_e=p_e, r_e=r_e))
    norm_order = math.inf if rng.uniform() < 0.7 else 2.0
    return MultiMetricParams(tuple(per_ee), norm_order=norm_order)


def _perturbed_target(
    rng: np.random.Generator,
    start: MultiPose,
    final: MultiPose,
    params: MultiMetricParams,
    far: bool,
) -> MultiPose:
    u = float(rng.uniform(0.0, 1.0))
    on_path = stacked_interp(u, start, final)
    poses = []
    for pose, p in zip(on_path.poses, params.per_ee):
        radial = rng.uniform(1.4, 3.0) if far else rng.uniform(0.0, 0.8)
        direction = rng.normal(0.0, 1.0, 3)
        direction /= np.linalg.norm(direction)
        v = pose.v + direction * radial * p.p_e
        if math.isinf(p.r_e):
            q = quat_normalize(rng.normal(0.0, 1.0, 4))
        else:
            axis = rng.normal(0.0, 1.0, 3)
            axis /= np.linalg.norm(axis)
            rot_frac = rng.uniform(0.0, 0.5) if not far else rng.uniform(0.0, 0.3)
            dq = quat_from_axis_angle(axis, rot_frac * p.r_e)
            q = quat_mul(dq, pose.q)
        poses.append(Pose(v, q))
    return MultiPose(start.names, tuple(poses))


def run_clamp_oracle_suite(
    n_instances: int = 1000, seed: int = 20260821, oracle_samples: int = ORACLE_SAMPLES
) -> SuiteResult:
    """Randomized clamp instances vs the dense oracle.

    For every instance the clamp's t must land within one of its own grid
    steps, 1/(I-1), of the oracle's t, and feasible/no-feasible verdicts
    must agree.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be at least 1, got {n_instances}")
    if oracle_samples < 2:
        raise ValueError(f"oracle_samples must be at least 2, got {oracle_samples}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    # Weighted toward the cheap strata; the oracle's dense scan costs grow
    # with the end-effector count. Every stratum keeps a deterministic share
    # of no-feasible-sample instances (full scans) via the modulus below.
    n_1d = int(n_instances * 0.62)
    remaining = n_instances - n_1d
    se3_counts = {1: remaining * 10 // 19, 2: remaining * 6 // 19}
    se3_counts[6] = remaining - se3_counts[1] - se3_counts[2]
    far_modulus = {1: 5, 2: 6, 6: 8}

    checked = 0
    max_dt = 0.0
    failures: list[str] = []

    def check(label, got, want_feasible, want_t, n):
        nonlocal checked, max_dt
        checked += 1
        if isinstance(got, Solution) != want_feasible:
            failures.append(
                f"{label}: verdict mismatch (clamp "
                f"{'Solution' if isinstance(got, Solution) else 'NoSolution'}, "
                f"oracle {'feasible' if want_feasible else 'infeasible'})"
            )
        elif isinstance(got, Solution):
            dt = abs(got.t - want_t)
            max_dt = max(max_dt, dt * (n - 1))
            if dt > 1.0 / (n - 1) + 1e-12:
                failures.append(f"{label}: |dt|={dt:.3e} > 1/(I-1)={1/(n-1):.3e}")

    def lerp1(t, s, f):
        return s + t * (f - s)

    for i in range(n_1d):
        p = float(rng.uniform(1.0, 20.0))
        s = float(rng.normal(0.0, 50.0))
        length = float(rng.uniform(0.3, 8.0)) * p
        f = s + length * (1.0 if rng.uniform() < 0.5 else -1.0)
        far = rng.uniform() < 0.2
        u = float(rng.uniform(0.0, 1.0))
        offset = (rng.uniform(1.4, 3.0) if far else rng.uniform(0.0, 0.8)) * p
        y = lerp1(u, s, f) + offset * (1.0 if rng.uniform() < 0.5 else -1.0)
        cfg = ClampConfig()
        metric = lambda a, b: abs(a - b) / p
        n = sample_count(s, f, metric, cfg)
        got = hypersphere_clamp(y, s, f, lerp1, metric, n)
        want_feasible, want_t, _ = oracle_scan_1d(y, s, f, p, oracle_samples)
        check(f"1d[{i}]", got, want_feasible, want_t, n)

    for n_ee, count in se3_counts.items():
        for i in range(count):
            params = _random_metric(rng, n_ee)
            names = tuple(f"ee{j}" for j in range(n_ee))
            start = MultiPose(names, tuple(_random_pose(rng) for _ in range(n_ee)))
            # Keep segments a few ball-radii long so sample counts stay modest.
            finals = []
            for pose, p in zip(start.poses, params.per_ee):
                direction = rng.normal(0.0, 1.0, 3)
                direction /= np.linalg.norm(direction)
                v = pose.v + direction * float(rng.uniform(0.5, 6.0)) * p.p_e
                axis = rng.normal(0.0, 1.0, 3)
                axis /= np.linalg.norm(axis)
                angle = float(rng.uniform(0.0, math.pi / 2))
                q = quat_mul(quat_from_axis_angle(axis, angle), pose.q)
                finals.append(Pose(v, q))
            final = MultiPose(names, tuple(finals))
            far = i % far_modulus[n_ee] == far_modulus[n_ee] - 1
            target = _perturbed_target(rng, start, final, params, far)
            cfg = ClampConfig()
            n = sample_count(start, final, params.distance, cfg)
            got = clamp_stacked(target, start, final, params, n)
            want_feasible, want_t, _ = oracle_scan_stacked(
                target, start, final, params, oracle_samples
            )
            check(f"se3x{n_ee}[{i}]", got, want_feasible, want_t, n)

    wall = time.perf_counter() - t0
    if failures:
        detail = f"{len(failures)} mismatches of {checked}: " + "; ".join(failures[:5])
        return SuiteResult("clamp-oracle", False, detail, wall)
    detail = (
        f"{checked}/{checked} instances, max |dt| = {max_dt:.3f} grid steps, "
        "NoSolution verdicts agree"
    )
    return SuiteResult("clamp-oracle", True, detail, wall)


def run_metric_axiom_suite(
    n_triples: int = 10_000, seed: int = 7_311_036, tol: float = 1e-9
) -> SuiteResult:
    """Nonnegativity, identity, symmetry, triangle inequality.

    Swept for the weighted-Euclidean vector metric, the single-pose metric,
    and the stacked metric (finite rotation weights, so they are true
    metrics rather than translation-only pseudometrics).
    """
    from .metric_core import weighted_euclidean
    from .se3 import se3_distance

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0

    def check(dab, dba, daa, dac, dbc, label):
        nonlocal violations, worst
        if dab < 0 or daa > tol or abs(dab - dba) > tol:
            violations += 1
            return
        excess = dac - (dab + dbc)
        worst = max(worst, excess)
        if excess > tol:
            violations += 1

    deltas = rng.uniform(0.5, 30.0, size=(n_triples, 4))
    xs = rng.normal(0.0, 40.0, size=(n_triples, 3, 4))
    for i in range(n_triples):
        delta = deltas[i]
        a, b, c = xs[i]
        dab = weighted_euclidean(a, b, delta)
        check(
            dab,
            weighted_euclidean(b, a, delta),
            weighted_euclidean(a, a, delta),
            weighted_euclidean(a, c, delta),
            weighted_euclidean(b, c, delta),
            f"vec[{i}]",
        )

    n_pose = n_triples
    for i in range(n_pose):
        params = Se3MetricParams(
            p_e=float(rng.uniform(5.0, 50.0)),
            r_e=float(rng.uniform(math.radians(10.0), math.radians(170.0))),
        )
        a, b, c = (_random_pose(rng) for _ in range(3))
        check(
            se3_distance(a, b, params),
            se3_distance(b, a, params),
            se3_distance(a, a, params),
            se3_distance(a, c, params),
            se3_distance(b, c, params),
            f"pose[{i}]",
        )

    n_stacked = n_triples
    names = ("ee0", "ee1", "ee2")
    for i in range(n_stacked):
        per_ee = tuple(
            Se3MetricParams(
                p_e=float(rng.uniform(5.0, 50.0)),
                r_e=float(rng.uniform(math.radians(10.0), math.radians(170.0))),
            )
            for _ in range(3)
        )
        params = MultiMetricParams(per_ee, norm_order=math.inf if i % 2 else 2.0)
        a, b, c = (
            MultiPose(names, tuple(_random_pose(rng) for _ in range(3)))
            for _ in range(3)
        )
        check(
            stacked_distance(a, b, params),
            stacked_distance(b, a, params),
            stacked_distance(a, a, params),
            stacked_distance(a, c, params),
            stacked_distance(b, c, params),
            f"stacked[{i}]",
        )

    wall = time.perf_counter() - t0
    total = n_triples + n_pose + n_stacked
    passed = violations == 0
    detail = f"{violations} violations over {total} triples, worst triangle excess {worst:.2e}"
    return SuiteResult("metric-axioms", passed, detail, wall)


def run_slerp_suite(
    n_cases: int = 2000, seed: int = 998_241, tol: float = 1e-8
) -> SuiteResult:
    """Spherical interpolation vs an axis-angle oracle.

    The oracle composes the start rotation with a fraction of the relative
    rotation recovered through atan2 (a different route than the acos-based
    sine weights). Also checks endpoint exactness, sign invariance, and
    constant angular velocity.
    """
    from .se3 import relative_rotation_angle

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for i in range(n_cases):
        q_a = quat_normalize(rng.normal(0.0, 1.0, 4))
        q_b = quat_normalize(rng.normal(0.0, 1.0, 4))
        t = float(rng.uniform(0.0, 1.0))

        q_b_aligned = aligned_quat(q_a, q_b)
        rel = quat_mul(quat_conj(q_a), q_b_aligned)
        xyz = rel[1:]
        sin_half = float(np.linalg.norm(xyz))
        angle = 2.0 * math.atan2(sin_half, float(rel[0]))
        if sin_half > 1e-12:
            axis = xyz / sin_half
            expected = quat_mul(q_a, quat_from_axis_angle(axis, t * angle))
        else:
            expected = q_a
        got = slerp(q_a, q_b, t)
        dev = float(np.abs(aligned_quat(expected, got) - expected).max())
        worst = max(worst, dev)
        if dev > tol:
            failures += 1

        if not np.array_equal(slerp(q_a, q_b, 0.0), q_a):
            failures += 1
        if not rotations_equal(slerp(q_a, q_b, 1.0), q_b, tol=1e-12):
            failures += 1
        if not rotations_equal(slerp(q_a, -q_b, t), got, tol=tol):
            failures += 1

        t2 = float(rng.uniform(0.0, 1.0))
        got2 = slerp(q_a, q_b, t2)
        expected_angle = abs(t2 - t) * angle
        actual_angle = relative_rotation_angle(got, got2)
        if abs(actual_angle - expected_angle) > tol:
            failures += 1
        worst = max(worst, abs(actual_angle - expected_angle))

    wall = time.perf_counter() - t0
    passed = failures == 0
    detail = f"{n_cases} cases, {failures} failures, max deviation {worst:.2e}"
    return SuiteResult("slerp", passed, detail, wall)


ALL_SUITES = {
    "clamp-oracle": run_clamp_oracle_suite,
    "metric-axioms": run_metric_axiom_suite,
    "slerp": run_slerp_suite,
}
