"""Stacking n end-effector trajectories and metrics into one space.

All end effectors share a single trajectory parameter t; that shared t is
what synchronizes them. Distances are combined with a k-norm over the
per-effector SE(3) distances; the default is the max (k = infinity), which
makes the slowest or most disturbed limb gate everyone's progress.

A MultiPose holds its poses as one (n, 3) translation array and one (n, 4)
quaternion array, and interpolation and distances work on those arrays
row by row. They equal the per-pose functions of ``se3`` bit for bit: the
same elementwise operations in the same order, every dot product through the
same BLAS call (``se3._rowdot``), and acos/atan2 per limb through ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _kernels
from .metric_core import ClampOutcome, NoSolution, Solution, grid_parameters
from .se3 import (
    FLAT_ARC_ANGLE,
    Pose,
    Se3MetricParams,
    _flips_arc,
    _rowdot,
    _unit_rows,
)


class MultiPose:
    """Ordered poses of n named end effectors (the stacked state).

    Stored as read-only (n, 3) translation and (n, 4) unit-quaternion arrays;
    ``poses`` wraps their rows as ``Pose`` objects on every call.
    """

    __slots__ = ("names", "_v", "_q")

    def __init__(self, names: Sequence[str], poses: Sequence[Pose]):
        names = tuple(names)
        poses = tuple(poses)
        if len(names) == 0:
            raise ValueError("MultiPose needs at least one end effector")
        if len(names) != len(poses):
            raise ValueError(f"{len(names)} names but {len(poses)} poses")
        if len(set(names)) != len(names):
            raise ValueError(f"end-effector names must be unique: {names}")
        v = np.stack([p.v for p in poses])
        q = np.stack([p.q for p in poses])
        self._init(names, v, q)

    @classmethod
    def _of_arrays(cls, names: tuple[str, ...], v: np.ndarray, q: np.ndarray) -> "MultiPose":
        """Wrap (n, 3) translations and (n, 4) unit quaternions as they are,
        unchecked; the arrays become read-only and belong to the result."""
        mp = object.__new__(cls)
        mp._init(names, v, q)
        return mp

    def _init(self, names, v, q) -> None:
        v.setflags(write=False)
        q.setflags(write=False)
        _set_names(self, names)
        _set_v(self, v)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError(f"MultiPose is immutable: cannot set {name!r}")

    def __reduce__(self):
        # The default reduction restores the slots through __setattr__.
        return MultiPose._of_arrays, (self.names, self._v, self._q)

    def __repr__(self) -> str:
        return (
            f"MultiPose(names={self.names!r}, translations={self._v.tolist()!r}, "
            f"quaternions={self._q.tolist()!r})"
        )

    def __len__(self) -> int:
        return len(self.names)

    @property
    def poses(self) -> tuple[Pose, ...]:
        return tuple(Pose._trusted(v, q) for v, q in zip(self._v, self._q))

    def pose_of(self, name: str) -> Pose:
        return self.poses[self.names.index(name)]

    def replace_pose(self, name: str, pose: Pose) -> "MultiPose":
        i = self.names.index(name)
        v = self._v.copy()
        q = self._q.copy()
        v[i] = pose.v
        q[i] = pose.q
        return MultiPose._of_arrays(self.names, v, q)

    def translations(self) -> np.ndarray:
        """(n, 3) read-only array of translations."""
        return self._v

    def quaternions(self) -> np.ndarray:
        """(n, 4) read-only array of unit quaternions."""
        return self._q


# The slots' own setters, which __setattr__ refuses to reach.
_set_names, _set_v, _set_q = (
    MultiPose.__dict__[slot].__set__ for slot in MultiPose.__slots__
)


def multi_pose(pairs: Sequence[tuple[str, Pose]]) -> MultiPose:
    """Build a MultiPose from (name, pose) pairs."""
    return MultiPose(tuple(n for n, _ in pairs), tuple(p for _, p in pairs))


@dataclass(frozen=True)
class MultiMetricParams:
    """Per-effector ball parameters plus the stacking norm order.

    ``norm_order`` may be any k >= 1 or math.inf (the default, taking the
    max of the per-effector distances).
    """

    per_ee: tuple[Se3MetricParams, ...]
    norm_order: float = math.inf

    def __post_init__(self):
        per_ee = tuple(self.per_ee)
        object.__setattr__(self, "per_ee", per_ee)
        if len(per_ee) == 0:
            raise ValueError("per_ee must not be empty")
        if not self.norm_order >= 1:
            raise ValueError(f"norm_order must be >= 1, got {self.norm_order}")

    @staticmethod
    def uniform(
        n: int, p_e: float, r_e: float = math.inf, norm_order: float = math.inf
    ) -> "MultiMetricParams":
        return MultiMetricParams(tuple(Se3MetricParams(p_e, r_e) for _ in range(n)), norm_order)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, list[int] | slice]:
        """(n,) p_e and r_e arrays and the rows whose rotation counts: a list,
        empty if none, or a full slice if all."""
        p_e = np.array([p.p_e for p in self.per_ee])
        r_e = np.array([p.r_e for p in self.per_ee])
        rot = [i for i, p in enumerate(self.per_ee) if not math.isinf(p.r_e)]
        return p_e, r_e, slice(None) if len(rot) == len(self.per_ee) else rot

    def distance(self, x: MultiPose, y: MultiPose) -> float:
        """``stacked_distance(x, y, self)``: the metric these params define."""
        return stacked_distance(x, y, self)


def _translated(mp: MultiPose, offset: np.ndarray) -> MultiPose:
    """Every pose of ``mp`` shifted by ``offset`` (mm), as
    ``Pose(p.v + offset, p.q)`` builds it: quaternions renormalised."""
    return MultiPose._of_arrays(mp.names, mp._v + offset, _unit_rows(mp._q))


def _check_names(a: MultiPose, b: MultiPose):
    if a.names != b.names:
        raise ValueError(f"end-effector mismatch: {a.names} vs {b.names}")


def _check_params(x: MultiPose, params: MultiMetricParams):
    if len(params.per_ee) != len(x.names):
        raise ValueError(
            f"{len(params.per_ee)} metric params for {len(x.names)} end effectors"
        )


_IDENTITY_BYTES = np.array([1.0, 0.0, 0.0, 0.0]).tobytes()


def _slerp_rows(qs: np.ndarray, qf: np.ndarray, t) -> np.ndarray:
    """``se3.slerp`` of every row pair, renormalised as ``Pose`` renormalises.

    ``t`` is one parameter for every row, or a list with one per row.
    """
    # Rows that are exactly (1, 0, 0, 0), bit for bit, come out of the general
    # path unchanged (a flat arc whose (1 - t) + t normalises back to 1), so
    # rotation-free stacks skip it.
    identity = _IDENTITY_BYTES * len(qs)
    if qs.tobytes() == identity and qf.tobytes() == identity:
        return qs
    ts = t if isinstance(t, list) else [t] * len(qs)
    c_s, c_f, flat = [], [], []
    rows = zip(_rowdot(qs, qf).tolist(), qf.tolist(), ts)
    for i, (dot, q_f, ti) in enumerate(rows):
        # |q_s . -q_f| equals |q_s . q_f| bit for bit, so one dot serves both.
        omega = math.acos(min(1.0, abs(dot)))
        if omega < FLAT_ARC_ANGLE:
            a, b = 1.0 - ti, ti
            flat.append(i)
        else:
            so = math.sin(omega)
            a, b = math.sin((1.0 - ti) * omega) / so, math.sin(ti * omega) / so
        c_s.append(a)
        c_f.append(-b if _flips_arc(dot, q_f) else b)
    out = np.array(c_s)[:, None] * qs + np.array(c_f)[:, None] * qf
    if flat:
        out[flat] = _unit_rows(out[flat])
    return _unit_rows(out)


def _relative_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """``se3.relative_rotation_angle`` of every row pair."""
    ws, vecs = [], []
    for (w1, x1, y1, z1), (w2, x2, y2, z2) in zip(qa.tolist(), qb.tolist()):
        x1, y1, z1 = -x1, -y1, -z1  # conj(q_a)
        ws.append(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2)
        vecs.append((
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        ))
    vec = np.array(vecs)
    norms = np.sqrt(_rowdot(vec, vec)).tolist()
    return np.array([2.0 * math.atan2(n, abs(w)) for n, w in zip(norms, ws)])


def _row_distances(xv, yv, xq, yq, p_e, r_e, rot) -> np.ndarray:
    """``se3_distance`` of every row pair of (N, 3) translations and (N, 4)
    quaternions under the (N,) ``p_e`` and ``r_e``, as an (N,) array.

    ``rot`` holds the rows whose rotation counts: a list, empty if none (the
    quaternions are then not read), or a full slice if all. Each row's
    result depends on that row alone, so any stack of pose pairs gives each
    pair the bits it gets on its own.
    """
    dv = (yv - xv) / p_e[:, None]
    d2 = _rowdot(dv, dv)
    # A bitwise equal quaternion pair is at relative angle exactly 0 and adds
    # nothing, so rows with equal pairs come out the same whether the angles
    # are computed or skipped.
    if rot and xq.tobytes() != yq.tobytes():
        ang = _relative_angles(xq[rot], yq[rot]) / r_e[rot]
        d2[rot] += ang * ang
    return np.sqrt(d2)


def _ee_distances(x: MultiPose, y: MultiPose, params: MultiMetricParams) -> np.ndarray:
    """``se3_distance`` of every effector pair, as an (n,) array."""
    _check_names(x, y)
    _check_params(x, params)
    return _row_distances(x._v, y._v, x._q, y._q, *params._columns)


def stacked_interp(t: float, start: MultiPose, final: MultiPose) -> MultiPose:
    """Component-wise SE(3) interpolation at one shared parameter t."""
    _check_names(start, final)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"trajectory parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return start
    if t == 1.0:
        return final
    v = (1.0 - t) * start._v + t * final._v
    return MultiPose._of_arrays(start.names, v, _slerp_rows(start._q, final._q, t))


def stacked_distance(x: MultiPose, y: MultiPose, params: MultiMetricParams) -> float:
    """k-norm of the per-effector SE(3) distances."""
    dists = _ee_distances(x, y, params)
    if math.isinf(params.norm_order):
        return float(dists.max())
    return float(np.linalg.norm(dists, ord=params.norm_order))


def per_ee_distances(x: MultiPose, y: MultiPose, params: MultiMetricParams) -> tuple[float, ...]:
    return tuple(_ee_distances(x, y, params).tolist())


def _convexity_margin(ta) -> float:
    """How far above 1 a sample must read for the first feasible sample
    below it to be the clamp's hit, on a rotation-free stack whose limbs
    travel ``ta`` = |dv_i|**2 / p_e_i**2 along the segment.

    Without rotation, limb i is at D_i(t) = |dv_i t + sv_i| / p_e_i from the
    state (sv_i = vs_i - vy_i), taking the floats the coefficients are built
    from as exact: the norm of an affine function of t, so convex, and so is
    their k-norm D (k >= 1). Let F be the kernel's reading of D and e a bound
    on |F - D| where D <= 2. Take the located pair t_0 = ts[i - 1] and
    t_p = ts[i] of ``_located_hit``, with no sample between them. If
    F(t_0) > 1 and F(t_p) <= 1, a sample t' > t_0 with F(t') <= 1 would give
    D(t_p), D(t') <= 1 + e, so D(t_0) <= 1 + e by convexity and
    F(t_0) <= 1 + 2e. So F(t_0) above 1 + 2e, inf included, rules t' out, in
    the floats as in exact arithmetic, and t_p is the grid's first feasible
    sample: the hit.

    The bound e, with eps = 2**-52, a_i = sqrt(ta_i) and c_i = |sv_i| / p_e_i:
    the coefficients (3-term dot products, quotients by the rounded p_e**2)
    and the quadratic's evaluation at t in [0, 1] (four operations) leave the
    squared limb distance within 6.5 eps (a_i + c_i)**2 of D_i**2, since
    |tb_i| <= 2 a_i c_i. Its root is then within sqrt(6.5 eps) (a_i + c_i) of
    D_i, and rounds by eps; a root, not the square, because a limb near
    D_i = 0 adds its whole error to a sum of roots when k < 2. The k-norm
    moves by at most the 1-norm of the limbs' errors, and the fold's powers,
    sum and root add (n + 4) eps near 1 (nothing for k = inf, where
    F = max_i r_i bit for bit; a power that underflows loses under 2**-1074
    of a sum near 1). The state enters only through c_i <= D_i(t_p) + a_i
    <= 2 + a_i, the triangle inequality at the feasible t_p. So
    e < n (sqrt(8 eps) (2 max_i a_i + 2) + 8 eps), and the margin is twice
    that. F(t_p) <= 1 bounds D(t_p) by 2 only while e is small: past
    e = 1/8 (limbs that travel some 10**5 balls) the margin is inf. A NaN
    coefficient makes every kernel reading NaN, which fails the comparison.
    """
    eps = 2.0**-52
    e = len(ta) * (math.sqrt(8.0 * eps) * (2.0 * math.sqrt(max(ta)) + 2.0) + 8.0 * eps)
    return 2.0 * e if e <= 0.125 else math.inf


class StackedSegment:
    """The stacked LERP/SLERP segment ``start -> final`` under ``params``,
    clamped on ``n_samples`` grid points, with its kernel constants: built
    once per segment and kept by the caller (the controller keeps it in its
    state) for every clamp of that segment.
    """

    __slots__ = ("start", "final", "params", "n_samples", "constants", "_margin")

    def __init__(
        self, start: MultiPose, final: MultiPose, params: MultiMetricParams, n_samples: int
    ):
        _check_names(start, final)
        _check_params(start, params)
        if n_samples < 2:  # as grid_parameters, which a located hit never calls
            raise ValueError(f"sample count must be >= 2, got {n_samples}")
        self.start = start
        self.final = final
        self.params = params
        self.n_samples = n_samples
        p_e, r_e, rot = params._columns
        self.constants = _kernels.segment_constants(
            start._v, final._v, start._q, final._q, p_e, r_e, rot
        )
        # None with rotation, where D is not convex in t, and under a finite
        # norm order, whose clamp always scores the grid.
        located = not rot and math.isinf(params.norm_order)
        self._margin = _convexity_margin([ta for *_, ta in self.constants[0]]) if located else None

    def clamp(self, state: MultiPose, t_min: float = 0.0) -> ClampOutcome:
        """``clamp_stacked`` of this segment against ``state``: the outcome of
        ``metric_core.hypersphere_clamp`` over ``stacked_interp`` and
        ``params.distance``, its distances from the grid kernel (equal to
        the metric to ~1e-12).

        Without rotation under the infinity norm, the hit is first located
        in closed form and certified by two samples read as the kernel
        reads them (``_located_hit``); a certified hit calls no kernel.
        Otherwise the grid is scored, and ``t_min`` orders that work, never
        the outcome: the samples at or above it are scored first, and the
        rest only when none of those is within the ball. A caller that
        discards hits below some t passes that t.
        """
        _check_names(state, self.start)
        coeffs = _kernels.segment_coefficients(self.constants, state._v, state._q)
        if self._margin is not None:
            hit = self._located_hit(coeffs[0])
            if hit is not None:
                return hit
        k = self.params.norm_order
        n = self.n_samples
        ts = grid_parameters(n)
        j = (np.count_nonzero(ts >= t_min) if t_min > 0.0 else 0) or n  # none above: all at once
        dists = _kernels.grid_distances(ts[:j], coeffs, k)
        feasible = dists <= 1.0
        if j < n and not feasible.any():
            dists = np.concatenate((dists, _kernels.grid_distances(ts[j:], coeffs, k)))
            feasible = dists <= 1.0
        hit = bool(feasible.any())
        # The first feasible sample, or the first minimum: the largest t.
        i = int(np.argmax(feasible) if hit else np.argmin(dists))
        t = float(ts[i])
        outcome = Solution if hit else NoSolution
        return outcome(stacked_interp(t, self.start, self.final), t, float(dists[i]))

    def _located_hit(self, limbs) -> Solution | None:
        """The infinity-norm clamp's hit without the grid kernel, or None.

        Under the infinity norm a rotation-free stack is within the ball
        where ta_i t**2 + tb_i t + tc_i <= 1 for every limb i: an interval
        of t, whose top is the least of the limbs' upper roots (and 1). The
        roots only propose i, the index of the highest sample at or below
        that top; ``_kernels.scalar_inf_distances`` then reads ts[i] and
        ts[i - 1] in one pass, bit for bit as the grid kernel would (the
        second unused when i = 0). ts[i] is the hit
        when it reads inside the ball and either i = 0 or ts[i - 1] reads
        above 1 + margin (see ``_convexity_margin``; while the margin is
        finite every limb travels under 1.5e6 balls, so a sample next to a
        feasible one reads finite).
        Anything else returns None: an empty interval (a miss), a proposal
        off by a rounding, a non-finite coefficient, or an infinite margin.
        ``limbs`` are ``segment_coefficients``' per-limb (ta, tb, tc).
        """
        # ta is finite wherever the margin is; a NaN or inf anywhere in tb or
        # tc makes this sum one too, and the reading's comparisons pass a NaN over.
        if not math.isfinite(sum([b + c for _, b, c in limbs])):
            return None
        top = 1.0
        for a, b, c in limbs:
            root = top  # then top = min(top, root), without the call
            if a > 0.0:
                disc = b * b - 4.0 * a * (c - 1.0)
                if disc < 0.0:
                    return None  # never inside its ball
                s = math.sqrt(disc)
                # the upper root, in the form without cancellation
                root = (s - b) / (2.0 * a) if b <= 0.0 else 2.0 * (1.0 - c) / (b + s)
            elif b > 0.0:
                root = (1.0 - c) / b
            if root < top:
                top = root
        if not top >= 0.0:
            return None
        last = self.n_samples - 1
        i = math.ceil((1.0 - top) * last)
        t = 1.0 - i / last  # ts[i] bit for bit: the same two IEEE operations
        dist, above = _kernels.scalar_inf_distances(limbs, t, 1.0 - (i - 1) / last)
        if not dist <= 1.0 or i and not above > 1.0 + self._margin:
            return None
        return Solution(stacked_interp(t, self.start, self.final), t, dist)


def clamp_stacked(
    state: MultiPose,
    start: MultiPose,
    final: MultiPose,
    params: MultiMetricParams,
    n_samples: int,
) -> ClampOutcome:
    """Hypersphere clamp specialized to stacked LERP/SLERP segments.

    Without rotation under the infinity norm the hit is located in closed
    form and certified by two samples, with no grid scored. Otherwise the
    whole grid is scored in one kernel call.
    The segment's constants are built for this call alone; a caller that
    clamps one segment again and again, or scores a floor first, keeps its
    ``StackedSegment`` (see ``StackedSegment.clamp``).
    """
    return StackedSegment(start, final, params, n_samples).clamp(state)
