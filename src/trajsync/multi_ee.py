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
from .metric_core import ClampOutcome, NoSolution, Solution
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

    def __new__(cls, names: Sequence[str], poses: Sequence[Pose]) -> "MultiPose":
        names = tuple(names)
        poses = tuple(poses)
        if len(names) == 0:
            raise ValueError("MultiPose needs at least one end effector")
        if len(names) != len(poses):
            raise ValueError(f"{len(names)} names but {len(poses)} poses")
        if len(set(names)) != len(names):
            raise ValueError(f"end-effector names must be unique: {names}")
        v, q = np.stack([p.v for p in poses]), np.stack([p.q for p in poses])
        return cls._of_arrays(names, v, q)

    @classmethod
    def _of_arrays(cls, names: tuple[str, ...], v: np.ndarray, q: np.ndarray) -> "MultiPose":
        """Wrap (n, 3) translations and (n, 4) unit quaternions as they are,
        unchecked; the arrays become read-only and belong to the result."""
        # The slots are set here, with no helper frame: the step path wraps a
        # state or two every step.
        mp = object.__new__(cls)
        v.setflags(write=False)
        q.setflags(write=False)
        _set_names(mp, names)
        _set_v(mp, v)
        _set_q(mp, q)
        return mp

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
    """``se3.relative_rotation_angle`` of every pair of (..., 4) rows: a (...) array."""
    ws, vecs = [], []
    rows = zip(qa.reshape(-1, 4).tolist(), qb.reshape(-1, 4).tolist())
    for (w1, x1, y1, z1), (w2, x2, y2, z2) in rows:
        x1, y1, z1 = -x1, -y1, -z1  # conj(q_a)
        ws.append(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2)
        vecs.append((
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        ))
    vec = np.array(vecs)
    norms = np.sqrt(_rowdot(vec, vec)).tolist()
    return np.array([2.0 * math.atan2(n, abs(w)) for n, w in zip(norms, ws)]).reshape(qa.shape[:-1])


def _row_distances(xv, yv, xq, yq, p_e, r_e, rot) -> np.ndarray:
    """``se3_distance`` of every limb's pose pair of (..., n, 3) translations
    and (..., n, 4) quaternions under the (n,) ``p_e`` and ``r_e``, as an
    (..., n) array: any leading axes, such as a chunk's steps, broadcast.

    ``rot`` holds the limbs whose rotation counts: a list, empty if none (the
    quaternions are then not read), or a full slice if all. Each pair's
    result depends on that pair alone, so any stack of pose pairs gives each
    pair the bits it gets on its own.
    """
    dv = (yv - xv) / p_e[:, None]
    d2 = _rowdot(dv, dv)
    # A bitwise equal quaternion pair is at relative angle exactly 0 and adds
    # nothing, so rows with equal pairs come out the same whether the angles
    # are computed or skipped.
    if rot and xq.tobytes() != yq.tobytes():
        ang = _relative_angles(xq[..., rot, :], yq[..., rot, :]) / r_e[rot]
        d2[..., rot] += ang * ang
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


class StackedSegment:
    """The stacked LERP/SLERP segment ``start -> final`` under ``params``,
    clamped on ``n_samples`` grid points, with its kernel constants: built
    once per segment and kept by the caller (the controller keeps it in its
    state) for every clamp of that segment.

    ``_last`` is None or ``(v, q, outcome)``: the bytes of the translations
    and quaternions of the latest state clamped, and the outcome returned for
    it. The slot is replaced as one tuple, so a reader never pairs one
    clamp's key with another's outcome.
    """

    __slots__ = ("start", "final", "params", "n_samples", "constants", "_margin", "_last")

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
        self._margin = _kernels.convexity_margin(self.constants) if located else None
        self._last = None

    def clamp(self, state: MultiPose, t_min: float = 0.0) -> ClampOutcome:
        """``clamp_stacked`` of this segment against ``state``: the outcome of
        ``metric_core.hypersphere_clamp`` over ``stacked_interp`` and
        ``params.distance``, its distances from the grid kernel (equal to
        the metric to ~1e-12).

        ``_kernels.located_hit`` is tried first without rotation under the
        infinity norm, else ``_kernels.scan``, which scores the samples at or
        above ``t_min`` first: a caller that discards hits below t passes t.

        The outcome is a function of the segment and the state's bits alone,
        so a state whose translation and quaternion bytes equal the last
        clamp's gets that clamp's outcome back, the same object; one that
        differs in any bit, the sign of a zero included, is clamped afresh.
        A fresh outcome at the last outcome's t reuses its point, which on
        a fixed segment depends on t alone; only a new t is interpolated.
        """
        if state.names != self.start.names:
            _check_names(state, self.start)
        v, q = state._v.tobytes(), state._q.tobytes()
        last = self._last
        if last is not None and last[0] == v and last[1] == q:
            return last[2]
        coeffs, top = _kernels.segment_coefficients(self.constants, state._v, state._q)
        found = self._margin and _kernels.located_hit(coeffs[0], top, self.n_samples, self._margin)
        t, dist = found or _kernels.scan(coeffs, self.n_samples, self.params.norm_order, t_min)
        if found:  # most clamps: a Solution without its dataclass __init__ frame
            outcome = object.__new__(Solution)
            outcome.__dict__.update(point=self._point_at(t), t=t, dist=dist)
        else:
            outcome = (Solution if dist <= 1.0 else NoSolution)(self._point_at(t), t, dist)
        self._last = (v, q, outcome)
        return outcome

    def _point_at(self, t: float) -> MultiPose:
        """The segment's point at ``t``: the last outcome's if it lies at
        that t, else interpolated."""
        last = self._last
        if last is not None:
            o = last[2]
            at, point = (o.t, o.point) if isinstance(o, Solution) else (o.nearest_t, o.nearest_point)
            if at == t:
                return point
        return stacked_interp(t, self.start, self.final)


def clamp_stacked(
    state: MultiPose,
    start: MultiPose,
    final: MultiPose,
    params: MultiMetricParams,
    n_samples: int,
) -> ClampOutcome:
    """Hypersphere clamp specialized to stacked LERP/SLERP segments: the
    outcome of ``StackedSegment.clamp``, whose grid readings are
    ``_kernels``' (``located_hit``, ``scan``). The segment's constants are
    built for this call alone; a caller that clamps one segment again and
    again, or scores a floor first, keeps its ``StackedSegment``.
    """
    return StackedSegment(start, final, params, n_samples).clamp(state)
