"""SE(3) poses, quaternion interpolation, and the translation/rotation distance.

Poses carry a translation in millimeters and a unit quaternion ``(w, x, y, z)``.
Quaternions ``q`` and ``-q`` denote the same rotation; equality of rotations is
always up to sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this arc half-angle the slerp great circle is numerically flat and
# normalized linear interpolation is exact to machine precision.
FLAT_ARC_ANGLE = 1e-6

# |dot| below this counts as an exact antipode (rotations pi apart); the
# interpolation arc is then ambiguous and a canonical sign rule picks one.
_ANTIPODAL_EPS = 1e-12


def quat_normalize(q) -> np.ndarray:
    """Return q scaled to unit norm as a float64 array (w, x, y, z)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(q))
    if math.isinf(n) and np.isfinite(q).all():
        # The sum of squares overflows once a component exceeds ~1e154; that
        # of q over its largest component cannot.
        q = q / np.abs(q).max()
        n = float(np.linalg.norm(q))
    if not math.isfinite(n) or n < 1e-12:
        raise ValueError("quaternion has zero or non-finite norm")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(axis))
    if n < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) / n * axis))


def rotations_equal(qa: np.ndarray, qb: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the two unit quaternions denote the same rotation (sign-blind)."""
    return bool(
        np.allclose(qa, qb, atol=tol) or np.allclose(qa, -np.asarray(qb), atol=tol)
    )


def aligned_quat(q_s: np.ndarray, q_f: np.ndarray) -> np.ndarray:
    """Return q_f, sign-flipped if needed, so the arc from q_s is the shorter one.

    At an exact antipode (dot == 0 within 1e-12) the two arcs are equally
    short; the sign making the first non-negligible component of q_f positive
    is then chosen, so that +q_f and -q_f resolve identically.
    """
    return -q_f if _flips_arc(float(np.dot(q_s, q_f)), q_f) else q_f


def _flips_arc(dot: float, q_f) -> bool:
    """True when ``aligned_quat`` negates q_f, given dot = q_s . q_f."""
    if abs(dot) <= _ANTIPODAL_EPS:
        for c in q_f:
            if abs(c) > _ANTIPODAL_EPS:
                return c < 0
        return False
    return not dot >= 0


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (n, d) arrays.

    Every row goes through the same BLAS dot as ``np.dot`` of two vectors
    (and so ``np.linalg.norm``), so each result equals the per-row call bit
    for bit; a plain sum of products (``(a * b).sum(1)``, ``einsum``) rounds
    differently.
    """
    return np.vecdot(a, b)


def _unit_rows(q: np.ndarray) -> np.ndarray:
    """Each row of an (n, 4) array scaled to unit norm, as ``quat_normalize``
    scales it (no validation)."""
    return q / np.sqrt(_rowdot(q, q))[:, None]


@dataclass(frozen=True)
class Pose:
    """Rigid-body pose: translation ``v`` in mm, unit quaternion ``q`` (w, x, y, z).

    The quaternion is renormalized on construction; both fields are stored as
    read-only float64 arrays.
    """

    v: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("translation components must be finite")
        q = quat_normalize(self.q)
        v.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "q", q)

    @classmethod
    def _trusted(cls, v: np.ndarray, q: np.ndarray) -> "Pose":
        """A Pose around read-only float64 arrays that are already valid
        (q of unit norm), taken as they are: not checked, not renormalised."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "v", v)
        object.__setattr__(pose, "q", q)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    def translated(self, offset) -> "Pose":
        """Same rotation, translation shifted by ``offset`` (mm)."""
        return Pose(self.v + np.asarray(offset, dtype=np.float64), self.q)


@dataclass(frozen=True)
class Se3MetricParams:
    """Allowed deviation defining the unit ball: ``p_e`` mm translation,
    ``r_e`` radians rotation. ``r_e = math.inf`` ignores rotation entirely."""

    p_e: float
    r_e: float = math.inf

    def __post_init__(self):
        # The distance divides by p_e squared and multiplies by 1 / r_e: a
        # p_e whose square underflows to 0, or a finite r_e whose reciprocal
        # overflows, makes the distance of two equal poses 0/0 or 0*inf. A
        # p_e whose square overflows to inf (the grid kernel squares it)
        # reads every distance as 0, a ball that bounds nothing.
        pe2 = self.p_e * self.p_e
        if not (math.isfinite(pe2) and self.p_e > 0 and pe2 > 0):
            raise ValueError(
                f"p_e must be > 0, with a square that is finite and above 0, got {self.p_e}"
            )
        if not self.r_e > 0 or (math.isfinite(self.r_e) and math.isinf(1.0 / self.r_e)):
            raise ValueError(
                f"r_e must be > 0 (inf allowed), with a finite reciprocal, got {self.r_e}"
            )


def slerp(q_s: np.ndarray, q_f: np.ndarray, t: float) -> np.ndarray:
    """Spherical linear interpolation along the shorter arc.

    Constant angular velocity in ``t``; t=0 gives q_s, t=1 gives q_f up to
    sign. For nearly identical rotations the arc is flat and normalized
    linear interpolation is used instead.
    """
    q_f = aligned_quat(q_s, q_f)
    dot = min(1.0, abs(float(np.dot(q_s, q_f))))
    omega = math.acos(dot)
    if omega < FLAT_ARC_ANGLE:
        out = (1.0 - t) * q_s + t * q_f
        return out / np.linalg.norm(out)
    so = math.sin(omega)
    return (math.sin((1.0 - t) * omega) / so) * q_s + (math.sin(t * omega) / so) * q_f


def rotation_angle(q: np.ndarray) -> float:
    """Rotation angle of a unit quaternion, in [0, pi].

    atan2 of the vector-part norm against |w| stays exact near zero angle,
    where acos of the scalar part would lose half the digits.
    """
    xyz = float(np.linalg.norm(q[1:]))
    return 2.0 * math.atan2(xyz, abs(float(q[0])))


def relative_rotation_angle(q_a: np.ndarray, q_b: np.ndarray) -> float:
    """Angle of the relative rotation between two unit quaternions, in [0, pi].

    The angle of ``conj(q_a) * q_b``. For identical inputs the product's
    vector part cancels exactly, so the result is an exact zero.
    """
    return rotation_angle(quat_mul(quat_conj(q_a), q_b))


def se3_interp(t: float, start: Pose, final: Pose) -> Pose:
    """Interpolate a pose: LERP on translation, SLERP on rotation.

    Endpoint-exact: t == 0.0 returns ``start`` itself, t == 1.0 ``final``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"trajectory parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return start
    if t == 1.0:
        return final
    v = (1.0 - t) * start.v + t * final.v
    return Pose(v, slerp(start.q, final.q, t))


def se3_distance(g_a: Pose, g_b: Pose, params: Se3MetricParams) -> float:
    """Normalized SE(3) distance: 2-norm of the translation error over p_e
    stacked with the relative rotation angle over r_e. Unit ball = allowed
    deviation."""
    dv = (g_b.v - g_a.v) / params.p_e
    trans2 = float(dv @ dv)
    if math.isinf(params.r_e):
        return math.sqrt(trans2)
    ang = relative_rotation_angle(g_a.q, g_b.q) / params.r_e
    return math.sqrt(trans2 + ang * ang)
