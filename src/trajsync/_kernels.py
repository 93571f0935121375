"""Grid-scan kernel for stacked SE(3) segments.

The clamp's inner loop evaluates the stacked distance at every sample of a
segment. For a LERP/SLERP segment both terms collapse to closed forms in t:

  translation:  |lerp(t) - y|^2 / p_e^2  is a quadratic  a t^2 + b t + c
  rotation:     slerp(t) . q_y           is  alpha cos(t w) + beta sin(t w)

so the whole grid reduces to a few transcendental ops per sample.
"""

from __future__ import annotations

import math

import numpy as np

from .se3 import FLAT_ARC_ANGLE, aligned_quat

# Rotation term evaluation modes, one per end effector.
ROT_SKIP = 0  # r_e is infinite, rotation ignored
ROT_ARC = 1  # alpha cos(t w) + beta sin(t w)
ROT_FLAT = 2  # arc numerically flat: alpha + beta t


def segment_coefficients(vs, vf, vy, qs, qf, qy, p_e, r_e):
    """Per-limb closed-form coefficients for one stacked segment.

    All pose inputs are (n, 3) / (n, 4) arrays; p_e and r_e are (n,).
    Returns (ta, tb, tc, alpha, beta, omega, inv_re, rot_mode) where the
    translation part of the squared distance is ta t^2 + tb t + tc and the
    slerp dot against q_y is alpha cos(t omega) + beta sin(t omega), or
    alpha + beta t for flat arcs. The quaternion sign alignment matches
    ``se3.slerp`` exactly.
    """
    n = vs.shape[0]
    dv = vf - vs
    sv = vs - vy
    pe2 = p_e * p_e
    ta = np.einsum("ij,ij->i", dv, dv) / pe2
    tb = 2.0 * np.einsum("ij,ij->i", dv, sv) / pe2
    tc = np.einsum("ij,ij->i", sv, sv) / pe2

    alpha = np.zeros(n)
    beta = np.zeros(n)
    omega = np.zeros(n)
    inv_re = np.zeros(n)
    rot_mode = np.zeros(n, dtype=np.int8)
    for i in range(n):
        if math.isinf(r_e[i]):
            continue
        inv_re[i] = 1.0 / r_e[i]
        qf_i = aligned_quat(qs[i], qf[i])
        dot = min(1.0, abs(float(np.dot(qs[i], qf_i))))
        om = math.acos(dot)
        c1 = float(np.dot(qs[i], qy[i]))
        c2 = float(np.dot(qf_i, qy[i]))
        if om < FLAT_ARC_ANGLE:
            rot_mode[i] = ROT_FLAT
            alpha[i] = c1
            beta[i] = c2 - c1
        else:
            rot_mode[i] = ROT_ARC
            alpha[i] = c1
            beta[i] = (c2 - dot * c1) / math.sin(om)
            omega[i] = om
    return ta, tb, tc, alpha, beta, omega, inv_re, rot_mode


def grid_distances(ts, coeffs, k):
    """Stacked distance at every sample of the grid ts (norm order k)."""
    ta, tb, tc, alpha, beta, omega, inv_re, rot_mode = coeffs
    k = float(k)
    n = ta.shape[0]
    acc = None
    for i in range(n):
        d2 = np.maximum(ta[i] * ts * ts + tb[i] * ts + tc[i], 0.0)
        if rot_mode[i] != ROT_SKIP:
            if rot_mode[i] == ROT_ARC:
                rd = alpha[i] * np.cos(ts * omega[i]) + beta[i] * np.sin(ts * omega[i])
            else:
                rd = alpha[i] + beta[i] * ts
            ang = 2.0 * np.arccos(np.minimum(np.abs(rd), 1.0)) * inv_re[i]
            d2 = d2 + ang * ang
        di = np.sqrt(d2)
        if acc is None:
            acc = di if math.isinf(k) else di**k
        elif math.isinf(k):
            np.maximum(acc, di, out=acc)
        else:
            acc += di**k
    if not math.isinf(k) and k != 1.0:
        acc **= 1.0 / k
    return acc
