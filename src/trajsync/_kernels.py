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

from .se3 import FLAT_ARC_ANGLE, _flips_arc, _rowdot

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
    rot = [i for i, re in enumerate(r_e.tolist()) if not math.isinf(re)]
    if not rot:
        return ta, tb, tc, alpha, beta, omega, inv_re, rot_mode
    qs, qf, qy = qs[rot], qf[rot], qy[rot]
    rows = zip(
        rot,
        _rowdot(qs, qf).tolist(),
        _rowdot(qs, qy).tolist(),
        _rowdot(qf, qy).tolist(),
        qf.tolist(),
        r_e[rot].tolist(),
    )
    for i, d, c1, c2, q_f, re in rows:
        # Against the aligned (negated) q_f, q_f . q_y changes sign exactly.
        if _flips_arc(d, q_f):
            c2 = -c2
        dot = min(1.0, abs(d))
        om = math.acos(dot)
        inv_re[i] = 1.0 / re
        alpha[i] = c1
        if om < FLAT_ARC_ANGLE:
            rot_mode[i] = ROT_FLAT
            beta[i] = c2 - c1
        else:
            rot_mode[i] = ROT_ARC
            beta[i] = (c2 - dot * c1) / math.sin(om)
            omega[i] = om
    return ta, tb, tc, alpha, beta, omega, inv_re, rot_mode


def grid_distances(ts, coeffs, k):
    """Stacked distance at every sample of the grid ts (norm order k).

    Evaluates every limb at every sample of a block of samples as one
    (n, block) array; each element takes the same operations as a
    limb-by-limb loop would, so the result depends neither on n nor on the
    blocking.
    """
    k = float(k)
    if len(ts) <= _BLOCK:
        return _grid_block(ts, coeffs, k)
    return np.concatenate(
        [_grid_block(ts[i : i + _BLOCK], coeffs, k) for i in range(0, len(ts), _BLOCK)]
    )


# Samples per block: bounds each (n, block) temporary of a densely scanned
# segment (up to ClampConfig.max_samples samples) to n x 128 KiB.
_BLOCK = 1 << 14


def _grid_block(ts, coeffs, k):
    ta, tb, tc, alpha, beta, omega, inv_re, rot_mode = coeffs
    d2 = np.multiply(ta[:, None], ts)
    d2 *= ts
    d2 += np.multiply(tb[:, None], ts)
    d2 += tc[:, None]
    np.maximum(d2, 0.0, out=d2)
    modes = rot_mode.tolist()
    for mode in (ROT_ARC, ROT_FLAT):
        rows = [i for i, m in enumerate(modes) if m == mode]
        if not rows:
            continue
        if len(rows) == len(modes):
            rows = slice(None)
        if mode == ROT_ARC:
            wt = ts * omega[rows, None]
            rd = alpha[rows, None] * np.cos(wt) + beta[rows, None] * np.sin(wt)
        else:
            rd = alpha[rows, None] + beta[rows, None] * ts
        ang = 2.0 * np.arccos(np.minimum(np.abs(rd), 1.0)) * inv_re[rows, None]
        d2[rows] += ang * ang
    if math.isinf(k):
        # sqrt is monotone, so the root of the largest square is the largest
        # root, bit for bit: one root per sample instead of one per limb.
        acc = np.maximum.reduce(d2, axis=0)
        return np.sqrt(acc, out=acc)
    np.sqrt(d2, out=d2)
    d2 **= k
    acc = np.add.reduce(d2, axis=0)
    if k != 1.0:
        acc **= 1.0 / k
    return acc
