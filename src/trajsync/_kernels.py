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


def segment_constants(vs, vf, qs, qf, p_e, r_e, rot):
    """The coefficient terms of one stacked segment that do not depend on
    the sensed state: computed once per segment, then passed to
    ``segment_coefficients`` on every step that clamps that segment.

    Pose inputs are (n, 3) / (n, 4) arrays; p_e and r_e are (n,). ``rot``
    selects the rows whose rotation counts (finite r_e): a list of rows,
    empty if none, or a full slice if all (``MultiMetricParams._columns``).
    """
    n = vs.shape[0]
    dv = vf - vs
    pe2 = p_e * p_e
    ta = np.einsum("ij,ij->i", dv, dv) / pe2
    zeros = np.zeros(n)
    omega = np.zeros(n)
    inv_re = np.zeros(n)
    rot_mode = np.zeros(n, dtype=np.int8)
    modes, rotation = [], None
    if rot:
        qs_r, qf_r = qs[rot], qf[rot]
        signs, dots, sines = [], [], []
        rows = zip(
            range(n) if isinstance(rot, slice) else rot,
            _rowdot(qs_r, qf_r).tolist(),
            qf_r.tolist(),
            r_e[rot].tolist(),
        )
        for i, d, q_f, re in rows:
            # Against the aligned (negated) q_f, q_f . q_y changes sign exactly.
            signs.append(-1.0 if _flips_arc(d, q_f) else 1.0)
            dot = min(1.0, abs(d))
            om = math.acos(dot)
            inv_re[i] = 1.0 / re
            if om < FLAT_ARC_ANGLE:
                # beta = (c2 - 1 * c1) / 1 is c2 - c1 exactly
                rot_mode[i] = ROT_FLAT
                dots.append(1.0)
                sines.append(1.0)
            else:
                rot_mode[i] = ROT_ARC
                omega[i] = om
                dots.append(dot)
                sines.append(math.sin(om))
        rotation = (rot, qs_r, qf_r, np.array(signs), np.array(dots), np.array(sines))
        # Per rotation mode: its rows (a full slice if all) and their omega
        # and 1/r_e as (rows, 1) columns, for every block of the grid kernel.
        mode_of = rot_mode.tolist()
        for mode in (ROT_ARC, ROT_FLAT):
            sel = [i for i, m in enumerate(mode_of) if m == mode]
            if len(sel) == n:
                sel = slice(None)
            if sel:
                modes.append((mode, sel, omega[sel, None], inv_re[sel, None]))
    # Every step's coefficients share these arrays.
    for a in (ta, zeros, omega, inv_re, rot_mode):
        a.flags.writeable = False
    return vs, dv, pe2, ta, zeros, omega, inv_re, rot_mode, tuple(modes), rotation


def segment_coefficients(segment, vy, qy):
    """Per-limb closed-form coefficients of one stacked segment against the
    sensed state ``(vy, qy)``, (n, 3) / (n, 4) arrays.

    ``segment`` is the segment's ``segment_constants``. Returns (ta, tb, tc,
    alpha, beta, omega, inv_re, rot_mode, modes): the translation part of
    the squared distance is ta t^2 + tb t + tc, and the slerp dot against
    q_y is alpha cos(t omega) + beta sin(t omega), or alpha + beta t for
    flat arcs; ``modes`` lists the rows of each rotation mode. The
    quaternion sign alignment matches ``se3.slerp`` exactly.
    """
    vs, dv, pe2, ta, zeros, omega, inv_re, rot_mode, modes, rotation = segment
    sv = vs - vy
    tb = 2.0 * np.einsum("ij,ij->i", dv, sv) / pe2
    tc = np.einsum("ij,ij->i", sv, sv) / pe2
    if rotation is None:
        return ta, tb, tc, zeros, zeros, omega, inv_re, rot_mode, modes
    rot, qs_r, qf_r, signs, dots, sines = rotation
    qy_r = qy[rot]
    c1 = _rowdot(qs_r, qy_r)
    beta_r = (_rowdot(qf_r, qy_r) * signs - dots * c1) / sines
    if isinstance(rot, slice):
        return ta, tb, tc, c1, beta_r, omega, inv_re, rot_mode, modes
    alpha = zeros.copy()
    beta = zeros.copy()
    alpha[rot] = c1
    beta[rot] = beta_r
    return ta, tb, tc, alpha, beta, omega, inv_re, rot_mode, modes


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
    ta, tb, tc, alpha, beta, _, _, _, modes = coeffs
    d2 = np.multiply(ta[:, None], ts)
    d2 *= ts
    d2 += np.multiply(tb[:, None], ts)
    d2 += tc[:, None]
    np.maximum(d2, 0.0, out=d2)
    for mode, rows, omega, inv_re in modes:
        if mode == ROT_ARC:
            wt = ts * omega
            rd = alpha[rows, None] * np.cos(wt) + beta[rows, None] * np.sin(wt)
        else:
            rd = alpha[rows, None] + beta[rows, None] * ts
        ang = 2.0 * np.arccos(np.minimum(np.abs(rd), 1.0)) * inv_re
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
