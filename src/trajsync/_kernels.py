"""Grid-scan kernel for stacked SE(3) segments.

The clamp's inner loop evaluates the stacked distance at every sample of a
segment. For a LERP/SLERP segment both terms collapse to closed forms in t:

  translation:  |lerp(t) - y|^2 / p_e^2  is a quadratic  a t^2 + b t + c
  rotation:     slerp(t) . q_y           is  alpha cos(t w) + beta sin(t w),
                                         or  alpha + beta t on a flat arc

so the whole grid reduces to a few transcendental ops per sample. Limbs
with finite r_e form one group per arc kind, their terms (rows, 1) columns.
"""

from __future__ import annotations

import math

import numpy as np

from .se3 import FLAT_ARC_ANGLE, _flips_arc, _rowdot


def segment_constants(vs, vf, qs, qf, p_e, r_e, rot):
    """The coefficient terms of one stacked segment that do not depend on
    the sensed state: computed once per segment, then passed to
    ``segment_coefficients`` on every step that clamps that segment.

    Pose inputs are (n, 3) / (n, 4) arrays; p_e and r_e are (n,). ``rot``
    selects the rows whose rotation counts (finite r_e): a list of rows,
    empty if none, or a full slice if all (``MultiMetricParams._columns``).
    Returns (vs, dv, pe2, ta, groups), one group per arc kind present.
    """
    dv = vf - vs
    pe2 = p_e * p_e
    ta = np.einsum("ij,ij->i", dv, dv) / pe2
    ta.flags.writeable = False
    arcs, flats = [], []
    if rot:
        rows = zip(
            range(len(vs)) if isinstance(rot, slice) else rot,
            _rowdot(qs[rot], qf[rot]).tolist(),
            qf[rot].tolist(),
            r_e[rot].tolist(),
        )
        for i, d, q_f, re in rows:
            # Against the aligned (negated) q_f, q_f . q_y changes sign exactly.
            sign = -1.0 if _flips_arc(d, q_f) else 1.0
            dot = min(1.0, abs(d))
            om = math.acos(dot)
            if om < FLAT_ARC_ANGLE:
                flats.append((i, sign, 1.0 / re))
            else:
                arcs.append((i, sign, 1.0 / re, dot, math.sin(om), om))
    groups = tuple(_group(qs, qf, members, len(vs)) for members in (arcs, flats) if members)
    return vs, dv, pe2, ta, groups


def _group(qs, qf, members, n):
    """(rows, qs[rows], qf[rows], signs, arc, inv_re) of one arc kind: rows
    is a full slice if the group spans every limb, arc is (dots, sines,
    omega) on a circular arc and None on a flat one, and every term is a
    read-only (rows, 1) column."""
    rows, *columns = zip(*members)
    rows = slice(None) if len(rows) == n else list(rows)
    signs, inv_re, *arc = (np.array(c)[:, None] for c in columns)
    for column in (signs, inv_re, *arc):
        column.flags.writeable = False  # every step's coefficients share it
    return rows, qs[rows], qf[rows], signs, tuple(arc) or None, inv_re


def segment_coefficients(segment, vy, qy):
    """Per-limb closed-form coefficients of one stacked segment against the
    sensed state ``(vy, qy)``, (n, 3) / (n, 4) arrays.

    ``segment`` is the segment's ``segment_constants``. Returns (ta, tb, tc,
    rotation): the translation part of the squared distance is
    ta t^2 + tb t + tc, and ``rotation`` holds one (rows, alpha, beta,
    omega, inv_re) per group, each a (rows, 1) column, omega None on a flat
    arc: the slerp dot against q_y is alpha cos(t omega) + beta sin(t omega),
    or alpha + beta t. The quaternion sign alignment matches ``se3.slerp``
    exactly.
    """
    vs, dv, pe2, ta, groups = segment
    sv = vs - vy
    tb = 2.0 * np.einsum("ij,ij->i", dv, sv) / pe2
    tc = np.einsum("ij,ij->i", sv, sv) / pe2
    rotation = []
    for rows, qs_g, qf_g, signs, arc, inv_re in groups:
        qy_g = qy[rows]
        c1 = _rowdot(qs_g, qy_g)[:, None]
        c2 = _rowdot(qf_g, qy_g)[:, None] * signs
        if arc is None:  # (c2 - 1 * c1) / 1 is c2 - c1 exactly
            rotation.append((rows, c1, c2 - c1, None, inv_re))
        else:
            dots, sines, omega = arc
            rotation.append((rows, c1, (c2 - dots * c1) / sines, omega, inv_re))
    return ta, tb, tc, rotation


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
    # scalar_inf_distance repeats this block's operations for rotation-free
    # limbs under k = inf, in this order, and must change with it.
    ta, tb, tc, rotation = coeffs
    d2 = np.multiply(ta[:, None], ts)
    d2 *= ts
    d2 += np.multiply(tb[:, None], ts)
    d2 += tc[:, None]
    np.maximum(d2, 0.0, out=d2)
    for rows, alpha, beta, omega, inv_re in rotation:
        if omega is None:
            rd = alpha + beta * ts
        else:
            wt = ts * omega
            rd = alpha * np.cos(wt) + beta * np.sin(wt)
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


def scalar_inf_distance(limbs, t: float) -> float:
    """``_grid_block``'s infinity-norm distance at one sample t of
    rotation-free limbs, each ``(ta, tb, tc)`` as Python floats: ((ta t) t
    + tb t) + tc per limb, clamped at 0, the largest, its root. These are
    ``_grid_block``'s operations in its order, and each rounds as numpy's
    does, so the result equals ``grid_distances`` at t bit for bit where no
    coefficient is NaN (Python's max would pass a NaN over). The two must
    change together."""
    return math.sqrt(max(0.0, *[a * t * t + b * t + c for a, b, c in limbs]))
