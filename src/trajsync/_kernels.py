"""Grid-scan kernel for stacked SE(3) segments.

The clamp's inner loop evaluates the stacked distance at every sample of a
segment. For a LERP/SLERP segment both terms collapse to closed forms in t:

  translation:  |lerp(t) - y|^2 / p_e^2  is a quadratic  a t^2 + b t + c
  rotation:     slerp(t) . q_y           is  alpha cos(t w) + beta sin(t w),
                                         or  alpha + beta t on a flat arc

so the whole grid reduces to a few transcendental ops per sample. Limbs
with finite r_e form one group per arc kind, their terms (rows, 1) columns.

The translation coefficients are Python floats, one (a, b, c) per limb, so
a clamp that locates its hit in closed form reads them as they are, its two
certifying samples in one pass over the limbs (``scalar_inf_distances``,
``_grid_block``'s operations); the grid makes columns of them. Every 3-term
dot product among them is ``_dot3``, written inline in the per-step
``segment_coefficients``: ((x0 y0 + x2 y2) + x1 y1) + 0.0, the order in which
numpy's ``einsum("ij,ij->i")`` sums a row of 3 (numpy 2.4 on x86-64), which the
coefficients were first computed with, so they keep its bits
(``tests/test_kernels.py`` pins the two equal). The + 0.0 is einsum's own, as
it sums into a zeroed output: it turns a sum of -0.0 into +0.0.
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
    Returns (translation, groups): per limb the 8 Python floats of vs, dv,
    pe2 and ta = |dv|**2 / pe2, in that order, and one group per arc kind
    present.
    """
    translation = []
    for s, f, p in zip(vs.tolist(), vf.tolist(), p_e.tolist()):
        dv, pe2 = (f[0] - s[0], f[1] - s[1], f[2] - s[2]), p * p
        translation.append((*s, *dv, pe2, _dot3(dv, dv) / pe2))
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
    return tuple(translation), groups


def _dot3(x, y) -> float:
    """x . y of two 3-sequences of floats, summed as numpy's einsum sums
    them (see the module docstring)."""
    return ((x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]) + 0.0


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

    ``segment`` is the segment's ``segment_constants``. Returns (limbs,
    rotation): ``limbs`` holds one (ta, tb, tc) of Python floats per limb,
    the translation part of its squared distance being ta t^2 + tb t + tc,
    and ``rotation`` one (rows, alpha, beta, omega, inv_re) per group, each
    a (rows, 1) column, omega None on a flat arc: the slerp dot against q_y
    is alpha cos(t omega) + beta sin(t omega), or alpha + beta t. The
    quaternion sign alignment matches ``se3.slerp`` exactly.
    """
    translation, groups = segment
    limbs = []
    for (s0, s1, s2, d0, d1, d2, pe2, ta), (y0, y1, y2) in zip(translation, vy.tolist()):
        s0, s1, s2 = s0 - y0, s1 - y1, s2 - y2
        tb = 2.0 * (((d0 * s0 + d2 * s2) + d1 * s1) + 0.0) / pe2
        limbs.append((ta, tb, (((s0 * s0 + s2 * s2) + s1 * s1) + 0.0) / pe2))
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
    return limbs, rotation


def grid_distances(ts, coeffs, k):
    """Stacked distance at every sample of the grid ts (norm order k), from
    ``segment_coefficients``' ``coeffs``.

    Evaluates every limb at every sample of a block of samples as one
    (n, block) array; each element takes the same operations as a
    limb-by-limb loop would, so the result depends neither on n nor on the
    blocking.
    """
    k = float(k)
    limbs, rotation = coeffs
    columns = (*np.array(limbs).T[:, :, None], rotation)  # ta, tb, tc as (n, 1)
    if len(ts) <= _BLOCK:
        return _grid_block(ts, columns, k)
    return np.concatenate(
        [_grid_block(ts[i : i + _BLOCK], columns, k) for i in range(0, len(ts), _BLOCK)]
    )


# Samples per block: bounds each (n, block) temporary of a densely scanned
# segment (up to ClampConfig.max_samples samples) to n x 128 KiB.
_BLOCK = 1 << 14


def _grid_block(ts, columns, k):
    # scalar_inf_distances repeats this block's operations for rotation-free
    # limbs under k = inf, in this order, and must change with it.
    ta, tb, tc, rotation = columns
    d2 = np.multiply(ta, ts)
    d2 *= ts
    d2 += np.multiply(tb, ts)
    d2 += tc
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


def scalar_inf_distances(limbs, t: float, u: float) -> tuple[float, float]:
    """``_grid_block``'s infinity-norm distances at the samples t and u of
    rotation-free limbs, each ``(ta, tb, tc)`` of ``segment_coefficients``,
    in one pass: ((ta t) t + tb t) + tc per limb, their max with 0.0 (moved
    only by a larger square, so -0.0 reads +0.0 as in numpy), its root.
    Each operation rounds as numpy's does, so both equal ``grid_distances``
    bit for bit where no coefficient is NaN (the comparison passes a NaN
    over). The two must change together."""
    dt = du = 0.0
    for a, b, c in limbs:
        x = a * t * t + b * t + c
        if x > dt:
            dt = x
        x = a * u * u + b * u + c
        if x > du:
            du = x
    return math.sqrt(dt), math.sqrt(du)
