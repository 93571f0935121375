"""The clamp's readings of the stacked distance on a segment's sample grid.

The clamp's inner loop evaluates the stacked distance at every sample of a
segment. For a LERP/SLERP segment both terms collapse to closed forms in t:

  translation:  |lerp(t) - y|^2 / p_e^2  is a quadratic  a t^2 + b t + c
  rotation:     slerp(t) . q_y           is  alpha cos(t w) + beta sin(t w),
                                         or  alpha + beta t on a flat arc

so the whole grid reduces to a few transcendental ops per sample. Limbs
with finite r_e form one group per arc kind, their terms (rows, 1) columns.

Its rules read the clamp's outcome off the grid: ``scan`` scores it, floor
first, and ``located_hit`` finds a rotation-free infinity-norm hit in closed
form, certified within ``convexity_margin``; ``multi_ee`` picks one.

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

from .metric_core import grid_parameters
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


def scan(coeffs, n_samples: int, k, t_min: float = 0.0) -> tuple[float, float]:
    """The clamp's ``(t, dist)`` on ``n_samples`` samples under norm order k:
    the largest t with dist <= 1, else the nearest sample of largest t. The
    samples at or above ``t_min`` go first: the floor orders work, not outcome."""
    ts = grid_parameters(n_samples)
    j = (np.count_nonzero(ts >= t_min) if t_min > 0.0 else 0) or n_samples  # none above: all at once
    dists = grid_distances(ts[:j], coeffs, k)
    feasible = dists <= 1.0
    if j < n_samples and not feasible.any():
        dists = np.concatenate((dists, grid_distances(ts[j:], coeffs, k)))
        feasible = dists <= 1.0
    i = int(np.argmax(feasible) if feasible.any() else np.argmin(dists))
    return float(ts[i]), float(dists[i])


def located_hit(coeffs, n_samples: int, margin: float) -> tuple[float, float] | None:
    """``scan``'s hit without the grid kernel, or None, on a rotation-free stack.

    Under the infinity norm a rotation-free stack is within the ball
    where ta_i t**2 + tb_i t + tc_i <= 1 for every limb i: an interval
    of t, whose top is the least of the limbs' upper roots (and 1). The
    roots only propose i, the index of the highest sample at or below
    that top; ``scalar_inf_distances`` then reads ts[i] and ts[i - 1] in
    one pass, bit for bit as the grid kernel would (the second unused
    when i = 0). ts[i] is the hit when it reads inside the ball and either
    i = 0 or ts[i - 1] reads above 1 + margin (see ``convexity_margin``;
    while it is finite every limb travels under 1.5e6 balls, so a sample
    next to a feasible one reads finite).
    Anything else returns None: an empty interval (a miss), a proposal
    off by a rounding, a non-finite coefficient, or an infinite margin.
    """
    limbs, _ = coeffs
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
    last = n_samples - 1
    i = math.ceil((1.0 - top) * last)
    t = 1.0 - i / last  # ts[i] bit for bit: the same two IEEE operations
    dist, above = scalar_inf_distances(limbs, t, 1.0 - (i - 1) / last)
    if not dist <= 1.0 or i and not above > 1.0 + margin:
        return None
    return t, dist


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


def convexity_margin(constants) -> float:
    """How far above 1 a sample must read for the first feasible sample
    below it to be the clamp's hit, on a rotation-free stack with the
    ``segment_constants`` ``constants``, whose limbs travel
    ta = |dv_i|**2 / p_e_i**2 along the segment.

    Without rotation, limb i is at D_i(t) = |dv_i t + sv_i| / p_e_i from the
    state (sv_i = vs_i - vy_i), taking the floats the coefficients are built
    from as exact: the norm of an affine function of t, so convex, and so is
    their k-norm D (k >= 1). Let F be the kernel's reading of D and e a bound
    on |F - D| where D <= 2. Take the located pair t_0 = ts[i - 1] and
    t_p = ts[i] of ``located_hit``, with no sample between them. If
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
    ta = [ta for *_, ta in constants[0]]
    e = len(ta) * (math.sqrt(8.0 * eps) * (2.0 * math.sqrt(max(ta)) + 2.0) + 8.0 * eps)
    return 2.0 * e if e <= 0.125 else math.inf
