"""Hypersphere clamping over an arbitrary metric space and trajectory function.

The clamp picks the farthest-along point of a trajectory that stays within
unit distance of the current state. Metrics are pre-scaled so the allowed
deviation is exactly the unit ball; there is no separate radius argument.

Works with any point type: a trajectory function ``traj(t, S, F) -> point``
and a metric ``d(a, b) -> float`` define the space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

Point = Any
TrajectoryFn = Callable[[float, Point, Point], Point]
MetricFn = Callable[[Point, Point], float]


@dataclass(frozen=True)
class ClampConfig:
    """Sampling configuration for the clamp grid.

    ``step_distance`` is the spacing between consecutive samples measured by
    the metric (0.01 gives about 100 samples per unit-ball radius).
    ``enforce_monotonic_t`` is read by the controller alone: its floor keeps
    a segment's ``t`` from sliding back.
    """

    step_distance: float = 0.01
    min_samples: int = 2
    max_samples: int = 1_000_000
    enforce_monotonic_t: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.step_distance) and self.step_distance > 0):
            raise ValueError(f"step_distance must be > 0, got {self.step_distance}")
        if self.min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {self.min_samples}")
        if self.max_samples < self.min_samples:
            raise ValueError("max_samples must be >= min_samples")


@dataclass(frozen=True)
class Solution:
    """Clamp hit: the farthest grid point within the unit ball."""

    point: Point
    t: float
    dist: float


@dataclass(frozen=True)
class NoSolution:
    """No grid point lies within the unit ball; carries the nearest sample
    found so recovery strategies can use it."""

    nearest_point: Point
    nearest_t: float
    nearest_dist: float


ClampOutcome = Union[Solution, NoSolution]


@functools.lru_cache(maxsize=1)
def grid_parameters(n_samples: int) -> np.ndarray:
    """The descending sample grid t_i = 1 - i/(I-1), endpoints included.

    The array is shared and read-only: it depends on the sample count alone,
    and the last one built is kept, so a clamp that keeps its segment builds
    its grid once. Copy it before writing into it.
    """
    if n_samples < 2:
        raise ValueError(f"sample count must be >= 2, got {n_samples}")
    ts = 1.0 - np.arange(n_samples, dtype=np.float64) / (n_samples - 1)
    ts.flags.writeable = False
    return ts


def sample_count(start: Point, final: Point, d: MetricFn, cfg: ClampConfig) -> int:
    """Number of grid samples for the segment: ceil(d(S,F) / step_distance),
    clamped to [min_samples, max_samples]. A span that overflows to inf (or
    reads NaN) takes max_samples."""
    raw = d(start, final) / cfg.step_distance
    if not raw <= cfg.max_samples:
        return cfg.max_samples
    return max(math.ceil(raw), cfg.min_samples)


def weighted_euclidean(x1, x2, delta_e) -> float:
    """2-norm of the component-wise quotient (x1 - x2) / delta_e.

    Each component of ``delta_e`` is the allowed deviation along that axis,
    stretching the unit ball into an axis-aligned ellipsoid.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    delta_e = np.asarray(delta_e, dtype=np.float64)
    if x1.shape != x2.shape or x1.shape != delta_e.shape:
        raise ValueError(
            f"shape mismatch: {x1.shape} vs {x2.shape} vs {delta_e.shape}"
        )
    if not (delta_e > 0).all():
        raise ValueError("every component of delta_e must be > 0")
    return float(np.linalg.norm((x1 - x2) / delta_e))


def hypersphere_clamp(
    state: Point,
    start: Point,
    final: Point,
    traj: TrajectoryFn,
    d: MetricFn,
    n_samples: int,
) -> ClampOutcome:
    """Clamp the trajectory onto the unit ball centered at ``state``.

    Scans the grid t = 1 ... 0 (descending, both endpoints included) and
    returns a Solution at the first sample within distance 1 of ``state``.
    If no sample qualifies, returns NoSolution carrying the sample of
    minimal distance (ties resolved toward larger t).
    """
    if n_samples < 2:
        raise ValueError(f"sample count must be >= 2, got {n_samples}")

    denom = n_samples - 1
    best_dist = math.inf
    best_t = 1.0
    best_point = None
    for i in range(n_samples):
        t = 1.0 - i / denom
        point = traj(t, start, final)
        dist = d(point, state)
        if dist <= 1.0:
            return Solution(point, t, dist)
        if dist < best_dist:
            best_dist = dist
            best_t = t
            best_point = point
    return NoSolution(best_point, best_t, best_dist)
