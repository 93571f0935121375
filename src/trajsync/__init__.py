"""Robot-agnostic trajectory synchronization by hypersphere clamping.

The core operation walks a trajectory parameter grid from the far endpoint
toward the near one and returns the farthest sample whose distance from the
current state stays inside the unit ball of a normalized metric. Stacking
several end effectors into one metric makes a single shared parameter the
synchronization variable: no limb's command ever leaves its tolerance ball,
and all limbs advance or pause together.
"""

from .controller import (
    ControllerState,
    Mode,
    PathSpec,
    RecoveryStrategy,
    SpeedInput,
    handle_no_solution,
    step_speed,
    step_tracking,
)
from .metric_core import (
    ClampConfig,
    ClampOutcome,
    NoSolution,
    Solution,
    grid_parameters,
    hypersphere_clamp,
    sample_count,
    weighted_euclidean,
)
from .multi_ee import (
    MultiMetricParams,
    MultiPose,
    clamp_stacked,
    multi_pose,
    per_ee_distances,
    stacked_distance,
    stacked_interp,
)
from .se3 import (
    Pose,
    Se3MetricParams,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    relative_rotation_angle,
    rotation_angle,
    rotations_equal,
    se3_distance,
    se3_interp,
    slerp,
)
from .sim import (
    Box,
    Disturbance,
    DisturbanceKind,
    LimbModel,
    PathProgram,
    Scenario,
    ScenarioValidationError,
    SpeedProgram,
    Trace,
    TraceRecord,
    run_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ClampConfig",
    "ClampOutcome",
    "ControllerState",
    "Disturbance",
    "DisturbanceKind",
    "LimbModel",
    "Mode",
    "MultiMetricParams",
    "MultiPose",
    "NoSolution",
    "PathProgram",
    "PathSpec",
    "Pose",
    "RecoveryStrategy",
    "Scenario",
    "ScenarioValidationError",
    "Se3MetricParams",
    "Solution",
    "SpeedInput",
    "SpeedProgram",
    "Trace",
    "TraceRecord",
    "clamp_stacked",
    "grid_parameters",
    "handle_no_solution",
    "hypersphere_clamp",
    "multi_pose",
    "per_ee_distances",
    "quat_from_axis_angle",
    "quat_mul",
    "quat_normalize",
    "relative_rotation_angle",
    "rotation_angle",
    "rotations_equal",
    "run_scenario",
    "sample_count",
    "se3_distance",
    "se3_interp",
    "slerp",
    "stacked_distance",
    "stacked_interp",
    "step_speed",
    "step_tracking",
    "validate_scenario",
]
