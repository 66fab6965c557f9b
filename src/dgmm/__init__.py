"""Online dynamic Gaussian mixture density estimation, terrain-aware robot
motion models, an offline EM baseline, and the experiment harness that
compares them."""

from .mixture import DynamicGaussianMixture, merge_threshold
from .motion import (
    CommandKey,
    DeltaPose,
    MotionModel,
    Pose,
    Standardizer,
    TerrainSupportError,
    TerrainVector,
    pose_delta,
    wrap_angle,
)
from .em import FixedGaussianMixture, em_fit, ise
from .datasets import (
    InclineConfig,
    SampleRecord,
    command_set,
    load_old_faithful,
    load_points,
    load_samples,
    old_faithful_path,
    sample_gmm,
    simulate_incline,
    strip_z,
    three_component_benchmark,
)
from .evaluation import (
    EvalReport,
    FoldSplit,
    fit_motion_model,
    k_sweep,
    mise_experiment,
    stratified_kfold,
    terrain_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicGaussianMixture",
    "merge_threshold",
    "CommandKey",
    "DeltaPose",
    "MotionModel",
    "Pose",
    "Standardizer",
    "TerrainSupportError",
    "TerrainVector",
    "pose_delta",
    "wrap_angle",
    "FixedGaussianMixture",
    "em_fit",
    "ise",
    "InclineConfig",
    "SampleRecord",
    "command_set",
    "load_old_faithful",
    "load_points",
    "load_samples",
    "old_faithful_path",
    "sample_gmm",
    "simulate_incline",
    "strip_z",
    "three_component_benchmark",
    "EvalReport",
    "FoldSplit",
    "fit_motion_model",
    "k_sweep",
    "mise_experiment",
    "stratified_kfold",
    "terrain_comparison",
]
