"""Online dynamic Gaussian mixture density estimation, terrain-aware robot
motion models, an offline EM baseline, and the experiment harness that
compares them."""

from .gaussian import Gaussian, IndexSplit, ensure_positive_definite, regularize
from .mixture import DynamicGaussianMixture, WeightedGaussian, merge_into, merge_threshold
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
from .em import FixedGaussianMixture, Grid, em_fit, integrate_on_grid, ise, mise
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
    "Gaussian",
    "IndexSplit",
    "ensure_positive_definite",
    "regularize",
    "DynamicGaussianMixture",
    "WeightedGaussian",
    "merge_into",
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
    "Grid",
    "em_fit",
    "integrate_on_grid",
    "ise",
    "mise",
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
