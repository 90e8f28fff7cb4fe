"""Predictive models (Section 4.3): configs, datasets, training, inference.

- :data:`MODEL_CONFIGS` — the M1–M7 variants of Table 2;
- :class:`GraphDatasetBuilder` — database → graph samples;
- :func:`build_model` — instantiate any variant;
- :class:`Trainer` / :func:`train_predictor` — fit models / the full
  classifier+regressor+BRAM stack;
- :class:`GNNDSEPredictor` — millisecond surrogate used by the DSE.
"""

from .calibration import (
    ClassifierCalibration,
    RegressionProfile,
    calibrate_classifier,
    profile_regression,
    spearman,
)
from .config import (
    ALL_OBJECTIVES,
    BRAM_OBJECTIVE,
    MODEL_CONFIGS,
    REGRESSION_OBJECTIVES,
    ModelConfig,
)
from .dataset import MAX_KNOBS, GraphDatasetBuilder, pragma_vector, train_test_split
from .models import ContextMLPModel, GNNDSEModel, PragmaMLPModel, build_model
from .normalizer import TargetNormalizer
from .predictor import GNNDSEPredictor, Prediction, train_predictor
from .trainer import (
    TrainConfig,
    Trainer,
    TrainHistory,
    evaluate_classification,
    evaluate_regression,
    predict,
)

__all__ = [
    "ClassifierCalibration",
    "RegressionProfile",
    "calibrate_classifier",
    "profile_regression",
    "spearman",
    "ALL_OBJECTIVES",
    "BRAM_OBJECTIVE",
    "MODEL_CONFIGS",
    "REGRESSION_OBJECTIVES",
    "ModelConfig",
    "MAX_KNOBS",
    "GraphDatasetBuilder",
    "pragma_vector",
    "train_test_split",
    "ContextMLPModel",
    "GNNDSEModel",
    "PragmaMLPModel",
    "build_model",
    "TargetNormalizer",
    "GNNDSEPredictor",
    "Prediction",
    "train_predictor",
    "TrainConfig",
    "Trainer",
    "TrainHistory",
    "evaluate_classification",
    "evaluate_regression",
    "predict",
]
