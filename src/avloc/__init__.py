"""Audio-visual event localization with motion-guided attention.

A self-contained numpy implementation: a small reverse-mode autodiff engine,
a binary feature format with a synthetic planted-event generator, the
motion/attention/fusion/classification stages, and a deterministic training
and evaluation harness.
"""

from .autodiff import Tape, Tensor
from .data import (DatasetManifest, FeatureBundle, LabelRecord, load_bundle,
                   load_manifest, nearest_prototype_accuracy, save_bundle,
                   synth_dataset)
from .heads import Prediction
from .model import Dims, ModelConfig, ModelParams, init_params, predict, run_forward
from .training import (AblationTable, MetricsReport, TrainConfig, ablate,
                       evaluate, load_checkpoint, save_checkpoint, train)

__all__ = [
    "Tape", "Tensor",
    "DatasetManifest", "FeatureBundle", "LabelRecord", "load_bundle",
    "load_manifest", "nearest_prototype_accuracy", "save_bundle",
    "synth_dataset",
    "Prediction",
    "Dims", "ModelConfig", "ModelParams", "init_params", "predict", "run_forward",
    "AblationTable", "MetricsReport", "TrainConfig", "ablate", "evaluate",
    "load_checkpoint", "save_checkpoint", "train",
]

__version__ = "0.1.0"
