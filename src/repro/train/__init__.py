"""Training loops and evaluation metrics."""

from repro.train.trainer import (
    TrainConfig,
    TrainResult,
    fit,
)
from repro.train.metrics import accuracy, micro_f1, mean_std, format_mean_std

__all__ = [
    "TrainConfig",
    "TrainResult",
    "fit",
    "accuracy",
    "micro_f1",
    "mean_std",
    "format_mean_std",
]
