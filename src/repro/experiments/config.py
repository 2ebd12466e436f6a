"""Scale presets for the experiment harness.

Every experiment runner takes a :class:`Scale` that controls dataset
size and compute budgets, so the same code serves three purposes:

* ``smoke``   — seconds; used by the integration test suite;
* ``default`` — minutes; used by ``benchmarks/`` to regenerate every
  table and figure on a laptop-class CPU;
* ``full``    — closest to the paper's protocol (5 repeats, longer
  searches); use when you have an hour+.

``Scale.from_env()`` honours the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import dataclasses
import os

from repro.train.trainer import TrainConfig

__all__ = ["Scale", "SCALES"]


@dataclasses.dataclass(frozen=True)
class Scale:
    """Compute budget preset."""

    name: str
    dataset_scale: float  # multiplies the synthetic dataset sizes
    repeats: int  # retraining seeds per reported number (paper: 5)
    search_epochs: int  # SANE supernet epochs (paper: 200)
    search_seeds: int  # independent SANE searches (paper: 5)
    nas_candidates: int  # trial-and-error budget (paper: 200)
    train_epochs: int
    train_patience: int
    ws_epochs: int  # weight-sharing adaptation schedule
    hidden_dim: int  # retraining hidden size
    search_hidden_dim: int  # supernet hidden size (paper: 32)
    ppi_train_epochs: int

    def train_config(self, **overrides) -> TrainConfig:
        config = TrainConfig(
            epochs=self.train_epochs, patience=self.train_patience
        )
        return config.replace(**overrides) if overrides else config

    def ppi_train_config(self, **overrides) -> TrainConfig:
        config = TrainConfig(
            epochs=self.ppi_train_epochs,
            patience=max(20, self.ppi_train_epochs // 5),
            lr=1e-2,
        )
        return config.replace(**overrides) if overrides else config


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        dataset_scale=0.5,
        repeats=2,
        search_epochs=10,
        search_seeds=1,
        nas_candidates=3,
        train_epochs=80,
        train_patience=25,
        ws_epochs=15,
        hidden_dim=16,
        search_hidden_dim=16,
        ppi_train_epochs=80,
    ),
    "default": Scale(
        name="default",
        dataset_scale=0.8,
        repeats=2,
        search_epochs=50,
        search_seeds=2,
        nas_candidates=6,
        train_epochs=120,
        train_patience=20,
        ws_epochs=15,
        hidden_dim=32,
        search_hidden_dim=32,
        ppi_train_epochs=120,
    ),
    "full": Scale(
        name="full",
        dataset_scale=1.0,
        repeats=5,
        search_epochs=200,
        search_seeds=5,
        nas_candidates=30,
        train_epochs=300,
        train_patience=40,
        ws_epochs=40,
        hidden_dim=64,
        search_hidden_dim=32,
        ppi_train_epochs=300,
    ),
}


def _scale_from_env() -> Scale:
    name = os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r} unknown; choose from {sorted(SCALES)}"
        ) from None


Scale.from_env = staticmethod(_scale_from_env)
