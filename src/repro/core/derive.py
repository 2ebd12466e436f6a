"""Deriving, instantiating and retraining searched architectures.

After Algorithm 1 derives a discrete :class:`Architecture`, the paper
retrains it from scratch and fine-tunes hyper-parameters on the
validation set (Section III-C: SANE "decouples the architecture search
and hyper-parameters tuning"). These helpers build and retrain it.
"""

from __future__ import annotations

import numpy as np

from repro.core.search_space import Architecture
from repro.gnn.models import GNNModel
from repro.graph.data import Graph, MultiGraphDataset
from repro.train.trainer import TrainConfig, TrainResult, fit

__all__ = ["architecture_to_model", "retrain"]


def architecture_to_model(
    arch: Architecture,
    in_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    dropout: float = 0.6,
    activation: str = "relu",
    heads: int = 1,
) -> GNNModel:
    """Instantiate the discrete GNN a searched architecture describes."""
    return GNNModel(
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        node_aggregators=list(arch.node_aggregators),
        rng=rng,
        skip_connections=list(arch.skip_flags),
        layer_aggregator=arch.layer_aggregator,
        dropout=dropout,
        activation=activation,
        heads=heads,
    )


def retrain(
    arch: Architecture,
    data: Graph | MultiGraphDataset,
    seed: int = 0,
    hidden_dim: int = 64,
    dropout: float = 0.6,
    heads: int = 1,
    activation: str = "relu",
    train_config: TrainConfig | None = None,
) -> TrainResult:
    """Train the derived architecture from scratch once."""
    rng = np.random.default_rng(seed)
    model = architecture_to_model(
        arch,
        in_dim=data.num_features,
        num_classes=data.num_classes,
        rng=rng,
        hidden_dim=hidden_dim,
        dropout=dropout,
        activation=activation,
        heads=heads,
    )
    return fit(model, data, train_config)

