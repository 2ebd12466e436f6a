"""MLP node aggregator for the Table X universal-approximator study.

Section IV-E4 of the paper replaces the curated node aggregators with
a plain MLP applied to the summed neighborhood (a universal function
approximator in the GIN sense) and searches its width
``w ∈ {8, 16, 32, 64}`` and depth ``d ∈ {1, 2, 3}`` with Random/TPE —
showing that, without the inductive bias of hand-designed aggregators,
search fails to reach SANE-level accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.scatter import segment_sum
from repro.autograd.tensor import Tensor, as_tensor
from repro.autograd import functional as F
from repro.gnn.aggregators import NodeAggregator
from repro.gnn.common import GraphCache, LayerContext
from repro.nn.layers import MLP, Dropout, Linear
from repro.nn.module import Module

__all__ = ["MLPAggregator", "MLPGNNModel", "MLP_WIDTHS", "MLP_DEPTHS"]

MLP_WIDTHS = (8, 16, 32, 64)
MLP_DEPTHS = (1, 2, 3)


class MLPAggregator(NodeAggregator):
    """``MLP(sum over N~(v) of x_u)`` with searchable width/depth."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        width: int = 32,
        depth: int = 2,
    ):
        super().__init__(in_dim, out_dim)
        if depth < 1:
            raise ValueError("MLP aggregator depth must be >= 1")
        self.width = width
        self.depth = depth
        dims = [in_dim] + [width] * (depth - 1) + [out_dim]
        self.mlp = MLP(dims, rng, activation="relu")

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        x = as_tensor(x)
        messages = self._source_features(x, cache, ctx, self_loops=True)
        summed = segment_sum(messages, cache.dst, cache.num_nodes, cache.dst_plan)
        return self.mlp(summed)


class MLPGNNModel(Module):
    """Stacked MLP-aggregator GNN (the Table X candidate model).

    Structure mirrors :class:`repro.gnn.models.GNNModel` without a
    layer aggregator; each layer's (width, depth) comes from the
    searched assignment.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        layer_specs: list[tuple[int, int]],
        rng: np.random.Generator,
        dropout: float = 0.5,
    ):
        super().__init__()
        if not layer_specs:
            raise ValueError("need at least one layer spec")
        self.layers = []
        d_in = in_dim
        for width, depth in layer_specs:
            self.layers.append(MLPAggregator(d_in, hidden_dim, rng, width, depth))
            d_in = hidden_dim
        self.dropout = Dropout(dropout, rng)
        self.activation = F.ACTIVATIONS["relu"]
        self.classifier = Linear(hidden_dim, num_classes, rng)
        self.layer_specs = list(layer_specs)

    def forward(self, features, cache: GraphCache) -> Tensor:
        h = self.dropout(as_tensor(features))
        for layer in self.layers:
            h = self.activation(layer(h, cache))
            h = self.dropout(h)
        return self.classifier(h)
