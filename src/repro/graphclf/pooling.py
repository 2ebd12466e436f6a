"""Graph pooling operations — the searchable readouts.

A pooling op maps per-node embeddings of a *batch* of graphs (disjoint
union, with a ``graph_ids`` vector assigning nodes to graphs) to one
vector per graph. These are the ``O_p`` counterpart of the paper's
future-work direction: "different graph pooling methods can be
searched for the whole graph representations".
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.scatter import segment_max, segment_mean, segment_softmax, segment_sum
from repro.autograd.tensor import Tensor
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["PoolingOp", "POOLING_OPS", "create_pooling_op"]


class PoolingOp(Module):
    """Base: ``(node_embeddings, graph_ids, num_graphs) -> (G, d)``."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def forward(self, h: Tensor, graph_ids: np.ndarray, num_graphs: int) -> Tensor:
        raise NotImplementedError


class MeanPooling(PoolingOp):
    def forward(self, h, graph_ids, num_graphs):
        return segment_mean(h, graph_ids, num_graphs)


class MaxPooling(PoolingOp):
    def forward(self, h, graph_ids, num_graphs):
        return segment_max(h, graph_ids, num_graphs)


class SumPooling(PoolingOp):
    def forward(self, h, graph_ids, num_graphs):
        return segment_sum(h, graph_ids, num_graphs)


class AttentionPooling(PoolingOp):
    """Gated attention readout: softmax(score) weighted sum per graph."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__(dim)
        self.scorer = Linear(dim, 1, rng)
        self.transform = Linear(dim, dim, rng)

    def forward(self, h, graph_ids, num_graphs):
        scores = self.scorer(h).reshape(len(graph_ids))
        weights = segment_softmax(scores, graph_ids, num_graphs)
        values = ops.tanh(self.transform(h))
        weighted = values * weights.reshape(-1, 1)
        return segment_sum(weighted, graph_ids, num_graphs)


POOLING_OPS = {
    "mean": lambda dim, rng: MeanPooling(dim),
    "max": lambda dim, rng: MaxPooling(dim),
    "sum": lambda dim, rng: SumPooling(dim),
    "attention": AttentionPooling,
}


def create_pooling_op(name: str, dim: int, rng: np.random.Generator) -> PoolingOp:
    try:
        factory = POOLING_OPS[name]
    except KeyError:
        raise ValueError(
            f"unknown pooling op {name!r}; available: {sorted(POOLING_OPS)}"
        ) from None
    return factory(dim, rng)
