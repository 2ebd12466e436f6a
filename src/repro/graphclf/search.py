"""SANE extended to whole-graph classification (pooling search).

Implements the paper's future-work proposal: the supernet mixes not
only node aggregators per layer but also the *pooling readout*
(mean/max/sum/attention), and the same first-order bi-level update
searches both. Deriving takes the argmax per edge exactly as in
Algorithm 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd import functional as F
from repro.autograd import no_grad, ops
from repro.autograd.tensor import Tensor
from repro.core import bilevel
from repro.gnn.aggregators import create_node_aggregator
from repro.graphclf.data import GraphClassificationDataset
from repro.graphclf.models import GraphBatch, collate
from repro.graphclf.pooling import POOLING_OPS, create_pooling_op
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.obs.spans import op_scope

__all__ = ["GraphSearchConfig", "GraphSearchResult", "GraphSupernet", "search_graph_classifier"]

POOLING_CHOICES = tuple(sorted(POOLING_OPS))


@dataclasses.dataclass
class GraphSearchConfig:
    """Hyper-parameters of the pooling-search supernet."""

    epochs: int = 60
    num_layers: int = 2
    hidden_dim: int = 24
    dropout: float = 0.2
    node_ops: tuple[str, ...] = ("gcn", "gat", "gin", "sage-mean", "sage-max")
    pooling_ops: tuple[str, ...] = POOLING_CHOICES
    w_lr: float = 5e-3
    w_weight_decay: float = 2e-4
    alpha_lr: float = 3e-3
    alpha_weight_decay: float = 1e-3
    grad_clip: float = 5.0


@dataclasses.dataclass
class GraphSearchResult:
    """Derived encoder ops + pooling choice and the search trace."""

    node_aggregators: tuple[str, ...]
    pooling: str
    search_time: float
    history: list[tuple[float, float]]


class GraphSupernet(Module):
    """Mixed node-op layers plus a mixed pooling readout."""

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        config: GraphSearchConfig,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.config = config
        dim = config.hidden_dim
        self.input_proj = Linear(in_dim, dim, rng)
        self.dropout = Dropout(config.dropout, rng)
        self.node_candidates = [
            [create_node_aggregator(name, dim, dim, rng) for name in config.node_ops]
            for __ in range(config.num_layers)
        ]
        self.pool_candidates = [
            create_pooling_op(name, dim, rng) for name in config.pooling_ops
        ]
        self.head = Linear(dim, num_classes, rng)
        self.alpha_node = Parameter(
            1e-3 * rng.normal(size=(config.num_layers, len(config.node_ops)))
        )
        self.alpha_pool = Parameter(
            1e-3 * rng.normal(size=(1, len(config.pooling_ops)))
        )

    def arch_parameters(self) -> list[Parameter]:
        return [self.alpha_node, self.alpha_pool]

    def weight_parameters(self) -> list[Parameter]:
        arch = {id(self.alpha_node), id(self.alpha_pool)}
        return [p for p in self.parameters() if id(p) not in arch]

    def forward(self, batch: GraphBatch) -> Tensor:
        h = F.relu(self.input_proj(self.dropout(Tensor(batch.features))))
        for layer_index, candidates in enumerate(self.node_candidates):
            weights = F.softmax(ops.getitem(self.alpha_node, layer_index), axis=-1)
            mixed = None
            for op_index, candidate in enumerate(candidates):
                with op_scope(
                    edge=f"node/{layer_index}",
                    layer=layer_index,
                    op=self.config.node_ops[op_index],
                ):
                    term = candidate(h, batch.cache) * weights[op_index]
                mixed = term if mixed is None else mixed + term
            h = F.relu(mixed)
            h = self.dropout(h)

        weights = F.softmax(ops.getitem(self.alpha_pool, 0), axis=-1)
        pooled = None
        for op_index, pool in enumerate(self.pool_candidates):
            with op_scope(
                edge="pool/0", layer=None, op=self.config.pooling_ops[op_index]
            ):
                term = pool(h, batch.graph_ids, batch.num_graphs) * weights[op_index]
            pooled = term if pooled is None else pooled + term
        return self.head(pooled)

    def derive(self) -> tuple[tuple[str, ...], str]:
        node_choices = tuple(
            self.config.node_ops[int(i)] for i in self.alpha_node.data.argmax(axis=1)
        )
        pooling = self.config.pooling_ops[int(self.alpha_pool.data[0].argmax())]
        return node_choices, pooling


def search_graph_classifier(
    dataset: GraphClassificationDataset,
    config: GraphSearchConfig | None = None,
    seed: int = 0,
) -> GraphSearchResult:
    """Bi-level search over node aggregators + pooling readout."""
    config = config or GraphSearchConfig()
    rng = np.random.default_rng(seed)
    supernet = GraphSupernet(dataset.num_features, dataset.num_classes, config, rng)
    arch = supernet.arch_parameters()
    weights = supernet.weight_parameters()
    w_optimizer = Adam(weights, lr=config.w_lr, weight_decay=config.w_weight_decay)
    alpha_optimizer = Adam(
        arch, lr=config.alpha_lr, weight_decay=config.alpha_weight_decay
    )
    train_batch = collate(dataset.train)
    val_batch = collate(dataset.val)

    def step(params, optimizer, batch, hold):
        supernet.train()
        return bilevel.descend(
            params,
            optimizer,
            lambda: F.cross_entropy(supernet(batch), batch.labels),
            config.grad_clip,
            hold,
        )

    def validate() -> float:
        supernet.eval()
        with no_grad():
            logits = supernet(val_batch).numpy()
        return float((logits.argmax(axis=1) == val_batch.labels).mean())

    history, __, search_time = bilevel.run_search(
        config.epochs,
        arch=arch,
        weights=weights,
        alpha_step=lambda: step(arch, alpha_optimizer, val_batch, weights),
        weight_step=lambda: step(weights, w_optimizer, train_batch, arch),
        validate=validate,
        snapshot=lambda: {
            "node": supernet.alpha_node.data.copy(),
            "pool": supernet.alpha_pool.data.copy(),
        },
        op_names={"node": config.node_ops, "pool": config.pooling_ops},
        task="graphclf",
    )
    node_choices, pooling = supernet.derive()
    return GraphSearchResult(
        node_aggregators=node_choices,
        pooling=pooling,
        search_time=search_time,
        history=history,
    )
