"""SANE adapted to the entity-alignment task (Section IV-D).

Following the paper, the DB-task search differs from the benchmark
tasks: the backbone is a 2-layer GNN and the layer aggregator is
removed ("the performance decreases when simply adding the layer
aggregator"), so only node-aggregator combinations are searched. The
supernet mixes the candidate aggregators inside a shared-weight
GCN-Align-style encoder; ``alpha`` descends the validation margin loss
and ``w`` the training margin loss, exactly as Algorithm 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd import functional as F
from repro.autograd import no_grad, ops
from repro.autograd.tensor import Tensor
from repro.core import bilevel
from repro.core.search_space import NODE_OPS
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache
from repro.kg.align import l2_normalize, margin_ranking_loss
from repro.kg.data import AlignmentDataset
from repro.kg.metrics import evaluate_alignment
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.obs.spans import op_scope

__all__ = ["AlignSearchConfig", "AlignSearchResult", "AlignSupernet", "search_alignment"]


@dataclasses.dataclass
class AlignSearchConfig:
    """Search hyper-parameters for the DB task."""

    epochs: int = 60
    num_layers: int = 2
    embedding_dim: int = 32
    node_ops: tuple[str, ...] = NODE_OPS
    w_lr: float = 1e-2
    w_weight_decay: float = 1e-5
    alpha_lr: float = 3e-3
    alpha_weight_decay: float = 1e-3
    margin: float = 1.0
    num_negatives: int = 3
    grad_clip: float = 5.0


@dataclasses.dataclass
class AlignSearchResult:
    node_aggregators: tuple[str, ...]
    search_time: float
    history: list[tuple[float, float]]


class AlignSupernet(Module):
    """Mixed-op alignment encoder (2 layers by default, no layer agg)."""

    def __init__(
        self,
        dataset: AlignmentDataset,
        config: AlignSearchConfig,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.config = config
        dim = config.embedding_dim
        self.entities_1 = Parameter(
            init.xavier_uniform((dataset.kg1.num_entities, dim), rng)
        )
        self.entities_2 = Parameter(
            init.xavier_uniform((dataset.kg2.num_entities, dim), rng)
        )
        self.candidates = [
            [create_node_aggregator(name, dim, dim, rng) for name in config.node_ops]
            for __ in range(config.num_layers)
        ]
        self.alpha_node = Parameter(
            1e-3 * rng.normal(size=(config.num_layers, len(config.node_ops)))
        )
        self.cache_1 = GraphCache(dataset.kg1.as_graph())
        self.cache_2 = GraphCache(dataset.kg2.as_graph())

    def arch_parameters(self) -> list[Parameter]:
        return [self.alpha_node]

    def weight_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if id(p) != id(self.alpha_node)]

    def _encode_one(self, embeddings: Tensor, cache: GraphCache) -> Tensor:
        h = embeddings
        for layer_index, candidates in enumerate(self.candidates):
            weights = F.softmax(ops.getitem(self.alpha_node, layer_index), axis=-1)
            mixed = None
            for op_index, candidate in enumerate(candidates):
                # Normalise each candidate's output before mixing so the
                # alpha competition compares *directions*, not output
                # magnitudes (otherwise large-magnitude ops like
                # sage-max dominate the mixture gradient regardless of
                # their stand-alone quality).
                with op_scope(
                    edge=f"node/{layer_index}",
                    layer=layer_index,
                    op=self.config.node_ops[op_index],
                ):
                    out = l2_normalize(candidate(h, cache))
                    term = out * weights[op_index]
                mixed = term if mixed is None else mixed + term
            h = ops.tanh(mixed)
        return l2_normalize(h)

    def encode(self) -> tuple[Tensor, Tensor]:
        return (
            self._encode_one(self.entities_1, self.cache_1),
            self._encode_one(self.entities_2, self.cache_2),
        )

    def derive(self) -> tuple[str, ...]:
        choices = self.alpha_node.data.argmax(axis=1)
        return tuple(self.config.node_ops[int(c)] for c in choices)


def search_alignment(
    dataset: AlignmentDataset,
    config: AlignSearchConfig | None = None,
    seed: int = 0,
) -> AlignSearchResult:
    """Run differentiable search for the alignment encoder ops."""
    config = config or AlignSearchConfig()
    rng = np.random.default_rng(seed)
    supernet = AlignSupernet(dataset, config, rng)
    arch = supernet.arch_parameters()
    weights = supernet.weight_parameters()
    w_optimizer = Adam(weights, lr=config.w_lr, weight_decay=config.w_weight_decay)
    alpha_optimizer = Adam(
        arch, lr=config.alpha_lr, weight_decay=config.alpha_weight_decay
    )

    def step(params, optimizer, links, hold):
        def loss():
            z1, z2 = supernet.encode()
            return margin_ranking_loss(
                z1, z2, links, rng, config.margin, config.num_negatives
            )

        supernet.train()
        return bilevel.descend(params, optimizer, loss, config.grad_clip, hold)

    def validate() -> float:
        supernet.eval()
        with no_grad():
            z1, z2 = supernet.encode()
        hits = evaluate_alignment(z1.numpy(), z2.numpy(), dataset.val_links, ks=(1,))
        return hits["zh->en"][1]

    history, __, search_time = bilevel.run_search(
        config.epochs,
        arch=arch,
        weights=weights,
        alpha_step=lambda: step(arch, alpha_optimizer, dataset.val_links, weights),
        weight_step=lambda: step(weights, w_optimizer, dataset.train_links, arch),
        validate=validate,
        snapshot=lambda: {"node": supernet.alpha_node.data.copy()},
        op_names={"node": config.node_ops},
        task="kg-align",
    )
    return AlignSearchResult(
        node_aggregators=supernet.derive(),
        search_time=search_time,
        history=history,
    )
