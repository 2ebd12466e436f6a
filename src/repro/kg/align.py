"""Entity-alignment models and training (DB task, Section IV-D).

Three model families from Table VIII:

* :class:`EmbeddingAligner` — the JAPE-like baseline: per-KG TransE
  embeddings pulled together on seed links, no graph convolution;
* :class:`GNNAligner` — GCN-Align-style: learned entity embeddings
  refined by a (shared-weight) GNN encoder per KG; with
  ``node_aggregators=['gcn', 'gcn']`` this *is* our GCN-Align, and any
  other aggregator combination realises a SANE-searched alignment
  architecture (the paper finds "GAT-GeniePath");
* training — margin-based ranking with negative sampling, early
  stopping on validation Hits@1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd import functional as F
from repro.autograd import no_grad, ops
from repro.autograd.scatter import gather
from repro.autograd.tensor import Tensor
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache
from repro.kg.data import AlignmentDataset
from repro.kg.metrics import evaluate_alignment
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.train.trainer import run_training

__all__ = [
    "AlignConfig",
    "AlignResult",
    "EmbeddingAligner",
    "GNNAligner",
    "l2_normalize",
    "margin_ranking_loss",
    "train_aligner",
]


def l2_normalize(embeddings: Tensor) -> Tensor:
    """Row-normalise embeddings to the unit sphere.

    GCN-Align normalises entity embeddings before the L1 ranking;
    without it the margin loss can satisfy itself by shrinking norms
    and Hits@k collapses (observed ~0.03 → ~0.44 Hits@1 here).
    """
    squared = ops.clip(ops.sum(embeddings * embeddings, axis=1, keepdims=True), low=1e-12)
    return embeddings / squared**0.5


@dataclasses.dataclass
class AlignConfig:
    """Training hyper-parameters for alignment models."""

    epochs: int = 300
    lr: float = 1e-2
    weight_decay: float = 1e-5
    margin: float = 1.0
    num_negatives: int = 8
    patience: int = 60
    grad_clip: float = 5.0
    embedding_dim: int = 48

    def replace(self, **updates) -> "AlignConfig":
        return dataclasses.replace(self, **updates)


@dataclasses.dataclass
class AlignResult:
    """Hits@k tables at the best-validation epoch."""

    val_hits1: float
    test_hits: dict[str, dict[int, float]]
    best_epoch: int
    train_time: float


class EmbeddingAligner(Module):
    """JAPE-like baseline: joint translation embedding with merged seeds.

    Following JAPE's structure-embedding component, both KGs live in a
    single embedding table; every *training* seed pair shares one row
    (hard alignment), so the TransE objective ``h + r ≈ t`` over both
    triple sets propagates alignment from seeds to test entities
    through shared relational context. No neighborhood aggregation is
    performed — which is why the GNN methods beat it in Table VIII.
    """

    def __init__(self, dataset: AlignmentDataset, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dataset = dataset
        n1 = dataset.kg1.num_entities
        n2 = dataset.kg2.num_entities
        # kg1 entities map to rows [0, n1); kg2 entities map either to
        # their seed partner's row or to their own fresh row.
        self._map_1 = np.arange(n1, dtype=np.int64)
        self._map_2 = np.full(n2, -1, dtype=np.int64)
        for kg1_index, kg2_index in dataset.train_links:
            self._map_2[kg2_index] = kg1_index
        fresh = np.flatnonzero(self._map_2 < 0)
        self._map_2[fresh] = n1 + np.arange(len(fresh))
        num_rows = n1 + len(fresh)

        self.entities = Parameter(init.xavier_uniform((num_rows, dim), rng))
        num_rel = max(dataset.kg1.num_relations, dataset.kg2.num_relations, 1)
        self.relations = Parameter(init.xavier_uniform((num_rel, dim), rng))

    def encode(self) -> tuple[Tensor, Tensor]:
        table = l2_normalize(self.entities)
        return gather(table, self._map_1), gather(table, self._map_2)

    def structure_loss(self, rng: np.random.Generator) -> Tensor:
        """TransE margin loss over both KGs in the merged index space."""
        total = None
        for triples, mapping in (
            (self.dataset.kg1.triples, self._map_1),
            (self.dataset.kg2.triples, self._map_2),
        ):
            heads = gather(self.entities, mapping[triples[:, 0]])
            rels = gather(self.relations, triples[:, 1])
            tails = gather(self.entities, mapping[triples[:, 2]])
            corrupt = rng.integers(0, self.entities.shape[0], size=len(triples))
            fake_tails = gather(self.entities, corrupt)
            pos = ops.sum(ops.abs(heads + rels - tails), axis=1)
            neg = ops.sum(ops.abs(heads + rels - fake_tails), axis=1)
            loss = ops.mean(F.relu(pos - neg + 1.0))
            total = loss if total is None else total + loss
        return total


class GNNAligner(Module):
    """GCN-Align-style model: embeddings + per-KG GNN encoder.

    The encoder weights are shared between the two KGs (as in
    GCN-Align), so structural roles map to the same embedding regions
    in both languages. ``node_aggregators`` picks the per-layer ops —
    the degrees of freedom SANE searches over for this task.
    """

    def __init__(
        self,
        dataset: AlignmentDataset,
        node_aggregators: list[str],
        dim: int,
        rng: np.random.Generator,
        activation: str = "tanh",
    ):
        super().__init__()
        if not node_aggregators:
            raise ValueError("need at least one encoder layer")
        self.dataset = dataset
        self.entities_1 = Parameter(init.xavier_uniform((dataset.kg1.num_entities, dim), rng))
        self.entities_2 = Parameter(init.xavier_uniform((dataset.kg2.num_entities, dim), rng))
        self.layers = [
            create_node_aggregator(name, dim, dim, rng) for name in node_aggregators
        ]
        self.activation = F.ACTIVATIONS[activation]
        self.cache_1 = GraphCache(dataset.kg1.as_graph())
        self.cache_2 = GraphCache(dataset.kg2.as_graph())
        self.node_aggregator_names = list(node_aggregators)

    def _encode_one(self, embeddings: Tensor, cache: GraphCache) -> Tensor:
        h = embeddings
        for layer in self.layers:
            h = self.activation(layer(h, cache))
        return l2_normalize(h)

    def encode(self) -> tuple[Tensor, Tensor]:
        z1 = self._encode_one(self.entities_1, self.cache_1)
        z2 = self._encode_one(self.entities_2, self.cache_2)
        return z1, z2

    def structure_loss(self, rng: np.random.Generator) -> Tensor | None:
        return None  # structure enters through the GNN propagation


def margin_ranking_loss(
    z1: Tensor,
    z2: Tensor,
    links: np.ndarray,
    rng: np.random.Generator,
    margin: float,
    num_negatives: int,
) -> Tensor:
    """Hinge loss pulling seed pairs together, negatives apart.

    For every gold link (i, j): ``relu(d(i, j) - d(i, j') + margin)``
    plus the symmetric corruption of the first side, L1 distances.
    """
    links = np.asarray(links, dtype=np.int64)
    anchors_1 = gather(z1, links[:, 0])
    anchors_2 = gather(z2, links[:, 1])
    pos = ops.sum(ops.abs(anchors_1 - anchors_2), axis=1)
    total = None
    for __ in range(num_negatives):
        fake_2 = gather(z2, rng.integers(0, z2.shape[0], size=len(links)))
        fake_1 = gather(z1, rng.integers(0, z1.shape[0], size=len(links)))
        neg_right = ops.sum(ops.abs(anchors_1 - fake_2), axis=1)
        neg_left = ops.sum(ops.abs(fake_1 - anchors_2), axis=1)
        loss = ops.mean(F.relu(pos - neg_right + margin)) + ops.mean(
            F.relu(pos - neg_left + margin)
        )
        total = loss if total is None else total + loss
    return total / (2 * num_negatives)


def train_aligner(
    model: Module,
    dataset: AlignmentDataset,
    config: AlignConfig | None = None,
    seed: int = 0,
) -> AlignResult:
    """Train any aligner exposing ``encode()``; early-stop on val Hits@1."""
    config = config or AlignConfig()
    rng = np.random.default_rng(seed)

    def loss() -> Tensor:
        z1, z2 = model.encode()
        ranking = margin_ranking_loss(
            z1, z2, dataset.train_links, rng, config.margin, config.num_negatives
        )
        structure = model.structure_loss(rng)
        return ranking if structure is None else ranking + 0.5 * structure

    def validate():
        model.eval()
        with no_grad():
            z1, z2 = model.encode()
        z1, z2 = z1.numpy(), z2.numpy()
        val = evaluate_alignment(z1, z2, dataset.val_links, ks=(1,))

        def record():
            return {"test": evaluate_alignment(z1, z2, dataset.test_links)}

        return val["zh->en"][1], None, record

    best = run_training(model, config, [loss], validate, task="kg-align")
    return AlignResult(
        val_hits1=best.val_score,
        test_hits=best.scores.get("test"),
        best_epoch=best.epoch,
        train_time=best.train_time,
    )
