"""Graph-level models: batching, the classifier, and its trainer.

Batching uses the standard disjoint-union trick: the graphs of a batch
are relabelled into one big graph and a ``graph_ids`` vector routes
each node to its graph, so message passing runs once over the union
and pooling is a segment reduction — the same primitives as node-level
SANE, no per-graph Python loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd import functional as F
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache
from repro.graph.data import Graph
from repro.graphclf.data import GraphClassificationDataset
from repro.graphclf.pooling import create_pooling_op
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.train.trainer import TrainConfig, run_training

__all__ = ["GraphBatch", "collate", "GraphClassifier", "train_graph_classifier"]


@dataclasses.dataclass
class GraphBatch:
    """Disjoint union of a list of graphs."""

    cache: GraphCache
    features: np.ndarray
    graph_ids: np.ndarray
    labels: np.ndarray
    num_graphs: int


def collate(samples: list[tuple[Graph, int]]) -> GraphBatch:
    """Merge (graph, label) pairs into one disjoint-union batch."""
    if not samples:
        raise ValueError("cannot collate an empty batch")
    edge_blocks = []
    feature_blocks = []
    graph_ids = []
    labels = []
    offset = 0
    for graph_index, (graph, label) in enumerate(samples):
        edge_blocks.append(graph.edge_index + offset)
        feature_blocks.append(graph.features)
        graph_ids.append(np.full(graph.num_nodes, graph_index, dtype=np.int64))
        labels.append(label)
        offset += graph.num_nodes
    union = Graph(
        edge_index=np.concatenate(edge_blocks, axis=1),
        features=np.concatenate(feature_blocks, axis=0),
        name="batch",
    )
    return GraphBatch(
        cache=GraphCache(union),
        features=union.features,
        graph_ids=np.concatenate(graph_ids),
        labels=np.asarray(labels, dtype=np.int64),
        num_graphs=len(samples),
    )


class GraphClassifier(Module):
    """Node aggregator stack + searchable pooling readout + MLP head."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        node_aggregators: list[str],
        pooling: str,
        rng: np.random.Generator,
        dropout: float = 0.3,
    ):
        super().__init__()
        if not node_aggregators:
            raise ValueError("need at least one GNN layer")
        dims_in = [in_dim] + [hidden_dim] * (len(node_aggregators) - 1)
        self.layers = [
            create_node_aggregator(name, d_in, hidden_dim, rng)
            for name, d_in in zip(node_aggregators, dims_in)
        ]
        self.pooling = create_pooling_op(pooling, hidden_dim, rng)
        self.dropout = Dropout(dropout, rng)
        self.head = Linear(hidden_dim, num_classes, rng)
        self.node_aggregator_names = list(node_aggregators)
        self.pooling_name = pooling

    def forward(self, batch: GraphBatch) -> Tensor:
        h = self.dropout(Tensor(batch.features))
        for layer in self.layers:
            h = F.relu(layer(h, batch.cache))
            h = self.dropout(h)
        pooled = self.pooling(h, batch.graph_ids, batch.num_graphs)
        return self.head(pooled)

    def describe(self) -> str:
        return f"[{', '.join(self.node_aggregator_names)}] pool={self.pooling_name}"


@dataclasses.dataclass
class GraphClfResult:
    val_score: float
    test_score: float
    best_epoch: int
    train_time: float


def _accuracy(model: GraphClassifier, batch: GraphBatch) -> float:
    model.eval()
    with no_grad():
        logits = model(batch).numpy()
    return float((logits.argmax(axis=1) == batch.labels).mean())


def train_graph_classifier(
    model: GraphClassifier,
    dataset: GraphClassificationDataset,
    config: TrainConfig | None = None,
) -> GraphClfResult:
    """Full-batch training with validation early stopping (150 epochs by default)."""
    config = config or TrainConfig(epochs=150)
    train_batch = collate(dataset.train)
    val_batch = collate(dataset.val)
    test_batch = collate(dataset.test)

    def validate():
        return _accuracy(model, val_batch), None, lambda: {"test": _accuracy(model, test_batch)}

    best = run_training(
        model,
        config,
        [lambda: F.cross_entropy(model(train_batch), train_batch.labels)],
        validate,
        task="graphclf",
    )
    return GraphClfResult(
        val_score=best.val_score,
        test_score=best.scores.get("test", 0.0),
        best_epoch=best.epoch,
        train_time=best.train_time,
    )
