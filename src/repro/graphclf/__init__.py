"""Whole-graph classification with searchable pooling (paper future work)."""

from repro.graphclf.data import (
    GRAPH_CLASSES,
    GraphClassificationDataset,
    generate_graph_dataset,
)
from repro.graphclf.pooling import POOLING_OPS, PoolingOp, create_pooling_op
from repro.graphclf.models import (
    GraphBatch,
    GraphClassifier,
    collate,
    train_graph_classifier,
)
from repro.graphclf.search import (
    GraphSearchConfig,
    GraphSearchResult,
    GraphSupernet,
    search_graph_classifier,
)

__all__ = [
    "GRAPH_CLASSES",
    "GraphClassificationDataset",
    "generate_graph_dataset",
    "POOLING_OPS",
    "PoolingOp",
    "create_pooling_op",
    "GraphBatch",
    "GraphClassifier",
    "collate",
    "train_graph_classifier",
    "GraphSearchConfig",
    "GraphSearchResult",
    "GraphSupernet",
    "search_graph_classifier",
]
