"""Every trainable tensor of every module is a registered Parameter.

``Module.named_parameters`` discovers only :class:`Parameter` objects
(directly, in submodules, or inside lists/tuples/dicts). A
gradient-requiring plain ``Tensor`` on a module never trains: the
optimiser does not see it and ``zero_grad`` skips it. This builds one
instance of every concrete ``Module`` subclass in the package and walks
its attributes; the exhaustiveness test fails when a new subclass has
no case, so a new module cannot skip the walk.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.core.search_space import SearchSpace
from repro.core.supernet import SaneSupernet
from repro.gnn.aggregators import (
    GATAggregator,
    GCNAggregator,
    GeniePathAggregator,
    GINAggregator,
    NodeAggregator,
    SageAggregator,
)
from repro.gnn.layer_aggregators import (
    ConcatLayerAggregator,
    LayerAggregator,
    LSTMLayerAggregator,
    MaxLayerAggregator,
)
from repro.gnn.lgcn import LGCNLayer, LGCNModel
from repro.gnn.mlp_aggregator import MLPAggregator, MLPGNNModel
from repro.gnn.models import GNNModel
from repro.graphclf.models import GraphClassifier
from repro.graphclf.pooling import (
    AttentionPooling,
    MaxPooling,
    MeanPooling,
    PoolingOp,
    SumPooling,
)
from repro.graphclf.search import GraphSearchConfig, GraphSupernet
from repro.kg.align import EmbeddingAligner, GNNAligner
from repro.kg.data import generate_alignment_dataset
from repro.kg.search import AlignSearchConfig, AlignSupernet
from repro.nas.encoding import sane_decision_space
from repro.nas.graphnas import Controller
from repro.nn.layers import MLP, Dropout, Linear
from repro.nn.lstm import BiLSTMAttention, LSTMCell
from repro.nn.module import Module
from tests.helpers import unregistered_tensors

# Bases that only define an interface; they are never built directly.
ABSTRACT = {NodeAggregator, LayerAggregator, PoolingOp}


def rng():
    return np.random.default_rng(0)


def alignment():
    return generate_alignment_dataset(seed=0, num_core=30, extra_1=4, extra_2=4)


CASES = {
    Linear: lambda: Linear(4, 3, rng()),
    MLP: lambda: MLP([4, 8, 3], rng()),
    Dropout: lambda: Dropout(0.5, rng()),
    LSTMCell: lambda: LSTMCell(4, 6, rng()),
    BiLSTMAttention: lambda: BiLSTMAttention(4, 6, rng()),
    SageAggregator: lambda: SageAggregator(4, 6, rng(), reduce="max"),
    GCNAggregator: lambda: GCNAggregator(4, 6, rng()),
    GATAggregator: lambda: GATAggregator(4, 6, rng(), variant="gen-linear", heads=2),
    GINAggregator: lambda: GINAggregator(4, 6, rng()),
    GeniePathAggregator: lambda: GeniePathAggregator(4, 6, rng()),
    MLPAggregator: lambda: MLPAggregator(4, 6, rng(), width=8),
    ConcatLayerAggregator: lambda: ConcatLayerAggregator(3, 6),
    MaxLayerAggregator: lambda: MaxLayerAggregator(3, 6),
    LSTMLayerAggregator: lambda: LSTMLayerAggregator(3, 6, rng()),
    GNNModel: lambda: GNNModel(
        4, 8, 3, ["gat", "geniepath"], rng(),
        skip_connections=[True, False], layer_aggregator="lstm",
    ),
    LGCNLayer: lambda: LGCNLayer(4, 6, 2, rng()),
    LGCNModel: lambda: LGCNModel(4, 8, 3, rng(), num_layers=2),
    MLPGNNModel: lambda: MLPGNNModel(4, 8, 3, [(8, 1)], rng()),
    SaneSupernet: lambda: SaneSupernet(SearchSpace(num_layers=2), 4, 8, 3, rng()),
    Controller: lambda: Controller(
        sane_decision_space(SearchSpace(num_layers=2)), rng()
    ),
    EmbeddingAligner: lambda: EmbeddingAligner(alignment(), 8, rng()),
    GNNAligner: lambda: GNNAligner(alignment(), ["gcn", "gat"], 8, rng()),
    AlignSupernet: lambda: AlignSupernet(
        alignment(),
        AlignSearchConfig(num_layers=2, embedding_dim=8, node_ops=("gcn", "gat")),
        rng(),
    ),
    MeanPooling: lambda: MeanPooling(4),
    MaxPooling: lambda: MaxPooling(4),
    SumPooling: lambda: SumPooling(4),
    AttentionPooling: lambda: AttentionPooling(4, rng()),
    GraphClassifier: lambda: GraphClassifier(4, 8, 3, ["gcn", "gin"], "attention", rng()),
    GraphSupernet: lambda: GraphSupernet(
        4, 3, GraphSearchConfig(hidden_dim=8, node_ops=("gcn", "gin")), rng()
    ),
}


def package_module_classes() -> set[type]:
    """Every ``Module`` subclass defined anywhere in the package."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, stack = set(), [Module]
    while stack:
        for subclass in stack.pop().__subclasses__():
            if subclass not in found and subclass.__module__.startswith("repro."):
                found.add(subclass)
                stack.append(subclass)
    return found


class TestParameterRegistration:
    def test_cases_cover_every_module_subclass(self):
        concrete = package_module_classes() - ABSTRACT
        assert {cls.__qualname__ for cls in concrete - set(CASES)} == set()
        assert {cls.__qualname__ for cls in set(CASES) - concrete} == set()

    @pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
    def test_every_trainable_tensor_is_registered(self, cls):
        model = CASES[cls]()
        assert type(model) is cls
        assert unregistered_tensors(model) == []
