"""MLP node aggregator and the Table X search space."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.gnn.common import GraphCache
from repro.gnn.mlp_aggregator import (
    MLP_DEPTHS,
    MLP_WIDTHS,
    MLPAggregator,
    MLPGNNModel,
)


class TestMLPAggregator:
    def test_output_shape(self, tiny_graph, rng):
        agg = MLPAggregator(tiny_graph.num_features, 6, rng, width=16, depth=2)
        out = agg(Tensor(tiny_graph.features), GraphCache(tiny_graph))
        assert out.shape == (tiny_graph.num_nodes, 6)

    def test_depth_one_is_single_linear(self, rng):
        agg = MLPAggregator(4, 6, rng, width=32, depth=1)
        assert len(agg.mlp.layers) == 1

    def test_depth_validated(self, rng):
        with pytest.raises(ValueError, match="depth"):
            MLPAggregator(4, 6, rng, depth=0)

    def test_aggregates_over_closed_neighborhood(self, rng, path_graph):
        agg = MLPAggregator(2, 3, rng, width=8, depth=1)
        cache = GraphCache(path_graph)
        out = agg(Tensor(path_graph.features), cache)
        # Node 0's closed neighborhood: {0, 1}.
        manual = agg.mlp(Tensor((path_graph.features[0] + path_graph.features[1])[None]))
        np.testing.assert_allclose(out.data[0], manual.data[0], atol=1e-10)


class TestMLPSpace:
    def test_sizes(self):
        assert len(MLP_WIDTHS) == 4
        assert len(MLP_DEPTHS) == 3


class TestMLPGNNModel:
    def test_forward_shape(self, tiny_graph, rng):
        model = MLPGNNModel(
            tiny_graph.num_features,
            8,
            tiny_graph.num_classes,
            [(16, 2), (8, 1), (32, 3)],
            rng,
        )
        out = model(tiny_graph.features, GraphCache(tiny_graph))
        assert out.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_requires_specs(self, rng):
        with pytest.raises(ValueError, match="layer spec"):
            MLPGNNModel(4, 8, 2, [], rng)

    def test_specs_recorded(self, rng):
        model = MLPGNNModel(4, 8, 2, [(8, 1)], rng)
        assert model.layer_specs == [(8, 1)]
