"""Derivation and retraining of searched architectures."""

import numpy as np

from repro.core.derive import architecture_to_model, retrain
from repro.core.search_space import Architecture
from repro.train.trainer import TrainConfig

ARCH = Architecture(
    ("gcn", "gat", "sage-mean"), ("identity", "zero", "identity"), "concat"
)


class TestArchitectureToModel:
    def test_fields_transferred(self, rng):
        model = architecture_to_model(ARCH, in_dim=10, num_classes=3, rng=rng)
        assert model.node_aggregator_names == ["gcn", "gat", "sage-mean"]
        assert model.skip_connections == [True, False, True]
        assert model.layer_aggregator_name == "concat"

    def test_forward_works(self, tiny_graph, tiny_cache, rng):
        model = architecture_to_model(
            ARCH, tiny_graph.num_features, tiny_graph.num_classes, rng, hidden_dim=8
        )
        out = model(tiny_graph.features, tiny_cache)
        assert out.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)


class TestRetrain:
    def test_learns_above_chance(self, tiny_graph):
        config = TrainConfig(epochs=60, patience=20)
        result = retrain(ARCH, tiny_graph, seed=0, hidden_dim=8, train_config=config)
        chance = 1.0 / tiny_graph.num_classes
        assert result.test_score > chance + 0.15

    def test_deterministic_given_seed(self, tiny_graph):
        config = TrainConfig(epochs=10, patience=10)
        a = retrain(ARCH, tiny_graph, seed=1, hidden_dim=8, train_config=config)
        b = retrain(ARCH, tiny_graph, seed=1, hidden_dim=8, train_config=config)
        assert a.test_score == b.test_score

    def test_inductive_data(self, tiny_ppi):
        config = TrainConfig(epochs=15, patience=15)
        result = retrain(ARCH, tiny_ppi, seed=0, hidden_dim=8, train_config=config)
        assert 0.0 <= result.test_score <= 1.0

