"""Graph classifier, batching and pooling search."""

import numpy as np
import pytest

from repro.graphclf import (
    GraphClassifier,
    GraphSearchConfig,
    collate,
    generate_graph_dataset,
    search_graph_classifier,
    train_graph_classifier,
)
from repro.graphclf.search import GraphSupernet
from repro.obs import record_events, render_run
from repro.train import TrainConfig


@pytest.fixture(scope="module")
def dataset():
    return generate_graph_dataset(seed=0, graphs_per_class=5, num_nodes=16)


FAST_SEARCH = GraphSearchConfig(
    epochs=4, hidden_dim=12, node_ops=("gcn", "gin"), pooling_ops=("mean", "sum")
)


class TestCollate:
    def test_offsets_are_correct(self, dataset):
        batch = collate(dataset.train[:3])
        assert batch.num_graphs == 3
        sizes = [g.num_nodes for g, __ in dataset.train[:3]]
        assert len(batch.graph_ids) == sum(sizes)
        # graph_ids are contiguous blocks.
        np.testing.assert_array_equal(np.sort(np.unique(batch.graph_ids)), [0, 1, 2])
        # No cross-graph edges: endpoints share a graph id.
        src_ids = batch.graph_ids[batch.cache.nbr_src]
        dst_ids = batch.graph_ids[batch.cache.nbr_dst]
        np.testing.assert_array_equal(src_ids, dst_ids)

    def test_labels_collected(self, dataset):
        batch = collate(dataset.train[:4])
        expected = [label for __, label in dataset.train[:4]]
        np.testing.assert_array_equal(batch.labels, expected)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collate([])


class TestGraphClassifier:
    def test_forward_shape(self, dataset, rng):
        model = GraphClassifier(
            dataset.num_features, 12, dataset.num_classes, ["gcn", "gin"], "mean", rng
        )
        batch = collate(dataset.train[:5])
        assert model(batch).shape == (5, dataset.num_classes)

    def test_requires_layers(self, dataset, rng):
        with pytest.raises(ValueError, match="at least one"):
            GraphClassifier(4, 8, 2, [], "mean", rng)

    def test_training_learns(self, dataset):
        model = GraphClassifier(
            dataset.num_features, 16, dataset.num_classes,
            ["gcn", "gcn"], "mean", np.random.default_rng(0),
        )
        result = train_graph_classifier(model, dataset, TrainConfig(epochs=80))
        assert result.test_score > 1.0 / dataset.num_classes + 0.1

    def test_describe(self, dataset, rng):
        model = GraphClassifier(4, 8, 2, ["gcn"], "attention", rng)
        assert "attention" in model.describe()

    def test_best_state_restored(self, dataset):
        """The model keeps the best epoch's weights and scores result.val_score."""
        from repro.autograd import no_grad

        def train(epochs):
            model = GraphClassifier(
                dataset.num_features, 12, dataset.num_classes,
                ["gcn", "gin"], "mean", np.random.default_rng(0),
            )
            config = TrainConfig(epochs=epochs, patience=10)
            return model, train_graph_classifier(model, dataset, config)

        model, result = train(30)
        # A rerun that stops at the best epoch ends on the same weights.
        stopped, __ = train(result.best_epoch + 1)
        for name, value in stopped.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[name], value)
        model.eval()
        with no_grad():
            logits = model(collate(dataset.val)).numpy()
        val_labels = [label for __, label in dataset.val]
        assert float((logits.argmax(axis=1) == val_labels).mean()) == result.val_score

    def test_training_emits_train_events(self, dataset, tmp_path):
        model = GraphClassifier(
            dataset.num_features, 8, dataset.num_classes,
            ["gcn"], "sum", np.random.default_rng(0),
        )
        path = tmp_path / "events.jsonl"
        with record_events(path) as recorder:
            result = train_graph_classifier(model, dataset, TrainConfig(epochs=4, patience=4))
        (start,) = recorder.events("train_start")
        assert start["data"] == {"task": "graphclf", "epochs": 4}
        assert len(recorder.events("train_epoch")) == 4
        (end,) = recorder.events("train_end")
        assert end["data"]["test_score"] == result.test_score
        assert "training runs: 1," in render_run(path)


class TestGraphSupernet:
    def test_parameter_groups(self, dataset):
        net = GraphSupernet(
            dataset.num_features, dataset.num_classes, FAST_SEARCH,
            np.random.default_rng(0),
        )
        arch = {id(p) for p in net.arch_parameters()}
        weight = {id(p) for p in net.weight_parameters()}
        assert not arch & weight
        assert len(net.arch_parameters()) == 2

    def test_derive(self, dataset):
        net = GraphSupernet(
            dataset.num_features, dataset.num_classes, FAST_SEARCH,
            np.random.default_rng(0),
        )
        net.alpha_node.data[:] = 0.0
        net.alpha_node.data[:, 1] = 2.0
        net.alpha_pool.data[:] = 0.0
        net.alpha_pool.data[0, 0] = 2.0
        nodes, pooling = net.derive()
        assert nodes == ("gin", "gin")
        assert pooling == "mean"


class TestSearch:
    def test_runs(self, dataset):
        result = search_graph_classifier(dataset, FAST_SEARCH, seed=0)
        assert len(result.node_aggregators) == 2
        assert result.pooling in FAST_SEARCH.pooling_ops
        assert len(result.history) == FAST_SEARCH.epochs

    def test_deterministic(self, dataset):
        a = search_graph_classifier(dataset, FAST_SEARCH, seed=2)
        b = search_graph_classifier(dataset, FAST_SEARCH, seed=2)
        assert a.node_aggregators == b.node_aggregators
        assert a.pooling == b.pooling
