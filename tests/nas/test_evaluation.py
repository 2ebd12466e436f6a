"""Candidate evaluation loop, trajectories and weight sharing."""

import numpy as np
import pytest

from repro.core.search_space import SearchSpace
from repro.nas.encoding import (
    graphnas_decision_space,
    mlp_decision_space,
    sane_decision_space,
)
from repro.gnn.common import GraphCache
from repro.nas.evaluation import (
    ArchitectureEvaluator,
    build_spec_model,
    candidate_tape_size,
    probe_cache,
)
from repro.train.trainer import TrainConfig

SPACE = sane_decision_space(
    SearchSpace(num_layers=2, node_ops=("gcn", "gat"), layer_ops=("concat", "max"))
)
FAST = TrainConfig(epochs=8, patience=8)


def make_evaluator(data, **kwargs):
    defaults = dict(train_config=FAST, hidden_dim=8, seed=0)
    defaults.update(kwargs)
    return ArchitectureEvaluator(SPACE, data, **defaults)


class TestEvaluate:
    def test_record_fields(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph)
        indices = SPACE.sample_indices(np.random.default_rng(0))
        record = evaluator.evaluate(indices)
        assert record.indices == tuple(indices)
        assert 0.0 <= record.val_score <= 1.0
        assert record.elapsed > 0

    def test_records_accumulate(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph)
        rng = np.random.default_rng(0)
        for __ in range(3):
            evaluator.evaluate(SPACE.sample_indices(rng))
        assert len(evaluator.records) == 3
        elapsed = [r.elapsed for r in evaluator.records]
        assert elapsed == sorted(elapsed)

    def test_best_record(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph)
        rng = np.random.default_rng(0)
        for __ in range(3):
            evaluator.evaluate(SPACE.sample_indices(rng))
        best = evaluator.best_record
        assert best.val_score == max(r.val_score for r in evaluator.records)

    def test_best_record_before_any_raises(self, tiny_graph):
        with pytest.raises(RuntimeError, match="no candidates"):
            make_evaluator(tiny_graph).best_record

    def test_trajectory_is_best_so_far(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph)
        rng = np.random.default_rng(0)
        for __ in range(4):
            evaluator.evaluate(SPACE.sample_indices(rng))
        scores = [s for __, s in evaluator.trajectory()]
        assert scores == sorted(scores) or all(
            scores[i] <= scores[i + 1] + 1e-12 for i in range(len(scores) - 1)
        )

    def test_graphnas_space_models(self, tiny_graph):
        space = graphnas_decision_space(2)
        evaluator = ArchitectureEvaluator(
            space, tiny_graph, train_config=FAST, seed=0
        )
        record = evaluator.evaluate(space.sample_indices(np.random.default_rng(0)))
        assert 0.0 <= record.val_score <= 1.0

    def test_mlp_space_models(self, tiny_graph):
        space = mlp_decision_space(2)
        evaluator = ArchitectureEvaluator(
            space, tiny_graph, train_config=FAST, hidden_dim=8, seed=0
        )
        record = evaluator.evaluate(space.sample_indices(np.random.default_rng(0)))
        assert 0.0 <= record.val_score <= 1.0


class TestTapeSizeProbe:
    @pytest.mark.parametrize("space", [
        sane_decision_space(SearchSpace(num_layers=3)),
        graphnas_decision_space(2),
        mlp_decision_space(2),
    ], ids=["sane", "graphnas", "mlp"])
    def test_ring_probe_counts_the_full_graph_tape(self, tiny_graph, tiny_ppi, space):
        rng = np.random.default_rng(3)
        for data in (tiny_graph, tiny_ppi):
            full = GraphCache(data if data is tiny_graph else data.train_graphs[0])
            ring = probe_cache(data)
            assert ring.num_nodes == 8
            for build_seed in range(6):
                indices = space.sample_indices(rng)
                sizes = [
                    candidate_tape_size(space, data, indices, build_seed, cache, 8)
                    for cache in (full, ring)
                ]
                assert sizes[0] == sizes[1] > 0


class TestWeightSharing:
    def test_bank_persists_and_is_reused(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph, weight_sharing=True, ws_epochs=3)
        indices = SPACE.sample_indices(np.random.default_rng(0))
        evaluator.evaluate(indices)
        bank_after_first = {k: v.copy() for k, v in evaluator._bank.items()}
        assert bank_after_first  # something was stored

        # Re-evaluating the same candidate starts from the banked weights
        # and trains further, so the bank entries change.
        evaluator.evaluate(indices)
        changed = any(
            not np.allclose(bank_after_first[k], evaluator._bank[k])
            for k in bank_after_first
        )
        assert changed

    def test_ws_uses_short_schedule(self, tiny_graph):
        evaluator = make_evaluator(tiny_graph, weight_sharing=True, ws_epochs=2)
        indices = SPACE.sample_indices(np.random.default_rng(0))
        record = evaluator.evaluate(indices)
        assert record.elapsed < 30  # sanity: short schedule


class TestBuildSpecModel:
    def test_per_layer_settings_applied(self, tiny_graph, rng):
        spec = {
            "node_aggregators": ["gcn", "gat"],
            "activations": ["relu", "tanh"],
            "heads": [1, 2],
            "hidden_dims": [8, 6],
        }
        model = build_spec_model(
            spec, tiny_graph.num_features, tiny_graph.num_classes, rng
        )
        assert model.classifier.in_features == 6
