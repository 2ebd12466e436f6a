"""Training loops: learning, early stopping, best-state restore."""

import numpy as np
import pytest

from repro.autograd import ops
from repro.gnn.models import build_baseline
from repro.nn.module import Module, Parameter
from repro.train.trainer import TrainConfig, fit, run_training


def make_model(data, seed=0, name="gcn", **kwargs):
    rng = np.random.default_rng(seed)
    return build_baseline(
        name, data.num_features, data.num_classes, rng, hidden_dim=8, **kwargs
    )


class TestTransductive:
    def test_learns_above_chance(self, tiny_graph):
        model = make_model(tiny_graph)
        result = fit(model, tiny_graph, TrainConfig(epochs=60, patience=30))
        assert result.test_score > 1.0 / tiny_graph.num_classes + 0.15
        assert result.val_score > 0

    def test_history_recorded(self, tiny_graph):
        model = make_model(tiny_graph)
        result = fit(model, tiny_graph, TrainConfig(epochs=5, patience=5))
        assert len(result.history) == 5
        losses = [l for l, __ in result.history]
        assert all(np.isfinite(losses))

    def test_early_stopping_cuts_run(self, tiny_graph):
        model = make_model(tiny_graph)
        result = fit(
            model, tiny_graph, TrainConfig(epochs=500, patience=3)
        )
        assert len(result.history) < 500

    def test_best_state_restored(self, tiny_graph):
        """After training, the model scores exactly result.val_score."""
        from repro.autograd import no_grad
        from repro.gnn.common import GraphCache
        from repro.train.metrics import accuracy

        model = make_model(tiny_graph)
        result = fit(model, tiny_graph, TrainConfig(epochs=30, patience=10))
        model.eval()
        with no_grad():
            logits = model(tiny_graph.features, GraphCache(tiny_graph)).numpy()
        val = accuracy(logits, tiny_graph.labels, tiny_graph.mask("val"))
        assert val == pytest.approx(result.val_score)

    def test_train_time_positive(self, tiny_graph):
        result = fit(
            make_model(tiny_graph), tiny_graph, TrainConfig(epochs=3, patience=3)
        )
        assert result.train_time > 0


class TestInductive:
    def test_runs_and_scores(self, tiny_ppi):
        model = make_model(tiny_ppi, dropout=0.1)
        result = fit(model, tiny_ppi, TrainConfig(epochs=25, patience=25, lr=0.01))
        assert 0.0 <= result.test_score <= 1.0
        assert len(result.history) <= 25

    def test_loss_decreases(self, tiny_ppi):
        model = make_model(tiny_ppi, dropout=0.0)
        result = fit(model, tiny_ppi, TrainConfig(epochs=30, patience=30, lr=0.01))
        losses = [l for l, __ in result.history]
        assert losses[-1] < losses[0]


class TestFitDispatch:
    def test_graph_routes_transductive(self, tiny_graph):
        result = fit(make_model(tiny_graph), tiny_graph, TrainConfig(epochs=2, patience=2))
        assert result.best_epoch >= 0

    def test_multigraph_routes_inductive(self, tiny_ppi):
        result = fit(make_model(tiny_ppi), tiny_ppi, TrainConfig(epochs=2, patience=2))
        assert result.best_epoch >= 0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot train"):
            fit(None, [1, 2, 3])


class TestTrainConfig:
    def test_replace_is_functional(self):
        config = TrainConfig(epochs=10)
        other = config.replace(epochs=5, lr=0.1)
        assert config.epochs == 10
        assert other.epochs == 5
        assert other.lr == 0.1


class _OneWeight(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([1.0]))


def scripted_run(scores, losses=None, patience=100):
    """run_training on a one-weight model whose validation replays a script.

    Epoch ``i`` validates to ``scores[i]`` (and ``losses[i]``), records
    ``{"test": i}`` and logs the weight it validated.
    """
    model = _OneWeight()
    weights = []

    def validate():
        epoch = len(weights)
        weights.append(model.w.data.copy())
        loss = None if losses is None else losses[epoch]
        return scores[epoch], loss, lambda: {"test": epoch}

    best = run_training(
        model,
        TrainConfig(epochs=len(scores), lr=0.1, patience=patience),
        [lambda: ops.sum(model.w * model.w)],
        validate,
    )
    return best, model, weights


class TestEarlyStoppingRule:
    def test_tie_broken_by_lower_val_loss(self):
        best, __, __ = scripted_run([0.5, 0.5, 0.5], losses=[1.0, 0.8, 0.9])
        assert best.epoch == 1
        assert best.scores == {"test": 1}

    def test_tie_never_wins_without_a_loss(self):
        best, __, __ = scripted_run([0.5, 0.5, 0.5])
        assert best.epoch == 0
        assert best.scores == {"test": 0}

    def test_patience_counts_epochs_since_the_best(self):
        scores = [0.1, 0.5, 0.4, 0.6, 0.3, 0.2, 0.9]
        best, __, weights = scripted_run(scores, patience=2)
        # Epoch 2 does not improve, epoch 3 does and restarts the count;
        # epochs 4 and 5 then use up the patience before epoch 6 runs.
        assert len(weights) == len(best.history) == 6
        assert best.epoch == 3
        assert best.val_score == 0.6

    def test_best_state_loaded_back(self):
        best, model, weights = scripted_run([0.1, 0.9, 0.2, 0.3])
        assert best.epoch == 1
        assert not np.array_equal(weights[1], weights[-1])
        np.testing.assert_array_equal(model.w.data, weights[1])
