"""Alignment models and training."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.kg.align import (
    AlignConfig,
    EmbeddingAligner,
    GNNAligner,
    l2_normalize,
    margin_ranking_loss,
    train_aligner,
)
from repro.kg.data import generate_alignment_dataset
from repro.kg.metrics import evaluate_alignment
from repro.obs import record_events, render_run


@pytest.fixture(scope="module")
def dataset():
    return generate_alignment_dataset(seed=0, num_core=80, extra_1=10, extra_2=20)


FAST = AlignConfig(epochs=30, patience=30, embedding_dim=16, num_negatives=3)


class TestL2Normalize:
    def test_unit_rows(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        out = l2_normalize(x).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_zero_row_safe(self):
        out = l2_normalize(Tensor(np.zeros((1, 3)))).data
        assert np.isfinite(out).all()


class TestMarginLoss:
    def test_nonnegative(self, dataset):
        rng = np.random.default_rng(0)
        z1 = Tensor(rng.normal(size=(dataset.kg1.num_entities, 8)))
        z2 = Tensor(rng.normal(size=(dataset.kg2.num_entities, 8)))
        loss = margin_ranking_loss(z1, z2, dataset.train_links, rng, 1.0, 2)
        assert loss.item() >= 0.0

    def test_zero_when_pairs_identical_and_negatives_far(self):
        rng = np.random.default_rng(0)
        base = np.zeros((4, 2))
        base[2:] = 100.0  # potential negatives are far away
        z1 = Tensor(base)
        z2 = Tensor(base.copy())
        links = np.array([[0, 0], [1, 1]])
        loss = margin_ranking_loss(z1, z2, links, rng, 0.5, 1)
        # pos distance 0; negatives either the pair itself (hinge=margin)
        # or far (hinge=0) — loss is bounded by the margin.
        assert loss.item() <= 0.5 + 1e-9


class TestEmbeddingAligner:
    def test_seed_pairs_share_rows(self, dataset, rng):
        model = EmbeddingAligner(dataset, 16, rng)
        z1, z2 = model.encode()
        i, j = dataset.train_links[0]
        np.testing.assert_allclose(z1.data[i], z2.data[j])

    def test_non_seed_entities_have_own_rows(self, dataset, rng):
        model = EmbeddingAligner(dataset, 16, rng)
        z1, z2 = model.encode()
        i, j = dataset.test_links[0]
        assert not np.allclose(z1.data[i], z2.data[j])

    def test_structure_loss_differentiable(self, dataset, rng):
        model = EmbeddingAligner(dataset, 16, rng)
        loss = model.structure_loss(np.random.default_rng(0))
        loss.backward()
        assert model.entities.grad is not None
        assert model.relations.grad is not None


class TestGNNAligner:
    def test_encode_shapes_and_norms(self, dataset, rng):
        model = GNNAligner(dataset, ["gcn", "gcn"], 16, rng)
        z1, z2 = model.encode()
        assert z1.shape == (dataset.kg1.num_entities, 16)
        assert z2.shape == (dataset.kg2.num_entities, 16)
        np.testing.assert_allclose(np.linalg.norm(z1.data, axis=1), 1.0, atol=1e-8)

    def test_requires_layers(self, dataset, rng):
        with pytest.raises(ValueError, match="encoder layer"):
            GNNAligner(dataset, [], 16, rng)

    def test_shared_weights_across_views(self, dataset, rng):
        model = GNNAligner(dataset, ["gcn"], 16, rng)
        # One layer list serves both KGs: only one set of layer params.
        layer_params = [
            name for name, __ in model.named_parameters() if name.startswith("layers")
        ]
        assert len(layer_params) == 2  # gcn weight + bias


class TestTrainAligner:
    def test_training_improves_over_init(self, dataset):
        model = GNNAligner(dataset, ["gcn", "gcn"], 16, np.random.default_rng(0))
        result = train_aligner(model, dataset, FAST, seed=0)
        assert result.val_hits1 > 0.0
        assert result.test_hits["zh->en"][50] > 0.2

    def test_result_structure(self, dataset):
        model = EmbeddingAligner(dataset, 16, np.random.default_rng(0))
        result = train_aligner(model, dataset, FAST, seed=0)
        assert set(result.test_hits) == {"zh->en", "en->zh"}
        assert set(result.test_hits["zh->en"]) == {1, 10, 50}
        assert result.train_time > 0

    @pytest.mark.parametrize("family", ["jape", "gcn-align"])
    def test_best_state_restored(self, dataset, family):
        """The model keeps the best epoch's weights and scores result.val_hits1."""
        from repro.autograd import no_grad

        def train(epochs):
            rng = np.random.default_rng(0)
            if family == "jape":
                model = EmbeddingAligner(dataset, 16, rng)
            else:
                model = GNNAligner(dataset, ["gcn", "gcn"], 16, rng)
            config = FAST.replace(epochs=epochs, patience=5)
            return model, train_aligner(model, dataset, config, seed=0)

        model, result = train(20)
        # A rerun that stops at the best epoch ends on the same weights.
        stopped, __ = train(result.best_epoch + 1)
        for name, value in stopped.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[name], value)
        model.eval()
        with no_grad():
            z1, z2 = model.encode()
        val = evaluate_alignment(z1.numpy(), z2.numpy(), dataset.val_links, ks=(1,))
        assert val["zh->en"][1] == result.val_hits1

    def test_training_emits_train_events(self, dataset, tmp_path):
        model = EmbeddingAligner(dataset, 16, np.random.default_rng(0))
        path = tmp_path / "events.jsonl"
        with record_events(path) as recorder:
            result = train_aligner(model, dataset, FAST.replace(epochs=3), seed=0)
        (start,) = recorder.events("train_start")
        assert start["data"] == {"task": "kg-align", "epochs": 3}
        epochs = recorder.events("train_epoch")
        assert [event["epoch"] for event in epochs] == [0, 1, 2]
        assert all(event["data"]["val_loss"] is None for event in epochs)
        (end,) = recorder.events("train_end")
        assert end["data"]["best_epoch"] == result.best_epoch
        assert "training runs: 1," in render_run(path)
