"""Activations, softmax family, dropout and losses."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, ops

from tests.helpers import check_gradient

RNG = np.random.default_rng(3)
MATRIX = RNG.normal(size=(5, 4))


class TestActivations:
    @pytest.mark.parametrize(
        "fn",
        [F.relu, F.leaky_relu, F.elu, F.tanh, F.sigmoid],
        ids=["relu", "leaky_relu", "elu", "tanh", "sigmoid"],
    )
    def test_gradient(self, fn):
        data = MATRIX + 0.05  # keep clear of relu/elu kinks
        check_gradient(lambda t: ops.sum(fn(t)), data)

    def test_relu_zeroes_negatives(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = F.leaky_relu(Tensor([-10.0]), negative_slope=0.2)
        np.testing.assert_allclose(out.data, [-2.0])

    def test_elu_saturates(self):
        out = F.elu(Tensor([-50.0]))
        np.testing.assert_allclose(out.data, [-1.0], atol=1e-6)

    def test_elu_no_overflow_on_large_positive(self):
        out = F.elu(Tensor([1000.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1000.0])

    def test_sigmoid_range_and_symmetry(self):
        x = Tensor(np.linspace(-50, 50, 11))
        s = F.sigmoid(x).data
        assert ((s >= 0) & (s <= 1)).all()
        np.testing.assert_allclose(s + s[::-1], 1.0, atol=1e-12)

    def test_linear_activation_is_identity(self):
        x = Tensor([1.0, -2.0])
        np.testing.assert_allclose(F.ACTIVATIONS["linear"](x).data, x.data)

    def test_activation_registry_complete(self):
        for name in ("relu", "leaky_relu", "elu", "tanh", "sigmoid", "linear"):
            assert name in F.ACTIVATIONS


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(Tensor(MATRIX), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        a = F.softmax(Tensor(MATRIX), axis=1).data
        b = F.softmax(Tensor(MATRIX + 1000.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_overflow_at_extremes(self):
        out = F.softmax(Tensor([[1e4, -1e4]]), axis=1)
        assert np.isfinite(out.data).all()

    def test_log_softmax_matches_log_of_softmax(self):
        ls = F.log_softmax(Tensor(MATRIX), axis=1).data
        s = F.softmax(Tensor(MATRIX), axis=1).data
        np.testing.assert_allclose(ls, np.log(s), atol=1e-10)

    def test_softmax_gradient(self):
        weight = Tensor(RNG.normal(size=MATRIX.shape))
        check_gradient(lambda t: ops.sum(F.softmax(t, axis=1) * weight), MATRIX)

    def test_log_softmax_gradient(self):
        weight = Tensor(RNG.normal(size=MATRIX.shape))
        check_gradient(lambda t: ops.sum(F.log_softmax(t, axis=1) * weight), MATRIX)


class TestDropout:
    def test_identity_when_not_training(self):
        rng = np.random.default_rng(0)
        x = Tensor(MATRIX)
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, MATRIX)

    def test_identity_when_p_zero(self):
        rng = np.random.default_rng(0)
        out = F.dropout(Tensor(MATRIX), 0.0, training=True, rng=rng)
        np.testing.assert_allclose(out.data, MATRIX)

    def test_scales_kept_values(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, training=True, rng=rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(100_000))
        out = F.dropout(x, 0.3, training=True, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.02

    def test_invalid_probability_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="probability"):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=rng)

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(50), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.2]])
        targets = np.array([0, 1])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[[0, 1], targets]).mean()
        assert abs(loss - expected) < 1e-10

    def test_cross_entropy_gradient(self):
        targets = np.array([0, 2, 1, 3, 0])
        check_gradient(
            lambda t: F.cross_entropy(t, targets), RNG.normal(size=(5, 4))
        )

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1])).item()
        assert loss < 1e-6

    def test_nll_reductions(self):
        log_probs = Tensor(np.log(np.full((2, 2), 0.5)))
        targets = np.array([0, 1])
        none = F.nll_loss(log_probs, targets, reduction="none")
        assert none.shape == (2,)
        total = F.nll_loss(log_probs, targets, reduction="sum").item()
        mean = F.nll_loss(log_probs, targets, reduction="mean").item()
        assert abs(total - 2 * mean) < 1e-12

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError, match="reduction"):
            F.cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), reduction="bad")

    def test_bce_matches_manual(self):
        logits = np.array([[0.5, -1.0]])
        targets = np.array([[1.0, 0.0]])
        loss = F.binary_cross_entropy_with_logits(
            Tensor(logits), Tensor(targets)
        ).item()
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert abs(loss - expected) < 1e-10

    def test_bce_stable_at_extreme_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        targets = Tensor(np.array([[1.0, 0.0]]))
        loss = F.binary_cross_entropy_with_logits(logits, targets).item()
        assert np.isfinite(loss)
        assert loss < 1e-6

    def test_bce_gradient(self):
        targets = Tensor((RNG.random((3, 4)) > 0.5).astype(np.float64))
        check_gradient(
            lambda t: F.binary_cross_entropy_with_logits(t, targets),
            RNG.normal(size=(3, 4)),
        )
