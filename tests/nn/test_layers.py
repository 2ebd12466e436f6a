"""Linear / MLP / Dropout layers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.layers import MLP, Dropout, Linear


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(5, 3, rng)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_zero_input_gives_bias(self, rng):
        layer = Linear(4, 2, rng)
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor(np.zeros((3, 4))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] * 3)

    def test_gradients_flow(self, rng):
        layer = Linear(4, 2, rng)
        layer(Tensor(np.ones((3, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [3.0, 3.0])

    def test_repr(self, rng):
        assert "Linear(4, 2" in repr(Linear(4, 2, rng))


class TestMLP:
    def test_requires_two_dims(self, rng):
        with pytest.raises(ValueError, match="input and output"):
            MLP([4], rng)

    def test_depth(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(np.ones((5, 4)))).shape == (5, 2)

    def test_single_layer_no_activation_by_default(self, rng):
        mlp = MLP([2, 2], rng)
        out = mlp(Tensor(-100 * np.ones((1, 2))))
        # Linear output of a large negative input can be negative.
        assert out.shape == (1, 2)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        layer = Dropout(0.9, rng)
        layer.eval()
        x = np.ones((4, 4))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_train_mode_drops(self, rng):
        layer = Dropout(0.5, rng)
        out = layer(Tensor(np.ones((50, 50)))).data
        assert (out == 0).any()
        assert (out != 0).any()

