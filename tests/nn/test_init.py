"""Weight initialisation schemes."""

import numpy as np
import pytest

from repro.nn import init


class TestXavier:
    def test_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound

    def test_uniform_fills_range(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((200, 200), rng)
        bound = np.sqrt(6.0 / 400)
        assert np.abs(w).max() > 0.9 * bound

    def test_gain_scales(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        base = init.xavier_uniform((10, 10), rng1)
        scaled = init.xavier_uniform((10, 10), rng2, gain=2.0)
        np.testing.assert_allclose(scaled, 2.0 * base)

    def test_deterministic_given_seed(self):
        a = init.xavier_uniform((5, 5), np.random.default_rng(3))
        b = init.xavier_uniform((5, 5), np.random.default_rng(3))
        np.testing.assert_allclose(a, b)


class TestOthers:
    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3, 3)), 0.0)

    def test_uniform_custom_bound(self):
        rng = np.random.default_rng(0)
        w = init.uniform((50, 50), rng, bound=0.2)
        assert np.abs(w).max() <= 0.2

    def test_vector_fans(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((64,), rng)
        assert w.shape == (64,)

    def test_scalar_shape_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            init.xavier_uniform((), np.random.default_rng(0))

    def test_conv_like_fans_use_receptive_field(self):
        # (out, in, k) style shape: fans scale with the trailing dims.
        rng = np.random.default_rng(0)
        small = init.xavier_uniform((4, 4, 1), rng)
        rng = np.random.default_rng(0)
        large = init.xavier_uniform((4, 4, 16), rng)
        assert np.abs(large).max() < np.abs(small).max()
