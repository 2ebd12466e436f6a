"""Segment (message-passing) primitives: correctness and gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.scatter import (
    segment_attention_sum,
    gather,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)

from tests.helpers import check_gradient

RNG = np.random.default_rng(11)
DATA = RNG.normal(size=(6, 3))
SEG = np.array([0, 0, 1, 2, 2, 2])


class TestGather:
    def test_forward(self):
        idx = np.array([2, 0, 2])
        np.testing.assert_allclose(gather(Tensor(DATA), idx).data, DATA[idx])

    def test_repeated_index_accumulates_gradient(self):
        x = Tensor(DATA.copy(), requires_grad=True)
        gather(x, np.array([1, 1, 1])).sum().backward()
        expected = np.zeros_like(DATA)
        expected[1] = 3.0
        np.testing.assert_allclose(x.grad, expected)

    def test_gradcheck(self):
        idx = np.array([0, 3, 3, 5])
        check_gradient(lambda t: ops.sum(gather(t, idx) ** 2.0), DATA)


class TestSegmentSum:
    def test_forward_matches_loop(self):
        out = segment_sum(Tensor(DATA), SEG, 3).data
        for s in range(3):
            np.testing.assert_allclose(out[s], DATA[SEG == s].sum(axis=0))

    def test_empty_segment_is_zero(self):
        out = segment_sum(Tensor(DATA), SEG, 5).data
        np.testing.assert_allclose(out[3], 0.0)
        np.testing.assert_allclose(out[4], 0.0)

    def test_gradcheck(self):
        check_gradient(lambda t: ops.sum(segment_sum(t, SEG, 3) ** 2.0), DATA)

    def test_partition_invariant(self):
        total = segment_sum(Tensor(DATA), SEG, 3).data.sum()
        assert abs(total - DATA.sum()) < 1e-10


class TestSegmentMean:
    def test_forward_matches_loop(self):
        out = segment_mean(Tensor(DATA), SEG, 3).data
        for s in range(3):
            np.testing.assert_allclose(out[s], DATA[SEG == s].mean(axis=0))

    def test_empty_segment_is_zero(self):
        out = segment_mean(Tensor(DATA), SEG, 4).data
        np.testing.assert_allclose(out[3], 0.0)

    def test_gradcheck(self):
        check_gradient(lambda t: ops.sum(segment_mean(t, SEG, 3) ** 2.0), DATA)


class TestSegmentMax:
    def test_forward_matches_loop(self):
        out = segment_max(Tensor(DATA), SEG, 3).data
        for s in range(3):
            np.testing.assert_allclose(out[s], DATA[SEG == s].max(axis=0))

    def test_empty_segment_is_zero_not_minus_inf(self):
        out = segment_max(Tensor(DATA), SEG, 4).data
        np.testing.assert_allclose(out[3], 0.0)
        assert np.isfinite(out).all()

    def test_gradcheck(self):
        check_gradient(lambda t: ops.sum(segment_max(t, SEG, 3) ** 2.0), DATA)

    def test_gradient_routes_to_max_only(self):
        x = Tensor(np.array([[1.0], [5.0], [2.0]]), requires_grad=True)
        segment_max(x, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0], [1.0], [0.0]])

    def test_tie_shares_gradient(self):
        x = Tensor(np.array([[3.0], [3.0]]), requires_grad=True)
        segment_max(x, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5], [0.5]])

    def test_negative_values(self):
        x = Tensor(np.array([[-5.0], [-2.0]]))
        out = segment_max(x, np.array([0, 0]), 1).data
        np.testing.assert_allclose(out, [[-2.0]])


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        scores = Tensor(RNG.normal(size=6))
        out = segment_softmax(scores, SEG, 3).data
        sums = np.bincount(SEG, weights=out, minlength=3)
        np.testing.assert_allclose(sums, 1.0)

    def test_shift_invariance(self):
        scores = RNG.normal(size=6)
        a = segment_softmax(Tensor(scores), SEG, 3).data
        b = segment_softmax(Tensor(scores + 500.0), SEG, 3).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_singleton_segment_is_one(self):
        out = segment_softmax(Tensor(np.array([3.0])), np.array([0]), 1).data
        np.testing.assert_allclose(out, [1.0])

    def test_rejects_matrix_scores(self):
        with pytest.raises(ValueError, match="1-D"):
            segment_softmax(Tensor(np.zeros((2, 2))), np.array([0, 1]), 2)

    def test_gradcheck(self):
        weight = Tensor(RNG.normal(size=6))
        scores = RNG.normal(size=6)
        check_gradient(
            lambda t: ops.sum(segment_softmax(t, SEG, 3) * weight), scores
        )

    def test_extreme_scores_stable(self):
        scores = Tensor(np.array([1e4, -1e4, 0.0, 1e4, 1e4, -1e4]))
        out = segment_softmax(scores, SEG, 3).data
        assert np.isfinite(out).all()


class TestSegmentAttentionSum:
    SRC = np.array([0, 2, 1, 4, 3, 5])

    def test_matches_composed_spelling(self):
        w = RNG.normal(size=6)
        fused = segment_attention_sum(Tensor(DATA), Tensor(w), self.SRC, SEG, 3)
        composed = segment_sum(
            gather(Tensor(DATA), self.SRC) * Tensor(w[:, None]), SEG, 3
        )
        np.testing.assert_array_equal(fused.data, composed.data)

    def test_multi_head_weights(self):
        x = RNG.normal(size=(6, 2, 4))
        w = RNG.normal(size=(6, 2))
        fused = segment_attention_sum(Tensor(x), Tensor(w), self.SRC, SEG, 3)
        composed = segment_sum(
            gather(Tensor(x), self.SRC) * Tensor(w[:, :, None]), SEG, 3
        )
        np.testing.assert_array_equal(fused.data, composed.data)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="one more axis"):
            segment_attention_sum(Tensor(DATA), Tensor(DATA), self.SRC, SEG, 3)

    def test_gradcheck_features(self):
        w = RNG.normal(size=6)
        check_gradient(
            lambda t: ops.sum(
                segment_attention_sum(t, Tensor(w), self.SRC, SEG, 3) ** 2.0
            ),
            DATA,
        )

    def test_gradcheck_weights(self):
        w = RNG.normal(size=6)
        check_gradient(
            lambda t: ops.sum(
                segment_attention_sum(Tensor(DATA), t, self.SRC, SEG, 3) ** 2.0
            ),
            w,
        )

    def test_constant_weights_get_no_gradient(self):
        x = Tensor(DATA.copy(), requires_grad=True)
        w = Tensor(np.ones(6))
        segment_attention_sum(x, w, self.SRC, SEG, 3).sum().backward()
        assert x.grad is not None
        assert w.grad is None
