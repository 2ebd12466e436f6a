"""Tensor core semantics: tape, backward, grad modes."""

import numpy as np
import pytest

from repro.autograd import Tensor, as_tensor, is_grad_enabled, no_grad
from repro.autograd import ops


class TestConstruction:
    def test_wraps_array_as_float64(self):
        t = Tensor([1, 2.5, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_int_data_stays_int(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int64))
        assert t.dtype == np.int64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a

    def test_as_tensor_coerces_scalar(self):
        t = as_tensor(3.0)
        assert t.item() == 3.0

    def test_basic_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2
        assert "Tensor" in repr(t)

    def test_repr_shows_requires_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))


class TestBackward:
    def test_scalar_backward_seeds_ones(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * x).backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_gradient_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*2; z = y + y; dz/dx = 4.
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + y
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_shared_leaf_across_branches(self):
        x = Tensor([3.0], requires_grad=True)
        z = x * x + x
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for __ in range(50):
            y = y + x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [51.0])

    def test_many_aliasing_contributions_match_fresh_sums(self):
        """A node fed four gradient contributions, two of them one
        array (``add``'s ``(g, g)``) and one a ``reshape`` view of
        ``g``, gets the same bits as summing each into a fresh array,
        and no contribution is written through."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        scale = Tensor(rng.normal(size=(4, 6)))
        h = ops.tanh(x)
        out = (h + h) + h.reshape(6, 4).reshape(4, 6) + h * scale
        seed = rng.normal(size=(4, 6))
        seed_before = seed.copy()
        out.backward(seed)
        assert np.array_equal(seed, seed_before)
        assert x.grad.tobytes() == _fresh_sum_backward(out, seed)[id(x)].tobytes()

    def test_no_grad_to_non_required_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None


def _fresh_sum_backward(root, seed):
    """Reference backward: every accumulation sums into a new array."""
    from repro.autograd.tensor import _topological_order

    grads = {id(root): seed.copy()}
    leaves = {}
    for node in _topological_order(root):
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node._backward_fn is None:
            leaves[id(node)] = grad.copy()
            continue
        for parent, parent_grad in zip(node._parents, node._backward_fn(grad)):
            if parent_grad is None or not parent.requires_grad:
                continue
            parent_grad = np.asarray(parent_grad, dtype=np.float64)
            key = id(parent)
            grads[key] = grads[key] + parent_grad if key in grads else parent_grad
    return leaves


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_on_exception(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_grad_mode_is_per_thread(self):
        # A worker thread's no_grad block must not disable recording on
        # the main thread — serve workers run eval forwards concurrently
        # with (and after) training code.
        import threading

        entered = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            # Worker is inside no_grad right now; we still record.
            assert is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            assert (x * 2.0).requires_grad
        finally:
            release.set()
            thread.join()
        assert is_grad_enabled()

    def test_overlapping_no_grad_blocks_cannot_wedge_grad_mode(self):
        # Regression: with a process-global flag, two threads whose
        # save/restore windows interleave could leave grad mode stuck
        # off after both exited. Hammer the window from two threads.
        import threading

        def toggler():
            for __ in range(500):
                with no_grad():
                    pass

        threads = [threading.Thread(target=toggler) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert is_grad_enabled()
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])


class TestOperatorSugar:
    def test_radd_rsub_rmul_rtruediv(self):
        x = Tensor([2.0], requires_grad=True)
        y = (1.0 + x) - 1.0
        z = (2.0 * x) / 2.0
        w = 4.0 / x
        np.testing.assert_allclose(y.data, [2.0])
        np.testing.assert_allclose(z.data, [2.0])
        np.testing.assert_allclose(w.data, [2.0])

    def test_neg_and_pow(self):
        x = Tensor([2.0], requires_grad=True)
        ((-x) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_transpose_property(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_reshape_method_variants(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_getitem_slice(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        y = x[2:5]
        y.sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_matmul_operator(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.ones((2, 2)))
        assert (a @ b).shape == (2, 2)


class TestBroadcastingGradients:
    def test_bias_broadcast_sums_batch(self):
        x = Tensor(np.ones((4, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_keepdim_broadcast(self):
        s = Tensor(np.ones((3, 1)), requires_grad=True)
        x = Tensor(np.ones((3, 5)))
        (s * x).sum().backward()
        np.testing.assert_allclose(s.grad, np.full((3, 1), 5.0))

    def test_scalar_broadcast(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.ones((2, 2)))
        (s * x).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)
