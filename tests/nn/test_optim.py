"""Optimisers: convergence on convex problems, weight decay, clipping."""

import numpy as np
import pytest

from repro.autograd import ops
from repro.nn.module import Parameter
from repro.nn.optim import Adam, clip_grad_norm


def quadratic_loss(param: Parameter):
    return ops.sum((param - 3.0) * (param - 3.0))


def minimise(optimizer, param, steps=200):
    for __ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    return quadratic_loss(param).item()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(3))
        final = minimise(Adam([param], lr=0.1), param, steps=300)
        assert final < 1e-6

    def test_skips_params_without_grad(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.ones(2))
        optimizer = Adam([a, b], lr=0.1)
        loss = ops.sum(a * a)
        loss.backward()
        optimizer.step()
        np.testing.assert_allclose(b.data, 1.0)

    def test_weight_decay_shrinks(self):
        param = Parameter(np.ones(2))
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        ops.sum(param * 0.0).backward()
        optimizer.step()
        assert (param.data < 1.0).all()

    def test_bias_correction_first_step_magnitude(self):
        # With bias correction, the very first Adam step is ~lr.
        param = Parameter(np.zeros(1))
        optimizer = Adam([param], lr=0.05)
        ops.sum(param * 1.0).backward()
        optimizer.step()
        assert abs(abs(param.data[0]) - 0.05) < 1e-3

    def test_state_is_per_parameter(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        optimizer = Adam([a, b], lr=0.1)
        ops.sum(a * 1.0 + b * 100.0).backward()
        optimizer.step()
        # Adam normalises per-parameter, so both move ~lr despite the
        # 100x gradient difference.
        assert abs(abs(a.data[0]) - 0.1) < 1e-2
        assert abs(abs(b.data[0]) - 0.1) < 1e-2


class TestOptimizerValidation:
    def test_empty_params_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 0.01)
        clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, 0.01)

    def test_ignores_none_grads(self):
        param = Parameter(np.zeros(4))
        assert clip_grad_norm([param], max_norm=1.0) == 0.0
