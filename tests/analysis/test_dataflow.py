"""Seeded-defect regression tests for the runtime autograd contracts.

``test_check_self.py`` proves the real autograd tree keeps its
contracts; these tests prove the checks would have *caught* each kind
of violation. Every test builds one op or kernel with one injected
defect and asserts that the contract probe
(``tests/autograd/contract_probe.py``), the finite-difference gradcheck
or the kernel purity harness rejects it:

=========================  ==================================
defect                     caught by
=========================  ==================================
wrong gradient count       probe arity check
dropped gradient           probe non-``None`` check, gradcheck
conditionally dropped      probe non-``None`` check
bad backward signature     the backward call's ``TypeError``
undeclared float capture   probe capture allowlist
backward writing storage   probe snapshot compare
impure kernel              :func:`kernel_effects`
=========================  ==================================
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor
from tests.autograd.contract_probe import (
    ContractViolation,
    contract_probe,
    kernel_effects,
)
from tests.helpers import check_gradient

A = np.array([[0.5, -1.2, 2.0], [1.5, 0.3, -0.7]])
B = np.array([[1.1, 0.4, -0.9], [-0.2, 2.2, 0.6]])


def _backprop(op, *arrays):
    """``op(*tensors).sum().backward()`` with every input differentiable."""
    tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    ops.sum(op(*tensors)).backward()
    return tensors


# Defect: ``b`` is a differentiable parent but its gradient slot is
# ``None`` — silent wrong (zero) gradients downstream.
def bad_mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return g * b.data, None

    return Tensor._from_op(a.data * b.data, (a, b), backward)


# Defect: the gradient is dropped only on some inputs.
def bad_sign_mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return g * b.data, (g * a.data if g.sum() < 0 else None)

    return Tensor._from_op(a.data * b.data, (a, b), backward)


# Defect: one gradient for two parents. ``Tensor._accumulate_into``
# zips the two, so ``b`` would silently get nothing.
def bad_arity_add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return (g,)

    return Tensor._from_op(a.data + b.data, (a, b), backward)


# Defect: the backward takes no incoming gradient.
def bad_signature_neg(x):
    x = as_tensor(x)

    def backward():
        return (-np.ones_like(x.data),)

    return Tensor._from_op(-x.data, (x,), backward)


# Defect: a full-size float derivative retained on the tape with no
# declared reason — memory the tape holds for every such node.
def bad_square(x):
    x = as_tensor(x)
    twice = 2.0 * x.data

    def backward(g):
        return (g * twice,)

    return Tensor._from_op(x.data * x.data, (x,), backward)


# Defect: the backward writes through ``out``, the very array handed to
# the tape — corrupts the forward value other nodes may read.
def bad_relu(x):
    x = as_tensor(x)
    mask = x.data > 0.0
    out = x.data * mask

    def backward(g):
        out[...] = 0.0
        return (g * mask,)

    return Tensor._from_op(out, (x,), backward)


# Defects: a public kernel mutating its input, and one rebinding a
# module global.
def bad_scatter(values, segment_ids, num_segments):
    values[0] = 0.0
    return np.bincount(segment_ids, weights=values, minlength=num_segments)


_CALLS = 0


def counting_scatter(values, segment_ids, num_segments):
    global _CALLS
    _CALLS += 1
    return np.bincount(segment_ids, weights=values, minlength=num_segments)


class TestSeededDefects:
    def test_dropped_gradient_is_caught(self):
        with contract_probe() as probe, pytest.raises(
            ContractViolation, match="dropped the gradient of parent 1"
        ):
            _backprop(bad_mul, A, B)
        assert probe.violations
        # The finite-difference gradcheck catches it without the probe.
        with pytest.raises(AssertionError):
            check_gradient(lambda t: ops.sum(bad_mul(Tensor(A), t)), B)

    def test_conditionally_dropped_gradient_is_caught(self):
        _, b = _backprop(bad_sign_mul, A, B)
        assert b.grad is None  # unprobed, the drop goes unnoticed
        with contract_probe(), pytest.raises(
            ContractViolation, match="dropped the gradient of parent 1"
        ):
            _backprop(bad_sign_mul, A, B)

    def test_wrong_gradient_count_is_caught(self):
        with contract_probe(), pytest.raises(
            ContractViolation, match=r"returned 1 gradient\(s\) for 2 parent\(s\)"
        ):
            _backprop(bad_arity_add, A, B)

    def test_bad_backward_signature_is_caught(self):
        # No probe needed: the registry executes every op's backward.
        with pytest.raises(TypeError):
            _backprop(bad_signature_neg, A)

    def test_undeclared_capture_is_caught(self):
        with contract_probe() as probe:
            _backprop(bad_square, A)
        assert probe.undeclared_captures() == {"test_dataflow.bad_square": {"twice"}}

    def test_backward_mutating_captured_array_is_caught(self):
        with contract_probe(), pytest.raises(
            ContractViolation, match="output storage changed"
        ):
            _backprop(bad_relu, A)

    def test_impure_public_kernel_is_caught(self):
        args = (np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1]), 2)
        assert kernel_effects(bad_scatter, args) == ["mutated argument 0"]
        assert kernel_effects(counting_scatter, args) == ["rebound global _CALLS"]
