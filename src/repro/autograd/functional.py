"""Neural-network functional layer: activations, softmax family, losses.

Everything here is a composite of the primitives in
:mod:`repro.autograd.ops`, so gradients come for free and are covered
by the same finite-difference test harness.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "dropout",
    "lstm_gate_update",
    "nll_loss",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "ACTIVATIONS",
]


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = (x.data > 0).astype(np.float64)
    return Tensor._from_op(x.data * mask, (x,), lambda g: (g * mask,))


def leaky_relu(x, negative_slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    factor = np.where(x.data > 0, 1.0, negative_slope)
    return Tensor._from_op(x.data * factor, (x,), lambda g: (g * factor,))


def elu(x, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    negative = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out = np.where(x.data > 0, x.data, negative)
    factor = np.where(x.data > 0, 1.0, negative + alpha)
    return Tensor._from_op(out, (x,), lambda g: (g * factor,))


def tanh(x) -> Tensor:
    return ops.tanh(x)


def sigmoid(x) -> Tensor:
    return ops.sigmoid(x)


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "linear": lambda x: as_tensor(x),
}


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    exps = ops.exp(x - shift)
    return exps / ops.sum(exps, axis=axis, keepdims=True)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    log_norm = ops.log(ops.sum(ops.exp(shifted), axis=axis, keepdims=True))
    return shifted - log_norm


def dropout(x, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    keep = 1.0 - p
    mask = rng.random(x.shape)
    np.less(mask, keep, out=mask)
    mask /= keep
    return Tensor._from_op(x.data * mask, (x,), lambda g: (g * mask,))


def lstm_gate_update(gates, c_prev) -> tuple[Tensor, Tensor]:
    """Elementwise LSTM state update from pre-activation ``gates``.

    ``gates`` is ``(N, 4d)`` laid out ``[input, forget, cell, output]``;
    returns ``(h_new, c_new)``. Spelled as two tape nodes sharing the
    precomputed activations instead of the ~13-node composite (four
    slice selections, four activations, the gating arithmetic) an LSTM
    step would otherwise record — the cell runs once per sequence
    position per direction, so the tape overhead is material. Forward
    values match the composite spelling exactly (same stable sigmoid).
    """
    gates, c_prev = as_tensor(gates), as_tensor(c_prev)
    if gates.ndim != 2 or gates.shape[1] % 4:
        raise ValueError(f"gates must be (N, 4d), got {gates.shape}")
    d = gates.shape[1] // 4
    raw = gates.data
    i_gate = ops._logistic(raw[:, 0 * d : 1 * d])
    f_gate = ops._logistic(raw[:, 1 * d : 2 * d])
    g_gate = np.tanh(raw[:, 2 * d : 3 * d])
    o_gate = ops._logistic(raw[:, 3 * d : 4 * d])
    c_data = f_gate * c_prev.data
    c_data += i_gate * g_gate
    tanh_c = np.tanh(c_data)

    def backward_c(g):
        grad_gates = np.empty_like(raw)
        _gate_vjp(grad_gates[:, 0 * d : 1 * d], g, g_gate, i_gate)
        _gate_vjp(grad_gates[:, 1 * d : 2 * d], g, c_prev.data, f_gate)
        grad = grad_gates[:, 2 * d : 3 * d]
        np.multiply(g, i_gate, out=grad)
        grad *= ops._one_minus_square(g_gate)
        grad_gates[:, 3 * d : 4 * d] = 0.0
        grad_c = g * f_gate if c_prev.requires_grad else None
        return grad_gates, grad_c

    c_new = Tensor._from_op(c_data, (gates, c_prev), backward_c)

    def backward_h(g):
        grad_gates = np.empty_like(raw)
        grad_gates[:, : 3 * d] = 0.0
        _gate_vjp(grad_gates[:, 3 * d : 4 * d], g, tanh_c, o_gate)
        grad_c = g * o_gate
        grad_c *= ops._one_minus_square(tanh_c)
        return grad_gates, grad_c

    h_new = Tensor._from_op(o_gate * tanh_c, (gates, c_new), backward_h)
    return h_new, c_new


def _gate_vjp(out: np.ndarray, g, other: np.ndarray, gate: np.ndarray) -> None:
    """Write ``g * other * gate * (1 - gate)`` into ``out``, left to right."""
    np.multiply(g, other, out=out)
    out *= gate
    out *= 1.0 - gate


def nll_loss(log_probs, targets, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given log-probabilities (N, C)."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(log_probs.shape[0])
    picked = ops.getitem(log_probs, (rows, targets))
    loss = -picked
    return _reduce(loss, reduction)


def cross_entropy(logits, targets, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits (N, C) and int targets (N,)."""
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction)


def binary_cross_entropy_with_logits(logits, targets, reduction: str = "mean") -> Tensor:
    """Stable multi-label BCE: ``softplus(x) - x * y`` elementwise.

    Used for the PPI-style inductive task where each node carries
    multiple binary labels.
    """
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    loss = ops.softplus(logits) - logits * targets
    return _reduce(loss, reduction)


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return ops.mean(loss)
    if reduction == "sum":
        return ops.sum(loss)
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
