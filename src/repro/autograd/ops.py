"""Primitive differentiable operations.

Every function takes and returns :class:`~repro.autograd.tensor.Tensor`
objects (scalars and numpy arrays are coerced). Each op builds the
result through :meth:`Tensor._from_op`, attaching a closure that maps
the output gradient to per-parent gradients (the vector-Jacobian
product). All ops are covered by finite-difference tests in
``tests/autograd``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import kernels
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "softplus",
    "abs",
    "maximum",
    "clip",
    "matmul",
    "linear",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "getitem",
    "concatenate",
    "stack",
    "where",
    "weighted_sum",
]


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._from_op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._from_op(
        a.data - b.data,
        (a, b),
        lambda g: (g, -g if b.requires_grad else None),
    )


def mul(a, b) -> Tensor:
    # VJP products are skipped for constant operands (e.g. dropout
    # masks, input features): the tape drops None parent gradients.
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._from_op(
        a.data * b.data,
        (a, b),
        lambda g: (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._from_op(
        a.data / b.data,
        (a, b),
        lambda g: (
            g / b.data if a.requires_grad else None,
            -g * a.data / (b.data * b.data) if b.requires_grad else None,
        ),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,))


def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out = a.data**exponent
    return Tensor._from_op(
        out, (a,), lambda g: (g * exponent * a.data ** (exponent - 1.0),)
    )


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        grad = _one_minus_square(out)
        np.multiply(g, grad, out=grad)
        return (grad,)

    return Tensor._from_op(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _logistic(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """``log(1 + exp(x))`` computed without overflow."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    grad_factor = _logistic(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * grad_factor,))


def _logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic ``0.5 * (tanh(0.5 * x) + 1)``,
    computed in one fresh buffer."""
    out = 0.5 * x
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _one_minus_square(x: np.ndarray) -> np.ndarray:
    """``1 - x * x`` (the tanh derivative) in one fresh buffer."""
    out = x * x
    np.subtract(1.0, out, out=out)
    return out


def abs(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(
        np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),)
    )


def maximum(a, b) -> Tensor:
    """Elementwise maximum; gradient is split evenly on exact ties."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.maximum(a.data, b.data)

    def backward(g):
        a_wins = (a.data > b.data).astype(np.float64)
        b_wins = (b.data > a.data).astype(np.float64)
        tie = 1.0 - a_wins - b_wins
        return (
            g * (a_wins + 0.5 * tie) if a.requires_grad else None,
            g * (b_wins + 0.5 * tie) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (a, b), backward)


def clip(a, low: float | None = None, high: float | None = None) -> Tensor:
    """Clamp values; gradient is zero outside the active range."""
    a = as_tensor(a)
    out = np.clip(a.data, low, high)
    inside = np.ones_like(a.data)
    if low is not None:
        inside = inside * (a.data >= low)
    if high is not None:
        inside = inside * (a.data <= high)
    return Tensor._from_op(out, (a,), lambda g: (g * inside,))


def where(condition, a, b) -> Tensor:
    """Select from ``a`` where ``condition`` holds, else from ``b``.

    ``condition`` is treated as a constant (no gradient flows to it).
    """
    cond = np.asarray(
        condition.data if isinstance(condition, Tensor) else condition
    ).astype(bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(cond, a.data, b.data)
    return Tensor._from_op(
        out,
        (a, b),
        lambda g: (
            g * cond if a.requires_grad else None,
            g * (~cond) if b.requires_grad else None,
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    out = a.data @ b.data

    def backward(g):
        grad_a = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        grad_b = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
        return grad_a, grad_b

    return Tensor._from_op(out, (a, b), backward)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return Tensor._from_op(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return Tensor._from_op(out, (a,), backward)


def max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Reduction max; gradient is shared evenly among tied maxima."""
    a = as_tensor(a)
    out = a.data.max(axis=axis, keepdims=keepdims)

    def backward(g):
        # The tie mask is built here, not on the forward, so forwards
        # that never run a backward (validation, serving) skip it.
        g = np.asarray(g)
        out_keep = np.asarray(out)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
            out_keep = np.expand_dims(out_keep, axis)
        mask = (a.data == out_keep).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)
        return (np.broadcast_to(g, mask.shape) * mask,)

    return Tensor._from_op(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    original = a.data.shape
    return Tensor._from_op(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(original),)
    )


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.transpose(axes) if axes else a.data.T
    if axes:
        inverse = np.argsort(axes)
        backward = lambda g: (g.transpose(inverse),)  # noqa: E731
    else:
        backward = lambda g: (g.T,)  # noqa: E731
    return Tensor._from_op(out, (a,), backward)


def getitem(a, index, plan=None) -> Tensor:
    """Differentiable indexing (slices, integers, integer arrays).

    The adjoint scatters the output gradient back with accumulation,
    so repeated indices (fancy indexing) are handled correctly — this
    is the primitive behind neighbor gathering in message passing. Row
    selection by a 1-D integer array (the neighbor-gather case) runs
    its forward through ``np.take`` and its adjoint through the
    planned scatter kernels; ``plan`` (a
    :class:`~repro.autograd.kernels.SegmentPlan` of ``index`` over
    ``len(a)`` segments) skips even the plan lookup.
    """
    a = as_tensor(a)
    if kernels.is_row_index(index):
        out = np.take(a.data, index, axis=0)
        num_rows = a.data.shape[0]

        def backward(g):
            return (kernels.scatter_sum(np.asarray(g), index, num_rows, plan),)

        return Tensor._from_op(out, (a,), backward)

    out = a.data[index]

    def backward(g):
        grad = np.zeros_like(a.data)
        kernels.index_add(grad, index, g)
        return (grad,)

    return Tensor._from_op(out, (a,), backward)


def linear(x, weight, bias=None) -> Tensor:
    """Affine map ``x @ weight + bias`` as a single tape node.

    The composed ``matmul`` + ``add`` spelling records two nodes and
    recovers the bias gradient by unbroadcasting a full-size gradient;
    fusing computes ``grad_bias`` as a column sum directly. ``weight``
    must be 2-D; ``x`` may carry leading batch dimensions.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim < 2 or weight.ndim != 2:
        raise ValueError(
            f"linear expects x.ndim >= 2 and a 2-D weight, got "
            f"{x.shape} @ {weight.shape}"
        )
    out = x.data @ weight.data
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data

    def backward(g):
        grad_x = g @ weight.data.T if x.requires_grad else None
        if not weight.requires_grad:
            grad_w = None
        elif x.ndim == 2:
            grad_w = x.data.T @ g
        else:
            batch_axes = tuple(range(x.ndim - 1))
            grad_w = np.tensordot(x.data, g, axes=(batch_axes, batch_axes))
        if bias is None:
            return grad_x, grad_w
        grad_b = (
            g.reshape(-1, g.shape[-1]).sum(axis=0)
            if bias.requires_grad
            else None
        )
        return grad_x, grad_w, grad_b

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, backward)


def weighted_sum(tensors, weights) -> Tensor:
    """``sum_i weights[i] * tensors[i]`` as a single tape node.

    The mixture primitive of the supernet (Eq. 2): ``weights`` is a 1-D
    tensor with one scalar per candidate, ``tensors`` the candidate
    outputs (all the same shape). Fusing the mixture collapses the
    per-candidate ``getitem``/``mul``/``add`` chain — and its per-node
    temporaries on both passes — into one op; the weight gradients are
    inner products taken through one reused product buffer.
    """
    tensors = [as_tensor(t) for t in tensors]
    weights = as_tensor(weights)
    if weights.ndim != 1 or len(weights) != len(tensors):
        raise ValueError(
            f"weighted_sum needs one weight per tensor, got {weights.shape} "
            f"for {len(tensors)} tensors"
        )
    w = weights.data
    out = w[0] * tensors[0].data
    term = np.empty_like(out)
    for i in range(1, len(tensors)):
        np.multiply(w[i], tensors[i].data, out=term)
        out += term

    def backward(g):
        grads = [
            w[i] * g if t.requires_grad else None
            for i, t in enumerate(tensors)
        ]
        if weights.requires_grad:
            # A numpy reduction, not ``np.vdot``: BLAS splits a long dot
            # across its threads, which makes the alpha gradient's bits
            # depend on the thread count. ``sum`` adds in one fixed
            # (pairwise) order.
            product = np.empty(g.shape)
            inner = []
            for t in tensors:
                np.multiply(g, t.data, out=product)
                inner.append(product.sum())
            grads.append(np.array(inner))
        else:
            grads.append(None)
        return tuple(grads)

    return Tensor._from_op(out, (*tensors, weights), backward)


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._from_op(out, tensors, backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._from_op(out, tensors, backward)
