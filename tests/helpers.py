"""Test utilities: finite-difference gradient checking and the
parameter-registration walk."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter


def numeric_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``value``."""
    value = np.array(value, dtype=np.float64)  # copy: we perturb in place
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(value)
        flat[i] = original - eps
        minus = fn(value)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, value: np.ndarray, atol: float = 1e-5, rtol: float = 1e-4):
    """Assert autograd gradient of ``build_loss`` matches finite differences.

    ``build_loss(tensor) -> scalar Tensor``; called once with a
    requires-grad tensor for the analytic gradient and repeatedly with
    raw arrays for the numeric one.
    """
    value = np.array(value, dtype=np.float64)
    tensor = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    analytic = tensor.grad
    assert analytic is not None, "no gradient reached the input"

    numeric = numeric_gradient(lambda v: build_loss(Tensor(v.copy())).item(), value)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def _grad_tensors(value, path: str):
    """``(path, tensor)`` for every requires-grad Tensor in ``value``,
    looking inside lists, tuples and dicts (not into submodules)."""
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield path, value
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _grad_tensors(item, f"{path}.{i}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _grad_tensors(item, f"{path}.{key}")


def unregistered_tensors(model: Module) -> list[str]:
    """Attributes of ``model`` or its submodules holding a requires-grad
    Tensor that ``model.named_parameters()`` does not yield.

    Such a tensor never trains: the optimiser never sees it and
    ``zero_grad`` skips it. Either it is a plain ``Tensor`` where a
    :class:`Parameter` belongs, or a Parameter the traversal misses.
    """
    registered = {id(param) for __, param in model.named_parameters()}
    missing = []
    for module in model.modules():
        owner = type(module).__name__
        for name, value in vars(module).items():
            for path, tensor in _grad_tensors(value, f"{owner}.{name}"):
                if not isinstance(tensor, Parameter) or id(tensor) not in registered:
                    missing.append(path)
    return missing
