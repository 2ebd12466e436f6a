"""Gradient-descent optimiser: Adam.

The paper trains model weights with Adam (learning rate 5e-3, L2 norm
5e-4 for the baselines; searched values in Table XII), and updates the
architecture parameters ``alpha`` with a separate Adam instance — the
bi-level step in :mod:`repro.core.bilevel` therefore holds two
:class:`Optimizer` objects over disjoint parameter sets.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.0):
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _grad_of(self, param: Parameter) -> np.ndarray | None:
        if param.grad is None:
            return None
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        return grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for param in self.params:
            grad = self._grad_of(param)
            if grad is None:
                continue
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = self._m[key] = np.zeros_like(param.data)
                v = self._v[key] = np.zeros_like(param.data)
            # The moments are this optimiser's own buffers, so they are
            # updated in place: the same products and sums, in the same
            # order, as ``beta1 * m + (1 - beta1) * grad`` and
            # ``beta2 * v + (1 - beta2) * grad * grad``.
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            term = (1.0 - self.beta2) * grad
            term *= grad
            v += term
            # lr * m_hat / (sqrt(v_hat) + eps), in two fresh buffers.
            step = np.divide(m, bias1, out=np.empty_like(m))
            step *= self.lr
            denom = np.divide(v, bias2, out=np.empty_like(v))
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            param.data = param.data - step


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm. Recurrent aggregators (LSTM layer
    aggregator, GeniePath) occasionally spike; clipping keeps search
    stable without changing the optimum.
    """
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float(np.sum(param.grad * param.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad = param.grad * scale
    return norm
