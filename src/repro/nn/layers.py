"""Basic neural-network layers: Linear, MLP, Dropout.

These are the building blocks shared by every node aggregator in the
search space (Table XI of the paper): each aggregator owns a ``W^l``
weight matrix (Eq. 1), attention aggregators own score vectors, GIN
owns an MLP, and the supernet applies dropout between layers.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["Linear", "MLP", "Dropout"]


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-initialised weights."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x) -> Tensor:
        return ops.linear(as_tensor(x), self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    Used both inside the GIN aggregator and as the stand-alone MLP node
    aggregator of the Table X universal-approximator study.
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        activation: str = "relu",
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.layers = [
            Linear(d_in, d_out, rng) for d_in, d_out in zip(dims[:-1], dims[1:])
        ]
        self.activation = F.ACTIVATIONS[activation]

    def forward(self, x) -> Tensor:
        out = as_tensor(x)
        for layer in self.layers[:-1]:
            out = self.activation(layer(out))
        return self.layers[-1](out)


class Dropout(Module):
    """Inverted dropout driven by an explicit per-module generator."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self._rng = rng

    def forward(self, x) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)

