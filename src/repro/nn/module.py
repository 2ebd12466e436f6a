"""Module/Parameter system — the skeleton every model hangs off.

Mirrors the (small) subset of ``torch.nn.Module`` semantics the paper's
code relies on: recursive parameter discovery, train/eval mode, state
dict save/restore (used by the weight-sharing NAS baseline), and a
per-module random generator for dropout reproducibility.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is a trainable leaf of the autograd graph."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter and submodule traversal.

    Subclasses assign :class:`Parameter` and :class:`Module` instances
    as attributes; they are discovered automatically by introspecting
    ``__dict__``, including parameters/modules stored inside plain
    lists (the supernet keeps per-layer candidate ops in lists).
    """

    def __init__(self):
        self.training: bool = True

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            yield from _named_parameters_of(value, full)

    def parameters(self) -> list[Parameter]:
        return [param for __, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            yield from _modules_of(value)

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # mode switches
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # gradient and state handling
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameter values in place (shapes must match)."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)[:3]} "
                f"unexpected={sorted(unexpected)[:3]}"
            )
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()  # restores run between steps, under no live tape

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters()})"


def _named_parameters_of(value, prefix: str) -> Iterator[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        yield prefix, value
    elif isinstance(value, Module):
        yield from value.named_parameters(prefix + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _named_parameters_of(item, f"{prefix}.{i}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _named_parameters_of(item, f"{prefix}.{key}")


def _modules_of(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield from value.modules()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _modules_of(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _modules_of(item)
