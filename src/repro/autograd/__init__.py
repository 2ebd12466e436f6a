"""Reverse-mode autodiff substrate (numpy-backed PyTorch stand-in)."""

from repro.autograd.tensor import (
    Tensor,
    add_tape_hook,
    as_tensor,
    get_tape_hook,
    is_grad_enabled,
    no_grad,
    remove_tape_hook,
)
from repro.autograd import functional, kernels, ops, scatter

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "add_tape_hook",
    "remove_tape_hook",
    "get_tape_hook",
    "ops",
    "functional",
    "kernels",
    "scatter",
]
