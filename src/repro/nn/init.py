"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so every
model build is reproducible from a seed — the paper repeats every
search/retrain five times with different seeds and reports mean ± std.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "uniform"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform init (the PyG default for GNN weights)."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out
