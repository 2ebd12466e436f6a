"""Learning-rate schedule.

DARTS (the search algorithm SANE builds on) anneals the weight
learning rate with a cosine schedule during supernet training; the
searcher enables this via ``SearchConfig.w_lr_schedule``. The scheduler
mutates ``optimizer.lr`` in place — call :meth:`step` once per epoch.
"""

from __future__ import annotations

import math

from repro.nn.optim import Optimizer

__all__ = ["CosineAnnealingLR", "create_scheduler"]


class CosineAnnealingLR:
    """Anneal from the base rate to ``eta_min`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0
        self.t_max = t_max
        self.eta_min = eta_min

    def step(self) -> float:
        """Advance one epoch; returns the new learning rate."""
        self.epoch += 1
        progress = min(self.epoch, self.t_max) / self.t_max
        self.optimizer.lr = self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (
            1.0 + math.cos(math.pi * progress)
        )
        return self.optimizer.lr


def create_scheduler(
    name: str | None, optimizer: Optimizer, epochs: int
) -> CosineAnnealingLR | None:
    """Build a scheduler by name (``None`` or ``'constant'`` → none)."""
    if name is None or name == "constant":
        return None
    if name == "cosine":
        return CosineAnnealingLR(optimizer, t_max=epochs, eta_min=1e-4)
    raise ValueError(f"unknown lr schedule {name!r}")
