"""One bi-level search step, shared by every differentiable searcher.

Each epoch of Algorithm 1 descends the architecture parameters
``alpha`` on the validation loss (line 3), then the operation weights
``w`` on the training loss (line 5). The node, entity-alignment and
pooling searches all run that epoch through :func:`run_search` and
each half through :func:`descend`. A half backpropagates into only the
group it updates: the other group is :func:`frozen`, so ops whose only
differentiable inputs are frozen record no tape node and its ``.grad``
stays ``None``. The updated group receives the same gradient arrays
as from a full backward, so seeded searches are byte-identical.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer, clip_grad_norm
from repro.obs import events, health
from repro.obs.search_telemetry import grad_l2_norm

__all__ = ["frozen", "gradients", "descend", "run_search"]


@contextlib.contextmanager
def frozen(params: Sequence[Parameter]) -> Iterator[None]:
    """Set ``requires_grad = False`` on ``params`` for the block.

    The previous flags come back on exit, also when the block raises.
    """
    flags = [param.requires_grad for param in params]
    for param in params:
        param.requires_grad = False
    try:
        yield
    finally:
        for param, flag in zip(params, flags):
            param.requires_grad = flag


def _backprop(loss_fn, params, hold):
    """Clear both groups' grads, then backpropagate ``loss_fn()`` into ``params``."""
    for param in (*params, *hold):
        param.zero_grad()
    with frozen(hold):
        loss = loss_fn()
        loss.backward()
    return loss


def gradients(
    loss_fn: Callable, params: Sequence[Parameter], hold: Sequence[Parameter] = ()
) -> list[np.ndarray]:
    """Copies of ``d loss_fn() / d params`` with ``hold`` frozen.

    A parameter no gradient reached gets zeros.
    """
    _backprop(loss_fn, params, hold)
    return [
        param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
        for param in params
    ]


def descend(
    params: Sequence[Parameter],
    optimizer: Optimizer,
    loss_fn: Callable | None,
    clip: float,
    hold: Sequence[Parameter] = (),
) -> float | None:
    """One clipped ``optimizer`` step on ``params`` down ``loss_fn()``.

    ``hold``, the other parameter group, is frozen for the forward and
    backward. Without ``loss_fn`` the step follows the gradients the
    caller installed on ``params`` (the second-order alpha update).
    Returns the loss value, or ``None`` without ``loss_fn``.
    """
    loss = None if loss_fn is None else _backprop(loss_fn, params, hold).item()
    clip_grad_norm(params, clip)
    optimizer.step()
    return loss


def run_search(
    epochs: int,
    *,
    arch: Sequence[Parameter],
    weights: Sequence[Parameter],
    alpha_step: Callable[[], float | None],
    weight_step: Callable[[], float | None],
    validate: Callable[[], float],
    snapshot: Callable[[], dict[str, np.ndarray]],
    op_names: dict[str, tuple[str, ...]],
    scheduler=None,
    on_epoch: Callable | None = None,
    **span_attrs,
) -> tuple[list[tuple[float, float]], list[dict[str, np.ndarray]], float]:
    """Run ``epochs`` iterations of Algorithm 1 under one ``search`` span.

    ``alpha_step``/``weight_step`` run one half each and return its
    loss, ``validate`` the epoch's score, ``snapshot`` copies of the
    alpha matrices. The loop spans the halves, feeds the installed
    health monitor (pre-step copies and the post-clip grad norms read
    right after each step), steps ``scheduler`` and passes each epoch
    to ``on_epoch`` (:meth:`SearchTelemetry.epoch`'s signature).
    Returns the (elapsed seconds, score) history, the snapshots and
    the search time.
    """
    history: list[tuple[float, float]] = []
    snapshots: list[dict[str, np.ndarray]] = []
    monitor = health.get_monitor()
    search_span = obs.span("search", kind="search", algo="sane", **span_attrs).start()
    for epoch in range(epochs):
        with obs.span("epoch", index=epoch):
            # Telemetry-only reads: pure numpy, skipped unless recording,
            # so the seeded search stream is untouched either way.
            measure = events.enabled() or monitor is not None
            arch_before = [p.data.copy() for p in arch] if monitor is not None else None
            with obs.span("alpha_step"):
                val_loss = alpha_step()
            norms = {"arch_grad_norm": grad_l2_norm(arch) if measure else None}
            weight_before = (
                [p.data.copy() for p in weights] if monitor is not None else None
            )
            with obs.span("weight_step"):
                train_loss = weight_step()
            norms["weight_grad_norm"] = grad_l2_norm(weights) if measure else None
            if scheduler is not None:
                scheduler.step()
            elapsed = search_span.elapsed()
            with obs.span("validation"):
                score = validate()
            history.append((elapsed, score))
            alphas = snapshot()
            snapshots.append(alphas)
            if monitor is not None:
                monitor.observe_epoch(
                    epoch,
                    arch_params=arch,
                    weight_params=weights,
                    arch_before=arch_before,
                    weight_before=weight_before,
                    mixtures=alphas,
                    op_names=op_names,
                    **norms,
                )
            if on_epoch is not None:
                on_epoch(
                    epoch,
                    alphas,
                    val_score=score,
                    train_loss=train_loss,
                    val_loss=val_loss,
                    **norms,
                )
    search_span.finish()
    return history, snapshots, search_span.duration
