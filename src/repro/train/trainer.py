"""The one early-stopping training loop, and node-classification training.

The paper trains every model full-batch with Adam and early-stops on
validation performance before reporting test numbers.
:func:`run_training` is that loop for every trainer: node
classification (:func:`fit`), graph classification and entity
alignment pass it only their training steps and their validation.

Node classification comes in two data kinds, and the functions here
are the one place that tells them apart (the SANE searcher calls them
too): a transductive :class:`Graph` trains on cross-entropy over its
train mask and scores accuracy; an inductive
:class:`MultiGraphDataset` trains on sigmoid BCE per training graph and
scores micro-F1 (Section III-B "we focus on the node classification
task, thus cross-entropy loss is used").
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.autograd import functional as F
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.obs import events, health
from repro.graph.data import Graph, MultiGraphDataset
from repro.gnn.common import GraphCache
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.train.metrics import accuracy, micro_f1

__all__ = [
    "TrainConfig",
    "TrainResult",
    "BestEpoch",
    "run_training",
    "node_mode",
    "graph_caches",
    "split_loss",
    "split_score",
    "fit",
]


@dataclasses.dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    Defaults follow Appendix C: Adam, lr 5e-3, dropout is owned by the
    model, L2 norm 5e-4, with validation-based early stopping.
    """

    epochs: int = 200
    lr: float = 5e-3
    weight_decay: float = 5e-4
    patience: int = 30
    grad_clip: float = 5.0

    def replace(self, **updates) -> "TrainConfig":
        return dataclasses.replace(self, **updates)


@dataclasses.dataclass
class TrainResult:
    """Outcome of a run: scores at the best-validation epoch."""

    val_score: float
    test_score: float
    train_score: float
    best_epoch: int
    train_time: float
    history: list[tuple[float, float]] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class BestEpoch:
    """What :func:`run_training` keeps of a run."""

    val_score: float = -1.0
    epoch: int = 0
    # What the trainer's ``record`` returned at the best epoch.
    scores: dict = dataclasses.field(default_factory=dict)
    # (mean training loss, validation score) per epoch run.
    history: list[tuple[float, float]] = dataclasses.field(default_factory=list)
    train_time: float = 0.0


def run_training(
    model: Module,
    config,
    steps: Sequence[Callable[[], Tensor]],
    validate: Callable[[], tuple[float, float | None, Callable[[], dict]]],
    **span_attrs,
) -> BestEpoch:
    """Full-batch Adam with validation early stopping, under one ``train`` span.

    ``config`` supplies ``epochs``, ``lr``, ``weight_decay``,
    ``patience`` and ``grad_clip``. Each epoch takes one clipped step
    per loss in ``steps``, then ``validate()`` returns the score, the
    validation loss (``None`` where the trainer has none) and
    ``record``, called only when the epoch is the new best, for the
    scores to keep. A higher score is better; an equal score wins only
    on a lower loss, so without a loss a tie never wins. The run stops
    after ``patience`` epochs without a new best and leaves the model
    loaded with the best epoch's weights. ``span_attrs`` tag the span
    and the ``train_start`` event.
    """
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    best = BestEpoch()
    best_loss = np.inf
    best_state = None
    since_best = 0
    monitor = health.get_monitor()
    events.emit("train_start", **span_attrs, epochs=config.epochs)
    train_span = obs.span("train", kind="train", **span_attrs).start()
    for epoch in range(config.epochs):
        with obs.span("epoch", index=epoch):
            model.train()
            weight_before = (
                [p.data.copy() for p in model.parameters()]
                if monitor is not None
                else None
            )
            total_loss = 0.0
            for step in steps:
                optimizer.zero_grad()
                with obs.span("forward"):
                    loss = step()
                with obs.span("backward"):
                    loss.backward()
                clip_grad_norm(model.parameters(), config.grad_clip)
                optimizer.step()
                total_loss += loss.item()
            train_loss = total_loss / len(steps)
            if monitor is not None:
                monitor.observe_epoch(
                    epoch,
                    weight_params=model.parameters(),
                    weight_before=weight_before,
                )

            with obs.span("eval"):
                score, val_loss, record = validate()
            best.history.append((train_loss, score))
            events.emit(
                "train_epoch",
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                val_score=score,
            )
            # Tie-break equal scores by validation loss so early stopping is
            # not fooled by long plateaus (e.g. an all-negative start).
            tie_won = (
                val_loss is not None and score == best.val_score and val_loss < best_loss
            )
            if score > best.val_score or tie_won:
                if val_loss is not None:
                    best_loss = min(best_loss, val_loss)
                best.val_score, best.epoch, best.scores = score, epoch, record()
                best_state = model.state_dict()
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break

    if best_state is not None:
        model.load_state_dict(best_state)
    train_span.finish()
    best.train_time = train_span.duration
    events.emit(
        "train_end",
        best_epoch=best.epoch,
        val_score=best.val_score,
        test_score=best.scores.get("test"),
        epochs_run=len(best.history),
    )
    return best


# ----------------------------------------------------------------------
# node classification: the Graph / MultiGraphDataset decision
# ----------------------------------------------------------------------
def node_mode(data) -> str:
    """``"transductive"`` for a Graph, ``"inductive"`` for a MultiGraphDataset."""
    if isinstance(data, Graph):
        return "transductive"
    if isinstance(data, MultiGraphDataset):
        return "inductive"
    raise TypeError(f"cannot train on or search over {type(data).__name__}")


def graph_caches(data: Graph | MultiGraphDataset) -> dict[int, GraphCache]:
    """One :class:`GraphCache` per graph of ``data``, keyed by ``id(graph)``."""
    graphs = [data] if node_mode(data) == "transductive" else data.all_graphs
    return {id(graph): GraphCache(graph) for graph in graphs}


def _multilabel_loss(model: Module, graph: Graph, caches: dict) -> Tensor:
    logits = model(graph.features, caches[id(graph)])
    return F.binary_cross_entropy_with_logits(logits, graph.labels.astype(np.float64))


def split_loss(
    model: Module, data: Graph | MultiGraphDataset, split: str, caches: dict
) -> Tensor:
    """The loss on ``split``: cross-entropy over a Graph's split mask,
    or the mean per-graph BCE over a MultiGraphDataset's split graphs."""
    if node_mode(data) == "transductive":
        mask = data.mask(split)
        logits = model(data.features, caches[id(data)])
        return F.cross_entropy(logits[mask], data.labels[mask])
    graphs = getattr(data, f"{split}_graphs")
    total = None
    for graph in graphs:
        loss = _multilabel_loss(model, graph, caches)
        total = loss if total is None else total + loss
    return total / len(graphs)


def _pooled_logits(
    model: Module, graphs: list[Graph], caches: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode, tape-free logits and labels of ``graphs``, stacked."""
    model.eval()
    with no_grad():
        logits = [model(graph.features, caches[id(graph)]).numpy() for graph in graphs]
    return np.concatenate(logits), np.concatenate([graph.labels for graph in graphs])


def split_score(
    model: Module, data: Graph | MultiGraphDataset, split: str, caches: dict
) -> float:
    """Eval-mode score on ``split``: accuracy over a Graph's split mask,
    or micro-F1 pooled over a MultiGraphDataset's split graphs."""
    if node_mode(data) == "transductive":
        model.eval()
        with no_grad():
            logits = model(data.features, caches[id(data)]).numpy()
        return accuracy(logits, data.labels, data.mask(split))
    return micro_f1(*_pooled_logits(model, getattr(data, f"{split}_graphs"), caches))


def _validate(model: Module, data, caches: dict):
    """``(val score, val loss, record)`` for :func:`run_training`.

    A Graph's one eval forward serves the val loss and all three
    splits' accuracies; a MultiGraphDataset forwards the test and
    training graphs only when the epoch is the new best.
    """
    if node_mode(data) == "transductive":
        model.eval()
        with no_grad():
            logits_t = model(data.features, caches[id(data)])
            val = data.mask("val")
            val_loss = F.cross_entropy(logits_t[val], data.labels[val]).item()
        logits = logits_t.numpy()

        def score(split):
            return accuracy(logits, data.labels, data.mask(split))

        val_score = score("val")
    else:
        logits, labels = _pooled_logits(model, data.val_graphs, caches)
        val_loss = float(
            np.mean(np.logaddexp(0.0, logits) - logits * labels.astype(np.float64))
        )
        val_score = micro_f1(logits, labels)

        def score(split):
            return split_score(model, data, split, caches)

    return val_score, val_loss, lambda: {"test": score("test"), "train": score("train")}


def fit(
    model: Module, data: Graph | MultiGraphDataset, config: TrainConfig | None = None
) -> TrainResult:
    """Train a node classifier with early stopping; see :func:`node_mode`.

    A Graph takes one full-batch step per epoch, a MultiGraphDataset
    one step per training graph. The model is left loaded with its
    best-validation weights so the caller can keep using it (e.g.
    Figure 2 renders the final model).
    """
    mode = node_mode(data)
    config = config or TrainConfig()
    caches = graph_caches(data)
    if mode == "transductive":
        steps = [lambda: split_loss(model, data, "train", caches)]
    else:
        steps = [
            functools.partial(_multilabel_loss, model, graph, caches)
            for graph in data.train_graphs
        ]
    best = run_training(
        model, config, steps, lambda: _validate(model, data, caches), mode=mode
    )
    return TrainResult(
        val_score=best.val_score,
        test_score=best.scores.get("test", 0.0),
        train_score=best.scores.get("train", 0.0),
        best_epoch=best.epoch,
        train_time=best.train_time,
        history=best.history,
    )
