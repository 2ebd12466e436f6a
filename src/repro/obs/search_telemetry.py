"""Search-dynamics instrumentation for the differentiable search.

SANE's contribution *is* the dynamics of the bi-level search: the alpha
softmax distributions (Eq. 2) sharpen epoch by epoch until the argmax
genotype stabilises — or collapse onto a degenerate op, the classic
one-shot NAS failure mode GraphNAS/AutoGNN motivate monitoring for.
:class:`SearchTelemetry` turns one search run into a stream of
:mod:`repro.obs.events` records:

``search_start``   space, mode, seed, epoch budget, key hyper-params
``alpha_snapshot`` per-edge softmax rows and entropies, once per epoch
``epoch_metrics``  val score, train/val loss, alpha/weight grad norms
``genotype``       the initial argmax genotype (flip baseline)
``genotype_flip``  which op on which edge changed under argmax
``search_end``     final derived architecture, epochs run

Everything here is *read-only* on the supernet: softmax/entropy are
computed on copies, the argmax tracker breaks ties deterministically
(first index, no RNG), and every hook early-outs unless a recorder is
installed — so a recorded search stays bit-identical to an unrecorded
one.
"""

from __future__ import annotations

import numpy as np

from repro.obs import events

__all__ = [
    "softmax_rows",
    "row_entropy",
    "argmax_genotype",
    "genotype_flips",
    "grad_l2_norm",
    "SearchTelemetry",
]


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax of a 2-D alpha matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    shifted = matrix - matrix.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def row_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each row of a probability matrix."""
    clipped = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0)
    return -np.sum(clipped * np.log(clipped), axis=-1)


def argmax_genotype(space, alphas: dict[str, np.ndarray]) -> dict:
    """Deterministic argmax genotype (first index wins ties).

    This is the *telemetry* view of the derivation — unlike
    :func:`repro.core.search.derive_from_alphas` it never draws from an
    RNG, so tracking the genotype epoch-by-epoch cannot perturb the
    searcher's seeded random stream.
    """
    return {
        "node": tuple(
            space.node_ops[int(np.argmax(alphas["node"][i]))]
            for i in range(space.num_layers)
        ),
        "skip": tuple(
            space.skip_ops[int(np.argmax(alphas["skip"][i]))]
            for i in range(space.num_layers)
        ),
        "layer": space.layer_ops[int(np.argmax(alphas["layer"][0]))],
    }


def genotype_flips(old: dict, new: dict) -> list[dict]:
    """Per-edge differences between two argmax genotypes."""
    flips: list[dict] = []
    for kind in ("node", "skip"):
        for index, (before, after) in enumerate(zip(old[kind], new[kind])):
            if before != after:
                flips.append(
                    {"edge": f"{kind}/{index}", "from": before, "to": after}
                )
    if old["layer"] != new["layer"]:
        flips.append({"edge": "layer/0", "from": old["layer"], "to": new["layer"]})
    return flips


def grad_l2_norm(params) -> float:
    """Global L2 norm over the ``.grad`` arrays of a parameter group."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float(np.sum(param.grad * param.grad))
    return float(np.sqrt(total))


class SearchTelemetry:
    """Per-search event emitter; every hook no-ops unless recording."""

    def __init__(self, space):
        self.space = space
        self._genotype: dict | None = None

    # ------------------------------------------------------------------
    def search_start(self, *, mode: str, seed: int, epochs: int, **hparams) -> None:
        if not events.enabled():
            return
        events.emit(
            "search_start",
            mode=mode,
            seed=seed,
            epochs=epochs,
            space={
                "num_layers": self.space.num_layers,
                "node_ops": list(self.space.node_ops),
                "skip_ops": list(self.space.skip_ops),
                "layer_ops": list(self.space.layer_ops),
            },
            **hparams,
        )

    def epoch(
        self,
        epoch: int,
        alphas: dict[str, np.ndarray],
        *,
        val_score: float | None = None,
        train_loss: float | None = None,
        val_loss: float | None = None,
        arch_grad_norm: float | None = None,
        weight_grad_norm: float | None = None,
    ) -> None:
        if not events.enabled():
            return
        probs = {kind: softmax_rows(matrix) for kind, matrix in alphas.items()}
        entropy = {kind: row_entropy(p) for kind, p in probs.items()}
        events.emit("alpha_snapshot", epoch=epoch, probs=probs, entropy=entropy)
        metrics = {
            name: float(value)
            for name, value in (
                ("val_score", val_score),
                ("train_loss", train_loss),
                ("val_loss", val_loss),
                ("arch_grad_norm", arch_grad_norm),
                ("weight_grad_norm", weight_grad_norm),
            )
            if value is not None
        }
        if metrics:
            events.emit("epoch_metrics", epoch=epoch, **metrics)
        genotype = argmax_genotype(self.space, alphas)
        if self._genotype is None:
            events.emit("genotype", epoch=epoch, genotype=genotype)
        else:
            flips = genotype_flips(self._genotype, genotype)
            if flips:
                events.emit(
                    "genotype_flip", epoch=epoch, flips=flips, genotype=genotype
                )
        self._genotype = genotype

    def search_end(self, *, epochs: int, architecture) -> None:
        if not events.enabled():
            return
        events.emit(
            "search_end",
            epochs=epochs,
            architecture={
                "node": list(architecture.node_aggregators),
                "skip": list(architecture.skip_connections),
                "layer": architecture.layer_aggregator,
            },
        )
