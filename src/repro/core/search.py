"""Algorithm 1 of the paper: differentiable architecture search.

Bi-level optimisation (Eqs. 6–7) with the first-order approximation
(Eq. 8, ``xi = 0``) the paper uses in its experiments: each epoch
updates the architecture parameters ``alpha`` on the *validation*
loss, then the operation weights ``w`` on the *training* loss. After
``T`` epochs the discrete architecture is derived by argmax (top-1).

Works for both task families:

* transductive — a single :class:`~repro.graph.data.Graph` whose
  train/val masks provide the two losses;
* inductive — a :class:`~repro.graph.data.MultiGraphDataset` whose
  train/val graph lists provide them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import bilevel
from repro.core.search_space import Architecture, SearchSpace
from repro.core.supernet import SaneSupernet, derive_from_alphas
from repro.graph.data import Graph, MultiGraphDataset
from repro.nn.optim import Adam
from repro.nn.schedulers import create_scheduler
from repro.obs.search_telemetry import SearchTelemetry
from repro.train.trainer import graph_caches, node_mode, split_loss, split_score

__all__ = ["SearchConfig", "SearchResult", "SaneSearcher", "derive_from_alphas"]


@dataclasses.dataclass
class SearchConfig:
    """Hyper-parameters of the search phase (paper Appendix C).

    The paper uses hidden size 32 during search "for sake of
    computational resource", lr 5e-3, dropout 0.6, L2 2e-4 for ``w``;
    ``alpha`` follows the DARTS defaults (Adam, lr 3e-4, L2 1e-3).
    """

    epochs: int = 50
    hidden_dim: int = 32
    dropout: float = 0.6
    activation: str = "relu"
    w_lr: float = 5e-3
    w_weight_decay: float = 2e-4
    alpha_lr: float = 3e-4
    alpha_weight_decay: float = 1e-3
    grad_clip: float = 5.0
    epsilon: float = 0.0
    # Per-op output normalisation inside the mixture. Helps when op
    # output magnitudes differ wildly (the entity-alignment search uses
    # its own normalised supernet); on the node-classification tasks the
    # raw mixture searches slightly better, so it defaults off. The
    # design-choice ablation bench compares both.
    normalize_ops: bool = False
    # DARTS anneals the weight learning rate with a cosine schedule;
    # options: None/'constant', 'cosine'.
    w_lr_schedule: str | None = None
    # Eq. 8's xi. The paper sets xi = 0 (first-order approximation,
    # "more efficient and the performance is good enough"); xi > 0
    # enables the full second-order DARTS update via the
    # finite-difference Hessian-vector product of Liu et al. (2019).
    xi: float = 0.0

    def replace(self, **updates) -> "SearchConfig":
        return dataclasses.replace(self, **updates)


@dataclasses.dataclass
class SearchResult:
    """Outcome of one search run."""

    architecture: Architecture
    search_time: float
    # (elapsed seconds, supernet validation score) per epoch — the raw
    # series behind the paper's Figure 3 trajectories.
    history: list[tuple[float, float]]
    supernet: SaneSupernet
    # Per-epoch copies of the alpha matrices, so architectures can be
    # derived retroactively at any checkpoint (Figure 3 needs the
    # anytime behaviour of the search).
    alpha_snapshots: list[dict[str, np.ndarray]] = dataclasses.field(
        default_factory=list
    )


class SaneSearcher:
    """Runs Algorithm 1 over a dataset and derives the top architecture."""

    def __init__(
        self,
        space: SearchSpace,
        data: Graph | MultiGraphDataset,
        config: SearchConfig | None = None,
        seed: int = 0,
    ):
        self.space = space
        self.data = data
        self.config = config or SearchConfig()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

        self._mode = node_mode(data)

        self.supernet = SaneSupernet(
            space=space,
            in_dim=data.num_features,
            hidden_dim=self.config.hidden_dim,
            num_classes=data.num_classes,
            rng=self._rng,
            dropout=self.config.dropout,
            activation=self.config.activation,
            epsilon=self.config.epsilon,
            normalize_ops=self.config.normalize_ops,
        )
        self._arch = self.supernet.arch_parameters()
        self._weights = self.supernet.weight_parameters()
        self._w_optimizer = Adam(
            self._weights,
            lr=self.config.w_lr,
            weight_decay=self.config.w_weight_decay,
        )
        self._alpha_optimizer = Adam(
            self._arch,
            lr=self.config.alpha_lr,
            weight_decay=self.config.alpha_weight_decay,
        )
        self._w_scheduler = create_scheduler(
            self.config.w_lr_schedule, self._w_optimizer, self.config.epochs
        )
        self._caches = graph_caches(data)

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run the search loop and return the derived architecture."""
        telemetry = SearchTelemetry(self.space)
        telemetry.search_start(
            mode=self._mode,
            seed=self.seed,
            epochs=self.config.epochs,
            hidden_dim=self.config.hidden_dim,
            w_lr=self.config.w_lr,
            alpha_lr=self.config.alpha_lr,
            epsilon=self.config.epsilon,
            xi=self.config.xi,
        )
        # The halves are looked up on the instance every epoch, so a
        # wrapper installed on the class (profilers) sees each call.
        history, snapshots, search_time = bilevel.run_search(
            self.config.epochs,
            arch=self._arch,
            weights=self._weights,
            alpha_step=lambda: self._alpha_step(),
            weight_step=lambda: self._weight_step(),
            validate=lambda: self.validation_score(),
            snapshot=self.supernet.alphas,
            op_names=self.space.ops,
            scheduler=self._w_scheduler,
            on_epoch=telemetry.epoch,
            mode=self._mode,
        )
        architecture = self.supernet.derive(self._rng)
        telemetry.search_end(epochs=self.config.epochs, architecture=architecture)
        return SearchResult(
            architecture=architecture,
            search_time=search_time,
            history=history,
            supernet=self.supernet,
            alpha_snapshots=snapshots,
        )

    # ------------------------------------------------------------------
    # the two halves of one Algorithm-1 iteration
    # ------------------------------------------------------------------
    def _alpha_step(self) -> float | None:
        """Update alpha by descending the validation loss (line 3).

        With ``xi = 0`` this is the first-order approximation the paper
        uses; with ``xi > 0`` the validation gradient is taken at the
        virtually-updated weights ``w' = w - xi * grad_w L_tra`` and the
        implicit term is estimated with the standard finite-difference
        Hessian-vector product. Returns the validation loss (first-order
        mode only) for the epoch-metrics telemetry.
        """
        self.supernet.train()
        if self.config.xi <= 0.0:
            return bilevel.descend(
                self._arch,
                self._alpha_optimizer,
                lambda: self._loss("val"),
                self.config.grad_clip,
                hold=self._weights,
            )
        self._second_order_alpha_grads()
        return bilevel.descend(
            self._arch, self._alpha_optimizer, None, self.config.grad_clip
        )

    def _second_order_alpha_grads(self) -> None:
        """Populate alpha grads with the xi > 0 update of Eq. 8."""
        xi = self.config.xi
        weights = self._weights
        alphas = self._arch
        saved = [w.data.copy() for w in weights]

        # Virtual step: w' = w - xi * grad_w L_tra(w, alpha).
        train_grads = bilevel.gradients(
            lambda: self._loss("train"), weights, hold=alphas
        )
        for w, g in zip(weights, train_grads):
            w.data = w.data - xi * g

        # Validation gradients at w': both d_alpha and d_w'.
        val_grads = bilevel.gradients(lambda: self._loss("val"), alphas + weights)
        dalpha, dw = val_grads[: len(alphas)], val_grads[len(alphas) :]

        # Finite-difference Hessian-vector product:
        # (grad_alpha L_tra(w + eps*dw) - grad_alpha L_tra(w - eps*dw)) / 2eps.
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in dw)))
        eps = 0.01 / max(norm, 1e-8)

        def train_alpha_grads(shift: float) -> list[np.ndarray]:
            for w, original, g in zip(weights, saved, dw):
                w.data = original + shift * g
            return bilevel.gradients(
                lambda: self._loss("train"), alphas, hold=weights
            )

        alpha_plus = train_alpha_grads(eps)
        alpha_minus = train_alpha_grads(-eps)

        # Restore w and install the combined gradient on alpha.
        for w, original in zip(weights, saved):
            w.data = original
        for alpha, first, plus, minus in zip(alphas, dalpha, alpha_plus, alpha_minus):
            hessian_term = (plus - minus) / (2.0 * eps)
            alpha.grad = first - xi * hessian_term

    def _weight_step(self) -> float:
        """Update w by descending the training loss (line 5)."""
        self.supernet.train()
        return bilevel.descend(
            self._weights,
            self._w_optimizer,
            lambda: self._loss("train"),
            self.config.grad_clip,
            hold=self._arch,
        )

    def _loss(self, split: str):
        return split_loss(self.supernet, self.data, split, self._caches)

    # ------------------------------------------------------------------
    def validation_score(self) -> float:
        """Supernet validation accuracy / micro-F1 (progress signal)."""
        return split_score(self.supernet, self.data, "val", self._caches)
