"""Shared experiment runners: the three method families of Table VI.

These helpers encapsulate the paper's protocols so individual
table/figure modules stay declarative:

* :func:`run_human_baseline` — train a fixed architecture ``repeats``
  times with per-task settings (Table XIII analogue);
* :func:`run_sane` — the full SANE pipeline: ``search_seeds``
  independent searches, best-by-validation selection among the derived
  top-1 architectures, then multi-seed retraining (Section IV-A3);
* :func:`run_nas_method` — Random / Bayesian / GraphNAS(-WS) over a
  decision space, then multi-seed retraining of the winner; the search
  itself is :func:`search_nas_method`, which Table VII and Figure 3
  call too.

``run_sane`` expresses its three stages — search seeds, candidate
probes, retraining repeats — as :class:`repro.parallel.SearchJob`
waves executed by a :class:`repro.parallel.WorkerPool`. There is no
separate sequential loop: ``workers <= 1`` runs the very same job
bodies in-process in submission (job-id) order, and because every job derives its
seed from its identity (``seed + search_seed`` etc., exactly the
pre-existing assignments), the output is bit-identical at any worker
count.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.derive import retrain
from repro.core.search import SaneSearcher, SearchConfig, SearchResult
from repro.core.search_space import Architecture, SearchSpace
from repro.experiments.config import Scale
from repro.gnn.lgcn import LGCNModel
from repro.gnn.models import build_baseline
from repro.graph.data import Graph, MultiGraphDataset
from repro.nas.encoding import DecisionSpace, sane_decision_space
from repro.nas.evaluation import ArchitectureEvaluator, build_spec_model
from repro.nas.graphnas import graphnas_search
from repro.nas.random_search import SearchOutcome, random_search
from repro.nas.tpe import tpe_search
from repro.obs import events
from repro.parallel import SearchJob, WorkerPool
from repro.train.trainer import TrainConfig, fit

__all__ = [
    "TaskSettings",
    "task_settings",
    "run_human_baseline",
    "run_sane",
    "run_nas_method",
    "search_nas_method",
    "SaneRun",
    "NasRun",
    "NAS_METHODS",
]

NAS_METHODS = ("random", "bayesian", "graphnas", "graphnas-ws")


@dataclasses.dataclass
class TaskSettings:
    """Per-task model/training settings (the Table XIII analogue)."""

    dropout: float
    activation: str
    jk_mode: str
    train_config: TrainConfig


def task_settings(data: Graph | MultiGraphDataset, scale: Scale) -> TaskSettings:
    """Transductive vs inductive defaults, following Table XIII."""
    if isinstance(data, MultiGraphDataset):
        return TaskSettings(
            dropout=0.1,
            activation="elu",
            jk_mode="lstm",
            train_config=scale.ppi_train_config(),
        )
    return TaskSettings(
        dropout=0.5,
        activation="relu",
        jk_mode="concat",
        train_config=scale.train_config(),
    )


# Table XIII: GeniePath is trained with tanh (its LSTM gating saturates
# and stops learning under relu in the plain 3-layer stack).
_ACTIVATION_OVERRIDES = {"geniepath": "tanh", "geniepath-jk": "tanh"}


def run_human_baseline(
    name: str,
    data: Graph | MultiGraphDataset,
    scale: Scale,
    seed: int = 0,
) -> list[float]:
    """Retrain a human-designed baseline ``scale.repeats`` times."""
    settings = task_settings(data, scale)
    activation = _ACTIVATION_OVERRIDES.get(name, settings.activation)
    scores = []
    for repeat in range(scale.repeats):
        rng = np.random.default_rng(seed + repeat)
        if name == "lgcn":
            model = LGCNModel(
                data.num_features,
                scale.hidden_dim,
                data.num_classes,
                rng,
                num_layers=3,
                dropout=settings.dropout,
                activation=activation,
            )
        else:
            model = build_baseline(
                name,
                data.num_features,
                data.num_classes,
                rng,
                hidden_dim=scale.hidden_dim,
                num_layers=3,
                dropout=settings.dropout,
                activation=activation,
                jk_mode=settings.jk_mode,
            )
        result = fit(model, data, settings.train_config)
        scores.append(result.test_score)
    return scores


@dataclasses.dataclass
class SaneRun:
    architecture: Architecture
    test_scores: list[float]
    val_scores: list[float]
    search_time: float  # seconds of the (first) search run
    search_results: list[SearchResult]  # one per search seed


def _sane_search_job(
    space: SearchSpace,
    data: Graph | MultiGraphDataset,
    search_config: SearchConfig,
    seed: int,
) -> SearchResult:
    """One independent supernet search — the body of a search-wave job."""
    return SaneSearcher(space, data, search_config, seed=seed).search()


def _sane_retrain_job(
    architecture: Architecture,
    data: Graph | MultiGraphDataset,
    seed: int,
    hidden_dim: int,
    dropout: float,
    activation: str,
    train_config: TrainConfig,
) -> tuple[float, float]:
    """Retrain one derived architecture; body of probe and repeat jobs."""
    result = retrain(
        architecture,
        data,
        seed=seed,
        hidden_dim=hidden_dim,
        dropout=dropout,
        activation=activation,
        train_config=train_config,
    )
    return float(result.val_score), float(result.test_score)


def run_sane(
    data: Graph | MultiGraphDataset,
    scale: Scale,
    seed: int = 0,
    num_layers: int = 3,
    epsilon: float = 0.0,
    space: SearchSpace | None = None,
    workers: int = 0,
    pool: WorkerPool | None = None,
) -> SaneRun:
    """Full SANE pipeline (Section IV-A3 protocol).

    The three stages run as job waves on ``pool`` (or an ephemeral
    pool with ``workers`` processes): independent searches, candidate
    probes, retraining repeats. Each job's seed is a function of its
    identity alone, and the pool merges by job id, so any worker
    count produces the same :class:`SaneRun` bit for bit.
    """
    space = space or SearchSpace(num_layers=num_layers)
    settings = task_settings(data, scale)
    search_config = SearchConfig(
        epochs=scale.search_epochs,
        hidden_dim=scale.search_hidden_dim,
        epsilon=epsilon,
    )
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers=workers)
    try:
        # Wave 1 — run the search `search_seeds` times.
        search_results: list[SearchResult] = pool.run(
            SearchJob(
                job_id=search_seed,
                fn="repro.experiments.runners:_sane_search_job",
                kwargs=dict(
                    space=space,
                    data=data,
                    search_config=search_config,
                    seed=seed + search_seed,
                ),
                tag=f"sane-search-{seed + search_seed}",
            )
            for search_seed in range(scale.search_seeds)
        )

        # Wave 2 — probe candidates. Algorithm 1 retains the top-k
        # strongest operations; we probe the top-2 architectures of
        # each supernet (k=1 plus the runner-up) and keep the best by
        # validation — the paper's protocol with a slightly wider net.
        probes: list[tuple[int, Architecture]] = []
        for search_seed, result in enumerate(search_results):
            probed: set[Architecture] = set()
            for arch in result.supernet.derive_topk(2):
                if arch in probed:
                    continue
                probed.add(arch)
                probes.append((search_seed, arch))
        probe_scores = pool.run(
            SearchJob(
                job_id=position,
                fn="repro.experiments.runners:_sane_retrain_job",
                kwargs=dict(
                    architecture=arch,
                    data=data,
                    seed=seed,
                    hidden_dim=scale.hidden_dim,
                    dropout=settings.dropout,
                    activation=settings.activation,
                    train_config=settings.train_config,
                ),
                tag=f"sane-probe-{position}",
            )
            for position, (__, arch) in enumerate(probes)
        )
        candidates: list[tuple[float, Architecture]] = []
        for (search_seed, arch), (val_score, test_score) in zip(probes, probe_scores):
            candidates.append((val_score, arch))
            events.emit(
                "candidate_probe",
                search_seed=seed + search_seed,
                architecture=str(arch),
                val_score=val_score,
                test_score=test_score,
            )
        candidates.sort(key=lambda item: -item[0])
        best_arch = candidates[0][1]
        events.emit(
            "sane_selected",
            architecture=str(best_arch),
            val_score=candidates[0][0],
            candidates=len(candidates),
        )

        # Wave 3 — retrain the winner `repeats` times.
        repeat_scores = pool.run(
            SearchJob(
                job_id=repeat,
                fn="repro.experiments.runners:_sane_retrain_job",
                kwargs=dict(
                    architecture=best_arch,
                    data=data,
                    seed=seed + repeat,
                    hidden_dim=scale.hidden_dim,
                    dropout=settings.dropout,
                    activation=settings.activation,
                    train_config=settings.train_config,
                ),
                tag=f"sane-retrain-{seed + repeat}",
            )
            for repeat in range(scale.repeats)
        )
    finally:
        if own_pool:
            pool.shutdown()
    val_scores = [val for val, __ in repeat_scores]
    test_scores = [test for __, test in repeat_scores]
    return SaneRun(
        architecture=best_arch,
        test_scores=test_scores,
        val_scores=val_scores,
        search_time=search_results[0].search_time,
        search_results=search_results,
    )


@dataclasses.dataclass
class NasRun:
    method: str
    test_scores: list[float]
    outcome: SearchOutcome
    best_decoded: object


def search_nas_method(
    method: str,
    data: Graph | MultiGraphDataset,
    scale: Scale,
    space: DecisionSpace,
    seed: int,
    evaluator_seed: int | None = None,
    num_final_samples: int = 1,
    rollout_batch: int = 1,
    pool: WorkerPool | None = None,
) -> SearchOutcome:
    """One trial-and-error search of ``method`` over ``space``.

    The one place the Random / Bayesian / GraphNAS(-WS) methods are
    dispatched: builds the candidate evaluator (seeded
    ``evaluator_seed``, default ``seed``; weight sharing for
    ``graphnas-ws``) and runs the method's search with ``seed``.
    ``rollout_batch`` applies to the adaptive methods, and
    ``num_final_samples`` to GraphNAS.
    """
    settings = task_settings(data, scale)
    evaluator = ArchitectureEvaluator(
        space,
        data,
        train_config=settings.train_config,
        hidden_dim=scale.hidden_dim,
        dropout=settings.dropout,
        seed=seed if evaluator_seed is None else evaluator_seed,
        weight_sharing=(method == "graphnas-ws"),
        ws_epochs=scale.ws_epochs,
    )
    if method == "random":
        return random_search(evaluator, scale.nas_candidates, seed=seed, pool=pool)
    if method == "bayesian":
        return tpe_search(
            evaluator,
            scale.nas_candidates,
            seed=seed,
            batch=rollout_batch,
            pool=pool,
        )
    return graphnas_search(
        evaluator,
        scale.nas_candidates,
        seed=seed,
        num_final_samples=num_final_samples,
        rollout_batch=rollout_batch,
        pool=pool,
    )


def run_nas_method(
    method: str,
    data: Graph | MultiGraphDataset,
    scale: Scale,
    seed: int = 0,
    space: DecisionSpace | None = None,
    num_layers: int = 3,
    rollout_batch: int = 1,
    workers: int = 0,
    pool: WorkerPool | None = None,
) -> NasRun:
    """Run one trial-and-error baseline and retrain its winner.

    ``workers``/``pool`` parallelise candidate training. Random search
    fans out its whole (feedback-free) budget; Bayesian and GraphNAS
    evaluate ``rollout_batch`` proposals per round. ``rollout_batch``
    changes which candidates the adaptive methods propose (batched BO
    semantics) — at ``rollout_batch=1`` results are bit-identical to
    the sequential algorithm at any worker count.
    """
    if method not in NAS_METHODS:
        raise ValueError(f"unknown NAS method {method!r}; choose from {NAS_METHODS}")
    space = space or sane_decision_space(SearchSpace(num_layers=num_layers))
    settings = task_settings(data, scale)
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers=workers)
    try:
        outcome = search_nas_method(
            method,
            data,
            scale,
            space,
            seed=seed,
            num_final_samples=max(2, scale.nas_candidates // 3),
            rollout_batch=rollout_batch,
            pool=pool,
        )
    finally:
        if own_pool:
            pool.shutdown()

    decoded = space.decode(outcome.best.indices)
    test_scores = []
    for repeat in range(scale.repeats):
        rng = np.random.default_rng(seed + 100 + repeat)
        if isinstance(decoded, Architecture):
            result = retrain(
                decoded,
                data,
                seed=seed + 100 + repeat,
                hidden_dim=scale.hidden_dim,
                dropout=settings.dropout,
                activation=settings.activation,
                train_config=settings.train_config,
            )
        else:
            model = build_spec_model(
                decoded,
                data.num_features,
                data.num_classes,
                rng,
                dropout=settings.dropout,
            )
            result = fit(model, data, settings.train_config)
        test_scores.append(result.test_score)
    return NasRun(
        method=method,
        test_scores=test_scores,
        outcome=outcome,
        best_decoded=decoded,
    )
