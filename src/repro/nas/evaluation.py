"""Candidate evaluation shared by the trial-and-error NAS baselines.

Every baseline of Section IV-A2 (Random, Bayesian, GraphNAS) follows
the same inner loop: decode a candidate, train it from scratch (or
with shared weights), read its validation score. The
:class:`ArchitectureEvaluator` centralises that loop, records the
(time, best-so-far test score) trajectory behind Figure 3, and counts
wall-clock for Table VII.

Parallel evaluation: the from-scratch training of candidate ``k`` is
a pure function of ``(space, data, indices, build_seed, config)``, so
:func:`train_candidate` is module-level and picklable — the
:class:`repro.parallel.WorkerPool` ships it to spawn workers, and
:meth:`ArchitectureEvaluator.evaluate_batch` merges the scores back
in sample order. Build seeds derive from ``(evaluator seed, trial
index)`` rather than a shared RNG stream, which is what makes the
scores independent of execution order and therefore bit-identical
between the sequential and parallel paths. Weight sharing
(GraphNAS-WS) mutates a candidate-order-dependent bank, so the WS
variant always evaluates sequentially.

Dispatch order: when a batch holds more candidates than the pool has
workers, :meth:`ArchitectureEvaluator.evaluate_batch` hands the pool
its jobs longest-first, so the slowest candidate does not start last
and leave the other workers idle. The rank is a deterministic probe
run in the parent (:func:`candidate_tape_size`): the candidate built
from its own build seed, one training-mode forward on a few-node ring
cut from the data (:func:`probe_cache`), and the number of tape nodes
a backward from its output would visit. Records still
append in batch order and every score is unchanged; only which worker
trains which candidate, and when, changes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.core.derive import architecture_to_model
from repro.core.search_space import Architecture
from repro.gnn.common import GraphCache
from repro.gnn.models import GNNModel
from repro.graph.data import Graph, MultiGraphDataset
from repro.nas.encoding import DecisionSpace
from repro.nn.module import Module
from repro.parallel import SearchJob, derive_seed
from repro.train.trainer import TrainConfig, fit

__all__ = [
    "EvaluationRecord",
    "ArchitectureEvaluator",
    "build_spec_model",
    "candidate_tape_size",
    "probe_cache",
    "train_candidate",
]


def build_spec_model(
    spec: dict,
    in_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    dropout: float = 0.5,
) -> GNNModel:
    """Build a model from a GraphNAS-style spec dict.

    The spec mixes architecture and hyper-parameters (per-layer hidden
    size / activation / heads), which is exactly what the SANE paper
    argues inflates the search space.
    """
    return GNNModel(
        in_dim=in_dim,
        hidden_dim=list(spec["hidden_dims"]),
        num_classes=num_classes,
        node_aggregators=list(spec["node_aggregators"]),
        rng=rng,
        layer_aggregator=None,
        dropout=dropout,
        activation=list(spec["activations"]),
        heads=list(spec["heads"]),
    )


def _build_model(
    decoded,
    data: Graph | MultiGraphDataset,
    rng: np.random.Generator,
    hidden_dim: int,
    dropout: float,
) -> Module:
    """Instantiate whatever object a decision space decoded to."""
    if isinstance(decoded, Architecture):
        return architecture_to_model(
            decoded,
            in_dim=data.num_features,
            num_classes=data.num_classes,
            rng=rng,
            hidden_dim=hidden_dim,
            dropout=dropout,
        )
    if "mlp_layers" in decoded:
        from repro.gnn.mlp_aggregator import MLPGNNModel

        return MLPGNNModel(
            in_dim=data.num_features,
            hidden_dim=hidden_dim,
            num_classes=data.num_classes,
            layer_specs=decoded["mlp_layers"],
            rng=rng,
            dropout=dropout,
        )
    return build_spec_model(
        decoded,
        in_dim=data.num_features,
        num_classes=data.num_classes,
        rng=rng,
        dropout=dropout,
    )


def train_candidate(
    space: DecisionSpace,
    data: Graph | MultiGraphDataset,
    indices: tuple[int, ...],
    build_seed: int,
    train_config: TrainConfig,
    hidden_dim: int = 32,
    dropout: float = 0.5,
) -> tuple[float, float]:
    """Train one from-scratch candidate; return (val, test) scores.

    Module-level and argument-pure so it doubles as a
    :class:`repro.parallel.SearchJob` body — both the sequential
    :meth:`ArchitectureEvaluator.evaluate` and the worker processes
    run exactly this code.
    """
    indices = tuple(indices)
    with obs.span("candidate", indices=list(indices)):
        decoded = space.decode(indices)
        model = _build_model(
            decoded, data, np.random.default_rng(build_seed),
            hidden_dim, dropout,
        )
        result = fit(model, data, train_config)
    return float(result.val_score), float(result.test_score)


def probe_cache(data: Graph | MultiGraphDataset) -> GraphCache:
    """The graph :func:`candidate_tape_size` runs its forward on.

    A ring over the first 8 nodes of ``data`` (of its first
    training graph for a :class:`MultiGraphDataset`), with their
    features. A forward records one tape node per op whatever the
    graph's size, so the ring gives the full graph's count at a
    fraction of its time and memory.
    """
    graph = data if isinstance(data, Graph) else data.train_graphs[0]
    nodes = np.arange(min(8, graph.num_nodes))
    after = np.roll(nodes, -1)
    return GraphCache(Graph(
        edge_index=np.stack([np.r_[nodes, after], np.r_[after, nodes]]),
        features=graph.features[nodes],
    ))


def candidate_tape_size(
    space: DecisionSpace,
    data: Graph | MultiGraphDataset,
    indices: tuple[int, ...],
    build_seed: int,
    cache: GraphCache,
    hidden_dim: int = 32,
    dropout: float = 0.5,
) -> int:
    """Tape nodes a backward would visit after one training-mode forward.

    The candidate is built from its own build seed and run on
    ``cache`` (:func:`probe_cache`). The count ranks candidates by
    training cost: it tracks training time far better than the
    parameter count does, and unlike a timed forward it does not
    depend on what else the machine is doing.
    """
    model = _build_model(
        space.decode(tuple(indices)), data,
        np.random.default_rng(build_seed), hidden_dim, dropout,
    )
    model.train()
    return model(cache.graph.features, cache).tape_size()


@dataclasses.dataclass
class EvaluationRecord:
    """One candidate evaluation."""

    indices: tuple[int, ...]
    val_score: float
    test_score: float
    elapsed: float  # cumulative seconds since the evaluator was created


class ArchitectureEvaluator:
    """Train-and-score loop over a :class:`DecisionSpace`.

    Candidates decoding to :class:`Architecture` are instantiated via
    :func:`architecture_to_model`; dict specs via
    :func:`build_spec_model`. ``weight_sharing`` enables the
    GraphNAS-WS behaviour: per-position op weights persist across
    candidates and each candidate trains only a short adaptation
    schedule.

    Trial ``k`` builds its model from ``derive_seed(seed, k)`` — a
    pure function of the trial index, never of a shared RNG's
    execution order — so a batch fanned out over workers scores
    bit-identically to the same candidates evaluated one by one.
    """

    def __init__(
        self,
        space: DecisionSpace,
        data: Graph | MultiGraphDataset,
        train_config: TrainConfig | None = None,
        hidden_dim: int = 32,
        dropout: float = 0.5,
        seed: int = 0,
        weight_sharing: bool = False,
        ws_epochs: int = 30,
    ):
        self.space = space
        self.data = data
        self.train_config = train_config or TrainConfig()
        self.hidden_dim = hidden_dim
        self.dropout = dropout
        self.seed = seed
        self.weight_sharing = weight_sharing
        self.ws_epochs = ws_epochs
        self._bank: dict[str, np.ndarray] = {}
        self._trials = 0  # build-seed indices handed out so far
        self.records: list[EvaluationRecord] = []
        # Detached stopwatch: `elapsed` on every record is "seconds
        # since this evaluator was created" (the Figure 3 x-axis), a
        # region with no lexical scope to `with` over.
        self._lifetime = obs.span("nas-evaluator", kind="lifetime").start_detached()

    # ------------------------------------------------------------------
    def evaluate(self, indices: tuple[int, ...]) -> EvaluationRecord:
        """Train the candidate and append its record."""
        indices = tuple(indices)
        trial = self._trials
        self._trials += 1
        build_seed = derive_seed(self.seed, trial)
        if self.weight_sharing:
            val_score, test_score = self._evaluate_shared(indices, build_seed)
        else:
            val_score, test_score = train_candidate(
                self.space, self.data, indices, build_seed,
                self.train_config, self.hidden_dim, self.dropout,
            )
        record = EvaluationRecord(
            indices=indices,
            val_score=val_score,
            test_score=test_score,
            elapsed=self._lifetime.elapsed(),
        )
        self.records.append(record)
        return record

    def evaluate_batch(
        self, batch: list[tuple[int, ...]], pool=None
    ) -> list[EvaluationRecord]:
        """Evaluate candidates, fanning out over ``pool`` when possible.

        Records append in batch order with build seeds assigned by
        trial index, so the scores — and every downstream decision
        made from them — match the sequential path exactly. Weight
        sharing degrades to sequential evaluation (the shared bank is
        candidate-order-dependent state). A batch larger than the pool
        is dispatched longest-first (see the module docstring).
        """
        batch = [tuple(indices) for indices in batch]
        if not batch:
            return []
        if pool is None or pool.workers <= 1 or self.weight_sharing:
            return [self.evaluate(indices) for indices in batch]
        base = self._trials
        self._trials += len(batch)
        jobs = [
            SearchJob(
                job_id=position,
                fn="repro.nas.evaluation:train_candidate",
                kwargs=dict(
                    space=self.space,
                    data=self.data,
                    indices=batch[position],
                    build_seed=derive_seed(self.seed, base + position),
                    train_config=self.train_config,
                    hidden_dim=self.hidden_dim,
                    dropout=self.dropout,
                ),
                tag=f"candidate-{base + position}",
            )
            for position in range(len(batch))
        ]
        if len(jobs) > pool.workers:
            jobs = self._longest_first(jobs)
        scores = dict(zip((job.job_id for job in jobs), pool.run(jobs)))
        records = []
        for position, indices in enumerate(batch):
            val_score, test_score = scores[position]
            record = EvaluationRecord(
                indices=indices,
                val_score=val_score,
                test_score=test_score,
                elapsed=self._lifetime.elapsed(),
            )
            self.records.append(record)
            records.append(record)
        return records

    def _longest_first(self, jobs: list[SearchJob]) -> list[SearchJob]:
        """``jobs`` by descending tape size; ties keep batch order."""
        cache = probe_cache(self.data)
        sizes = {
            job.job_id: candidate_tape_size(
                self.space, self.data, job.kwargs["indices"],
                job.kwargs["build_seed"], cache, self.hidden_dim,
                self.dropout,
            )
            for job in jobs
        }
        return sorted(jobs, key=lambda job: -sizes[job.job_id])

    def _evaluate_shared(
        self, indices: tuple[int, ...], build_seed: int
    ) -> tuple[float, float]:
        """The GraphNAS-WS path: bank restore, short schedule, store."""
        with obs.span("candidate", indices=list(indices)):
            decoded = self.space.decode(indices)
            model = _build_model(
                decoded, self.data, np.random.default_rng(build_seed),
                self.hidden_dim, self.dropout,
            )
            self._load_shared(model, indices)
            config = self.train_config.replace(
                epochs=self.ws_epochs, patience=self.ws_epochs
            )
            result = fit(model, self.data, config)
            self._store_shared(model, indices)
        return float(result.val_score), float(result.test_score)

    @property
    def best_record(self) -> EvaluationRecord:
        if not self.records:
            raise RuntimeError("no candidates evaluated yet")
        return max(self.records, key=lambda r: r.val_score)

    def trajectory(self) -> list[tuple[float, float]]:
        """(elapsed, best-so-far test score) series for Figure 3."""
        points = []
        best_val = -1.0
        best_test = 0.0
        for record in self.records:
            if record.val_score > best_val:
                best_val = record.val_score
                best_test = record.test_score
            points.append((record.elapsed, best_test))
        return points

    # ------------------------------------------------------------------
    # weight sharing (GraphNAS-WS)
    # ------------------------------------------------------------------
    def _shared_keys(self, model: Module, indices: tuple[int, ...]):
        """Map parameter paths to bank keys tagged by the decision vector.

        Parameters under ``layers.<i>`` are shared across candidates
        that picked the same op at position ``i`` (and same dims);
        the classifier is shared unconditionally.
        """
        description = self.space.describe(indices).split(", ")
        for name, param in model.named_parameters():
            if name.startswith("layers."):
                layer_idx = name.split(".")[1]
                tag = description[int(layer_idx)] if int(layer_idx) < len(description) else ""
                yield name, f"L{layer_idx}|{tag}|{name}|{param.data.shape}"
            elif name.startswith("classifier"):
                yield name, f"head|{name}|{param.data.shape}"

    def _load_shared(self, model: Module, indices: tuple[int, ...]) -> None:
        params = dict(model.named_parameters())
        for name, key in self._shared_keys(model, indices):
            stored = self._bank.get(key)
            if stored is not None and stored.shape == params[name].data.shape:
                params[name].data = stored.copy()

    def _store_shared(self, model: Module, indices: tuple[int, ...]) -> None:
        params = dict(model.named_parameters())
        for name, key in self._shared_keys(model, indices):
            self._bank[key] = params[name].data.copy()
