"""Bit-identical merge: sequential vs parallel runs must agree exactly.

The orchestrator's core promise (DESIGN.md section 12): because every
job derives its seed from its identity and results merge by job id,
worker count is invisible in the output. These tests compare floats
with ``==`` — any drift is a real determinism bug, not tolerance
noise.
"""

import dataclasses

import pytest

from repro.experiments.config import SCALES
from repro.experiments.runners import run_sane
from repro.nas.encoding import sane_decision_space
from repro.nas.evaluation import ArchitectureEvaluator
from repro.nas.graphnas import graphnas_search
from repro.nas.random_search import random_search
from repro.nas.tpe import tpe_search
from repro.core.search_space import SearchSpace
from repro.parallel import WorkerPool
from repro.parallel.sweep import run_sweep
from repro.train.trainer import TrainConfig
from tests.naive_kernels import KERNEL_PATHS, kernel_path


def small_scale(**overrides):
    base = dataclasses.replace(
        SCALES["smoke"],
        search_seeds=2,
        repeats=2,
        search_epochs=4,
        train_epochs=12,
        train_patience=12,
        nas_candidates=4,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def evaluator_for(tiny_graph, seed=0):
    return ArchitectureEvaluator(
        sane_decision_space(SearchSpace(num_layers=3)),
        tiny_graph,
        train_config=TrainConfig(epochs=10, patience=10),
        hidden_dim=8,
        seed=seed,
    )


def record_key(record):
    return (record.indices, record.val_score, record.test_score)


class TestRunSaneAcrossWorkerCounts:
    def test_workers_two_matches_inline(self, tiny_graph):
        scale = small_scale()
        inline = run_sane(tiny_graph, scale, seed=3, workers=0)
        with WorkerPool(workers=2) as pool:
            fanned = run_sane(tiny_graph, scale, seed=3, pool=pool)
        assert fanned.architecture == inline.architecture
        assert fanned.val_scores == inline.val_scores
        assert fanned.test_scores == inline.test_scores
        assert [r.architecture for r in fanned.search_results] == [
            r.architecture for r in inline.search_results
        ]


class TestEvaluatorBatchAcrossWorkerCounts:
    def test_random_search_bit_identical(self, tiny_graph):
        sequential = random_search(evaluator_for(tiny_graph), 4, seed=1)
        with WorkerPool(workers=2) as pool:
            parallel = random_search(
                evaluator_for(tiny_graph), 4, seed=1, pool=pool
            )
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in sequential.records
        ]
        assert record_key(parallel.best) == record_key(sequential.best)

    def test_tpe_batched_rounds_bit_identical(self, tiny_graph):
        sequential = tpe_search(
            evaluator_for(tiny_graph), 4, seed=2, batch=2
        )
        with WorkerPool(workers=2) as pool:
            parallel = tpe_search(
                evaluator_for(tiny_graph), 4, seed=2, batch=2, pool=pool
            )
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in sequential.records
        ]

    def test_graphnas_rollout_batch_bit_identical(self, tiny_graph):
        sequential = graphnas_search(
            evaluator_for(tiny_graph), 4, seed=4,
            num_final_samples=2, rollout_batch=2,
        )
        with WorkerPool(workers=2) as pool:
            parallel = graphnas_search(
                evaluator_for(tiny_graph), 4, seed=4,
                num_final_samples=2, rollout_batch=2, pool=pool,
            )
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in sequential.records
        ]
        assert record_key(parallel.best) == record_key(sequential.best)

    def test_largest_tape_dispatches_first(self, tiny_graph, monkeypatch):
        # Three candidates on two workers; the LSTM layer aggregator
        # over IDENTITY skips records the largest tape and comes last.
        space = sane_decision_space(SearchSpace(num_layers=3))
        choices = [decision.choices for decision in space.decisions]

        def pick(*names):
            return tuple(c.index(name) for c, name in zip(choices, names))

        batch = [
            pick("gcn", "gcn", "gcn", "zero", "zero", "zero", "concat"),
            pick("sage-sum", "gcn", "gin", "identity", "zero", "zero", "max"),
            pick("gat", "gat", "gat", "identity", "identity", "identity", "lstm"),
        ]
        inline = evaluator_for(tiny_graph).evaluate_batch(batch)
        dispatched = []
        with WorkerPool(workers=2) as pool:
            run = pool.run

            def spy(jobs):
                dispatched.append([job.job_id for job in jobs])
                return run(jobs)

            monkeypatch.setattr(pool, "run", spy)
            pooled = evaluator_for(tiny_graph).evaluate_batch(batch, pool=pool)
        assert dispatched[0][0] == 2
        assert sorted(dispatched[0]) == [0, 1, 2]
        assert [record_key(r) for r in pooled] == [
            record_key(r) for r in inline
        ]
        assert [r.indices for r in pooled] == batch

    def test_rollout_batch_one_matches_classic_sequential(self, tiny_graph):
        # rollout_batch=1 must be the pre-batching algorithm exactly.
        classic = graphnas_search(
            evaluator_for(tiny_graph), 3, seed=5, num_final_samples=2
        )
        batched = graphnas_search(
            evaluator_for(tiny_graph), 3, seed=5, num_final_samples=2,
            rollout_batch=1,
        )
        assert [record_key(r) for r in batched.records] == [
            record_key(r) for r in classic.records
        ]


class TestSweepDigest:
    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_digest_identical_across_worker_counts(self, backend):
        # Workers always run the planned kernels; under "naive" the
        # inline run uses the test oracle, so the digests also cross-check
        # oracle against planned kernels end to end.
        scale = small_scale(search_seeds=1, repeats=1, nas_candidates=2)
        with kernel_path(backend):
            inline = run_sweep(
                ["cora"], scale, seed=0, methods=("random",), workers=0
            )
            fanned = run_sweep(
                ["cora"], scale, seed=0, methods=("random",), workers=2
            )
        assert inline.digest() == fanned.digest()
        assert inline.cells[0].test_scores == fanned.cells[0].test_scores

    def test_digest_changes_with_seed(self):
        scale = small_scale(search_seeds=1, repeats=1, nas_candidates=2)
        a = run_sweep(["cora"], scale, seed=0, methods=("random",))
        b = run_sweep(["cora"], scale, seed=1, methods=("random",))
        assert a.digest() != b.digest()
