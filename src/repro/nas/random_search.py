"""Random search baseline (Bergstra & Bengio 2012) — "Random" in Table VI.

Uniformly samples candidates from the decision space, trains each till
convergence, and keeps the best by validation score — the simplest
trial-and-error NAS loop and the reference point for search-cost
comparisons (Table VII).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nas.evaluation import ArchitectureEvaluator, EvaluationRecord

__all__ = ["SearchOutcome", "random_search"]


@dataclasses.dataclass
class SearchOutcome:
    """Common result type for all trial-and-error searchers."""

    best: EvaluationRecord
    records: list[EvaluationRecord]
    trajectory: list[tuple[float, float]]
    search_time: float

    def decode(self, space):
        return space.decode(self.best.indices)


def random_search(
    evaluator: ArchitectureEvaluator,
    num_candidates: int,
    seed: int = 0,
    pool=None,
) -> SearchOutcome:
    """Evaluate ``num_candidates`` uniform samples; return the best.

    Exact repeats are skipped (retrying up to 20 times), which matters
    in small spaces like Table X's MLP grid.

    Random search has no feedback loop, so the whole candidate list is
    drawn up front (the exact RNG draw sequence of the sequential
    loop) and handed to ``evaluator.evaluate_batch`` — with a
    :class:`repro.parallel.WorkerPool` every candidate trains
    concurrently, and the outcome is bit-identical either way.
    """
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    batch: list[tuple[int, ...]] = []
    for __ in range(num_candidates):
        indices = evaluator.space.sample_indices(rng)
        for __retry in range(20):
            if indices not in seen:
                break
            indices = evaluator.space.sample_indices(rng)
        seen.add(indices)
        batch.append(indices)
    evaluator.evaluate_batch(batch, pool=pool)
    records = evaluator.records
    return SearchOutcome(
        best=evaluator.best_record,
        records=list(records),
        trajectory=evaluator.trajectory(),
        search_time=records[-1].elapsed if records else 0.0,
    )
