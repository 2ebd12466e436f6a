"""Tree-structured Parzen Estimator — the "Bayesian" baseline.

The paper uses hyperopt (Bergstra et al., NeurIPS 2011) as its
Bayesian-optimisation NAS baseline; hyperopt is unavailable offline,
so this module implements TPE for categorical decision spaces from
scratch:

1. split past observations into *good* (top ``gamma`` quantile by
   validation score) and *bad*;
2. per decision, fit add-one-smoothed categorical densities ``l(x)``
   (good) and ``g(x)`` (bad);
3. draw candidates from ``l`` and keep the one maximising the
   expected-improvement proxy ``l(x) / g(x)``.
"""

from __future__ import annotations

import numpy as np

from repro.nas.encoding import DecisionSpace
from repro.nas.evaluation import ArchitectureEvaluator
from repro.nas.random_search import SearchOutcome

__all__ = ["TPESampler", "tpe_search"]


class TPESampler:
    """Categorical TPE proposal engine over a :class:`DecisionSpace`."""

    def __init__(
        self,
        space: DecisionSpace,
        rng: np.random.Generator,
        gamma: float = 0.25,
        num_startup: int = 5,
        num_ei_candidates: int = 24,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.space = space
        self.gamma = gamma
        self.num_startup = num_startup
        self.num_ei_candidates = num_ei_candidates
        self._rng = rng
        self._observations: list[tuple[tuple[int, ...], float]] = []

    def observe(self, indices: tuple[int, ...], score: float) -> None:
        self._observations.append((tuple(indices), float(score)))

    def propose(self) -> tuple[int, ...]:
        """Next candidate: random during startup, EI-maximising after."""
        if len(self._observations) < self.num_startup:
            return self.space.sample_indices(self._rng)
        good, bad = self._partition()
        good_probs = self._densities(good)
        bad_probs = self._densities(bad)

        best_indices = None
        best_ratio = -np.inf
        for __ in range(self.num_ei_candidates):
            candidate = tuple(
                int(self._rng.choice(len(probs), p=probs)) for probs in good_probs
            )
            ratio = self._log_ratio(candidate, good_probs, bad_probs)
            if ratio > best_ratio:
                best_ratio = ratio
                best_indices = candidate
        return best_indices

    # ------------------------------------------------------------------
    def _partition(self):
        ranked = sorted(self._observations, key=lambda ob: -ob[1])
        n_good = max(1, int(np.ceil(self.gamma * len(ranked))))
        good = [indices for indices, __ in ranked[:n_good]]
        bad = [indices for indices, __ in ranked[n_good:]] or good
        return good, bad

    def _densities(self, observations: list[tuple[int, ...]]) -> list[np.ndarray]:
        """Per-decision smoothed categorical distributions."""
        densities = []
        for position in range(len(self.space)):
            k = self.space.num_choices(position)
            counts = np.ones(k, dtype=np.float64)  # add-one smoothing
            for indices in observations:
                counts[indices[position]] += 1.0
            densities.append(counts / counts.sum())
        return densities

    @staticmethod
    def _log_ratio(indices, good_probs, bad_probs) -> float:
        log_l = sum(np.log(p[i]) for p, i in zip(good_probs, indices))
        log_g = sum(np.log(p[i]) for p, i in zip(bad_probs, indices))
        return log_l - log_g


def tpe_search(
    evaluator: ArchitectureEvaluator,
    num_candidates: int,
    seed: int = 0,
    gamma: float = 0.25,
    batch: int = 1,
    pool=None,
) -> SearchOutcome:
    """Sequential model-based search with TPE proposals.

    ``batch > 1`` proposes that many candidates per round from the
    *same* posterior, evaluates them together (through ``pool`` when
    given), and feeds all observations back before the next round —
    standard synchronous batched BO. ``batch=1`` is exactly the
    classic sequential loop regardless of ``pool``.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    rng = np.random.default_rng(seed)
    sampler = TPESampler(evaluator.space, rng, gamma=gamma)
    remaining = num_candidates
    while remaining > 0:
        width = min(batch, remaining)
        remaining -= width
        proposals = [sampler.propose() for __ in range(width)]
        for indices, record in zip(
            proposals, evaluator.evaluate_batch(proposals, pool=pool)
        ):
            sampler.observe(indices, record.val_score)
    records = evaluator.records
    return SearchOutcome(
        best=evaluator.best_record,
        records=list(records),
        trajectory=evaluator.trajectory(),
        search_time=records[-1].elapsed if records else 0.0,
    )
