"""Figure 3: test accuracy versus search time (log10 seconds).

For the trial-and-error methods the trajectory is "best-so-far test
score after each candidate evaluation"; for SANE we replay the alpha
snapshots at a few checkpoints, derive the architecture each snapshot
implies and retrain it — giving the anytime curve of the one-shot
search. Expected shape: the SANE curve reaches its plateau one to two
orders of magnitude earlier on the time axis.

Each (dataset, method) curve is an independent :class:`SearchJob`, so
``workers > 1`` regenerates the figure's cells concurrently.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.derive import retrain
from repro.core.search import SaneSearcher, SearchConfig, derive_from_alphas
from repro.core.search_space import SearchSpace
from repro.experiments.config import Scale
from repro.experiments.results import render_table
from repro.experiments.runners import search_nas_method, task_settings
from repro.graph.datasets import load_dataset
from repro.nas.encoding import sane_decision_space
from repro.parallel import SearchJob, WorkerPool

__all__ = ["Figure3Result", "run_figure3"]


@dataclasses.dataclass
class Figure3Result:
    # dataset -> method -> [(seconds, best test so far)]
    trajectories: dict[str, dict[str, list[tuple[float, float]]]]

    def final_scores(self, dataset: str) -> dict[str, float]:
        return {
            method: series[-1][1]
            for method, series in self.trajectories[dataset].items()
            if series
        }

    def render(self) -> str:
        parts = ["Figure 3 — test score vs. search time (log10 s)"]
        for dataset, methods in self.trajectories.items():
            parts.append(f"\n[{dataset}]")
            rows = []
            for method, series in methods.items():
                points = "  ".join(
                    f"({np.log10(max(t, 1e-3)):.2f}, {score:.3f})"
                    for t, score in series
                )
                rows.append([method, points])
            parts.append(render_table(["method", "(log10 t, score) series"], rows))
        return "\n".join(parts)


def _figure3_cell(
    method: str,
    dataset: str,
    scale: Scale,
    seed: int,
    num_sane_checkpoints: int = 4,
) -> list[tuple[float, float]]:
    """One Figure 3 curve — the (dataset, method) cell job body.

    Every evaluator, sampler and searcher is seeded ``seed``, as in
    the original sequential loop.
    """
    data = load_dataset(dataset, seed=seed, scale=scale.dataset_scale)
    settings = task_settings(data, scale)
    space = SearchSpace(num_layers=3)

    if method != "sane":
        outcome = search_nas_method(
            method, data, scale, sane_decision_space(space), seed=seed
        )
        return [(float(t), float(s)) for t, s in outcome.trajectory]

    # SANE anytime curve: derive + retrain at alpha checkpoints.
    searcher = SaneSearcher(
        space,
        data,
        SearchConfig(
            epochs=scale.search_epochs, hidden_dim=scale.search_hidden_dim
        ),
        seed=seed,
    )
    result = searcher.search()
    epochs = len(result.alpha_snapshots)
    checkpoints = sorted(
        {
            max(0, round(epochs * fraction) - 1)
            for fraction in np.linspace(
                1.0 / num_sane_checkpoints, 1.0, num_sane_checkpoints
            )
        }
    )
    series = []
    rng = np.random.default_rng(seed)
    for checkpoint in checkpoints:
        arch = derive_from_alphas(space, result.alpha_snapshots[checkpoint], rng)
        probe = retrain(
            arch,
            data,
            seed=seed,
            hidden_dim=scale.hidden_dim,
            dropout=settings.dropout,
            activation=settings.activation,
            train_config=settings.train_config,
        )
        elapsed = result.history[checkpoint][0]
        series.append((float(elapsed), float(probe.test_score)))
    return series


def run_figure3(
    scale: Scale,
    datasets: tuple[str, ...] = ("cora", "citeseer", "pubmed", "ppi"),
    seed: int = 0,
    num_sane_checkpoints: int = 4,
    workers: int = 0,
) -> Figure3Result:
    """Regenerate the Figure 3 trajectories."""
    methods = ("random", "bayesian", "graphnas", "sane")
    cells = [
        (method, dataset) for dataset in datasets for method in methods
    ]
    with WorkerPool(workers=workers) as pool:
        curves = pool.run(
            SearchJob(
                job_id=position,
                fn="repro.experiments.figure3:_figure3_cell",
                kwargs=dict(
                    method=method,
                    dataset=dataset,
                    scale=scale,
                    seed=seed,
                    num_sane_checkpoints=num_sane_checkpoints,
                ),
                tag=f"figure3-{dataset}-{method}",
            )
            for position, (method, dataset) in enumerate(cells)
        )
    trajectories: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for (method, dataset), series in zip(cells, curves):
        trajectories.setdefault(dataset, {})[method] = [
            (t, s) for t, s in series
        ]
    return Figure3Result(trajectories=trajectories)
