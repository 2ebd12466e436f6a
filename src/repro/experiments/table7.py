"""Table VII: search wall-clock time of each NAS method.

The paper measures the clock time to run each search once with a
fixed exploration budget (200 supernet epochs for SANE, 200 candidate
evaluations for Random/Bayesian/GraphNAS) and reports SANE two orders
of magnitude faster. We use ``scale.nas_candidates`` /
``scale.search_epochs`` as the budgets; the expected *shape* is the
large multiplicative gap, not the absolute seconds.

Each (dataset, method) cell is an independent :class:`SearchJob` —
``workers > 1`` times the cells concurrently (each cell's clock still
measures only its own search, so the reported seconds are comparable
to the sequential run's).
"""

from __future__ import annotations

import dataclasses

from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.experiments.config import Scale
from repro.experiments.results import render_table
from repro.experiments.runners import search_nas_method
from repro.graph.datasets import load_dataset
from repro.nas.encoding import sane_decision_space
from repro.parallel import SearchJob, WorkerPool

__all__ = ["Table7Result", "run_table7"]

_METHODS = ("random", "bayesian", "graphnas", "sane")


@dataclasses.dataclass
class Table7Result:
    # method -> dataset -> seconds
    times: dict[str, dict[str, float]]

    def speedup(self, dataset: str) -> float:
        """Slowest trial-and-error method over SANE, per dataset."""
        others = [
            seconds
            for method, by_dataset in self.times.items()
            if method != "sane"
            for ds, seconds in by_dataset.items()
            if ds == dataset
        ]
        return max(others) / self.times["sane"][dataset]

    def render(self) -> str:
        datasets = list(next(iter(self.times.values())))
        rows = [
            [method] + [f"{by_ds[ds]:.1f}" for ds in datasets]
            for method, by_ds in self.times.items()
        ]
        return render_table(
            ["method"] + datasets,
            rows,
            title="Table VII — search time (seconds) per method",
        )


def _table7_cell(method: str, dataset: str, scale: Scale, seed: int) -> float:
    """Time one search of ``method`` on ``dataset``; the cell job body.

    Seed assignments are the table's original ones: the random/TPE/
    GraphNAS evaluators get ``seed``/``seed + 1``/``seed + 2``, the
    samplers and SANE get ``seed``.
    """
    data = load_dataset(dataset, seed=seed, scale=scale.dataset_scale)
    space = SearchSpace(num_layers=3)
    if method == "sane":
        searcher = SaneSearcher(
            space,
            data,
            SearchConfig(
                epochs=scale.search_epochs, hidden_dim=scale.search_hidden_dim
            ),
            seed=seed,
        )
        return float(searcher.search().search_time)

    evaluator_seed = {"random": seed, "bayesian": seed + 1, "graphnas": seed + 2}
    outcome = search_nas_method(
        method,
        data,
        scale,
        sane_decision_space(space),
        seed=seed,
        evaluator_seed=evaluator_seed[method],
    )
    return float(outcome.search_time)


def run_table7(
    scale: Scale,
    datasets: tuple[str, ...] = ("cora", "citeseer", "pubmed", "ppi"),
    seed: int = 0,
    workers: int = 0,
) -> Table7Result:
    """Time one search run of every method on every dataset."""
    cells = [
        (method, dataset)
        for dataset in datasets
        for method in _METHODS
    ]
    with WorkerPool(workers=workers) as pool:
        seconds = pool.run(
            SearchJob(
                job_id=position,
                fn="repro.experiments.table7:_table7_cell",
                kwargs=dict(
                    method=method, dataset=dataset, scale=scale, seed=seed
                ),
                tag=f"table7-{dataset}-{method}",
            )
            for position, (method, dataset) in enumerate(cells)
        )
    times: dict[str, dict[str, float]] = {m: {} for m in _METHODS}
    for (method, dataset), cell_seconds in zip(cells, seconds):
        times[method][dataset] = cell_seconds
    return Table7Result(times=times)
