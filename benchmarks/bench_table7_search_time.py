"""Benchmark: regenerate Table VII (search wall-clock per method).

Shape assertion, scaled to the candidate budget: the paper's claim —
one-shot SANE search is orders of magnitude faster than every
trial-and-error method — holds at its 200-candidate budget. The
``full`` preset approximates that budget, so the full ordering claims
are asserted there. ``default`` runs a 6-candidate budget where the
supernet's constant cost is not amortised on the small graphs (a
6-draw random search legitimately finishes first on cora/citeseer/
pubmed — measured in ``benchmarks/baselines/default/``), but on the
largest dataset (ppi, where each trial-and-error candidate pays a
full expensive training run) SANE already wins — so ``default``
asserts the ordering there. ``smoke`` runs seconds-long searches that
are pure constant overhead and asserts structural facts only.
``REPRO_BENCH_WORKERS=N`` fans the 16 cells over the parallel runner.
"""

from repro.experiments import run_table7

from common import bench_scale, bench_workers, show, tracked_run

DATASETS = ("cora", "citeseer", "pubmed", "ppi")


def test_table7_search_time(benchmark):
    scale = bench_scale()
    workers = bench_workers()
    with tracked_run("table7_search_time") as run:
        result = benchmark.pedantic(
            lambda: run_table7(scale, datasets=DATASETS, workers=workers),
            rounds=1,
            iterations=1,
        )
        run.extra["workers"] = workers
        for method, times in result.times.items():
            for dataset, seconds in times.items():
                run.metrics.gauge(f"search_time_s.{method}.{dataset}").set(seconds)
        for dataset in DATASETS:
            run.metrics.gauge(f"speedup.{dataset}").set(result.speedup(dataset))
    show("Table VII — search time (seconds)", result.render())

    # Structural shape (every scale): every method timed on every
    # dataset, all times and speedups positive and finite.
    for method in ("sane", "random", "bayesian", "graphnas"):
        for dataset in DATASETS:
            assert result.times[method][dataset] > 0.0
    speedups = [result.speedup(ds) for ds in DATASETS]
    assert all(s > 0.0 for s in speedups)
    if scale.name == "smoke":
        return

    # Largest-dataset ordering (default and up): on ppi every
    # trial-and-error candidate pays a full training run, so SANE's
    # constant supernet cost amortises even at the 6-candidate budget.
    # Measured margin before dead layers were skipped: 1.39-1.80x in
    # SANE's favour. With them skipped random search can finish ppi
    # first and this assertion fails at `default`; whether `default`
    # can make the claim at all is open (ROADMAP.md item 2).
    sane_ppi = result.times["sane"]["ppi"]
    for method in ("random", "bayesian", "graphnas"):
        assert result.times[method]["ppi"] > sane_ppi, (
            f"ppi: {method}={result.times[method]['ppi']:.1f}s not slower "
            f"than sane={sane_ppi:.1f}s"
        )
    assert result.speedup("ppi") > 1.2
    if scale.name != "full":
        return

    # Aggregate ordering (paper budget only): summed over datasets,
    # each trial-and-error method costs more wall-clock than SANE.
    sane_total = sum(result.times["sane"].values())
    for method in ("random", "bayesian", "graphnas"):
        other_total = sum(result.times[method].values())
        assert other_total > sane_total, (
            f"{method} total {other_total:.1f}s not slower than "
            f"sane total {sane_total:.1f}s"
        )

    # Per-dataset ordering: strictly faster on every dataset, by a
    # substantial factor.
    for dataset in DATASETS:
        sane = result.times["sane"][dataset]
        for method in ("random", "bayesian", "graphnas"):
            other = result.times[method][dataset]
            assert other > sane, (
                f"{dataset}: {method}={other:.1f}s not slower than sane={sane:.1f}s"
            )
    assert min(speedups) > 1.5
    assert max(speedups) > 3.0
