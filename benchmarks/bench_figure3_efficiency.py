"""Benchmark: regenerate Figure 3 (test score vs. search time).

Shape assertions, scaled to the candidate budget: the SANE anytime
curve finishes earlier on the time axis than every trial-and-error
trajectory while reaching a comparable final score — the "orders of
magnitude" efficiency picture of the paper. The full ordering only
holds near the paper's 200-candidate budget (the ``full`` preset): at
``default``'s 6-candidate budget the supernet's constant cost is not
amortised on the small graphs (a 6-draw random search legitimately
finishes first there — measured in ``benchmarks/baselines/default/``),
but on the largest dataset (ppi) each trial-and-error candidate pays
a full training run and SANE's curve already ends first, so
``default`` asserts that. ``smoke`` asserts the structural shape of
the trajectories only and records the end times for inspection.
``REPRO_BENCH_WORKERS=N`` fans the 16 cells over the parallel runner.
"""

from repro.experiments import run_figure3

from common import bench_scale, bench_workers, show, tracked_run

DATASETS = ("cora", "citeseer", "pubmed", "ppi")


def test_figure3_efficiency_trajectories(benchmark):
    scale = bench_scale()
    workers = bench_workers()
    with tracked_run("figure3_efficiency") as run:
        result = benchmark.pedantic(
            lambda: run_figure3(scale, datasets=DATASETS, workers=workers),
            rounds=1,
            iterations=1,
        )
        run.extra["workers"] = workers
        for dataset in DATASETS:
            for method, score in result.final_scores(dataset).items():
                run.metrics.gauge(f"final_score.{method}.{dataset}").set(score)
            run.extra.setdefault("end_time_s", {})[dataset] = {
                method: traj[-1][0]
                for method, traj in result.trajectories[dataset].items()
            }
    show("Figure 3 — score vs search time", result.render())

    # Structural shape (every scale): non-empty trajectories with
    # monotonically increasing time stamps and scores in [0, 1].
    for dataset in DATASETS:
        for method, trajectory in result.trajectories[dataset].items():
            assert trajectory, f"{dataset}/{method}: empty trajectory"
            times = [t for t, __ in trajectory]
            assert times == sorted(times), f"{dataset}/{method}: time not monotone"
            assert all(0.0 <= s <= 1.0 for __, s in trajectory)
    if scale.name == "smoke":
        return

    # Largest-dataset ordering (default and up): SANE's anytime curve
    # on ppi ends before every trial-and-error trajectory. Since dead
    # layers stopped being trained, candidate training is cheap enough
    # that random search (2.2 s against SANE's 2.7 s) and TPE finish
    # ppi first and this assertion fails at `default`; whether
    # `default` can make the claim at all is open (ROADMAP.md item 2).
    ppi = result.trajectories["ppi"]
    sane_end = ppi["sane"][-1][0]
    for method in ("random", "bayesian", "graphnas"):
        assert ppi[method][-1][0] > sane_end, (
            f"ppi: {method} finished at {ppi[method][-1][0]:.1f}s, "
            f"sane at {sane_end:.1f}s"
        )
    if scale.name != "full":
        return

    # Aggregate ordering (paper budget only): summed over datasets,
    # each trial-and-error trajectory ends later than SANE's.
    sane_total = sum(
        result.trajectories[ds]["sane"][-1][0] for ds in DATASETS
    )
    for method in ("random", "bayesian", "graphnas"):
        other_total = sum(
            result.trajectories[ds][method][-1][0] for ds in DATASETS
        )
        assert other_total > sane_total, (
            f"{method} trajectories end at {other_total:.1f}s total, "
            f"sane at {sane_total:.1f}s"
        )

    # Per-dataset ordering and a competitive final score.
    for dataset in DATASETS:
        methods = result.trajectories[dataset]
        sane_end = methods["sane"][-1][0]
        for method in ("random", "bayesian", "graphnas"):
            other_end = methods[method][-1][0]
            assert other_end > sane_end, (
                f"{dataset}: {method} finished at {other_end:.1f}s, "
                f"sane at {sane_end:.1f}s"
            )
        # SANE's final score is competitive with the best baseline.
        finals = result.final_scores(dataset)
        best_other = max(v for k, v in finals.items() if k != "sane")
        assert finals["sane"] >= best_other - 0.07, (
            f"{dataset}: sane={finals['sane']:.3f} vs {best_other:.3f}"
        )
