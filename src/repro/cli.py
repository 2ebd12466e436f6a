"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``            print the Table IV/V dataset statistics
``search``           run SANE on one dataset, print the architecture
``sweep``            multi-dataset/method search sweep on a worker pool
``baseline``         train a named human baseline on one dataset
``table``            regenerate a paper table (6/7/8/9/10)
``figure``           regenerate a paper figure (2/3/4a/4b)
``lint``             static analysis of repo invariants (repro.analysis)
``profile``          run search/baseline under the profiler (repro.obs)
``report``           render telemetry dashboards and the bench gate
``export``           train a model and bundle it as a servable artifact
``serve``            serve an exported artifact (demo or load bench)
``runs``             run-ledger history, lineage, and the trend gate

Every command except the read-only ``report`` and ``runs`` appends one
provenance manifest to the run ledger
(``benchmarks/history/runs.jsonl``; directory overridable via
``REPRO_HISTORY_DIR``, recording disabled with
``REPRO_RUN_LEDGER=off``). :func:`main` records it, so no handler can
forget to.

All commands take ``--scale smoke|default|full`` (default: value of
``REPRO_SCALE`` or ``default``) and ``--seed``, accepted both before
and after the subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from repro.analysis import lint_paths, lint_roots, render_json, render_text
from repro.autograd import kernels
from repro.obs import ProfileSession, record_events, render_diff, render_run
from repro.obs.health import MODES, HealthMonitor, NumericsAnomaly
from repro.obs.memory import render_memory_report_file
from repro.obs.bench_gate import compare_bench, load_bench, render_bench_diff
from repro.obs.metrics import MetricsRegistry
from repro.obs.runs import (
    RunLedger,
    RunManifest,
    build_manifest,
    env_fingerprint,
    record_run,
    text_digest,
)
from repro.obs.runs_report import (
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    render_run_show,
    render_runs_diff,
    render_runs_list,
    render_trend,
)
from repro.experiments import (
    SCALES,
    run_figure2,
    run_figure3,
    run_figure4a,
    run_figure4b,
    run_human_baseline,
    run_sane,
    run_table4,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
    run_table10,
)
from repro.gnn.models import BASELINE_NAMES
from repro.graph.datasets import ALL_DATASETS, load_dataset
from repro.parallel.sweep import SWEEP_METHODS, run_sweep
from repro.obs import (
    InMemorySink,
    JsonlSink,
    MetricsExporter,
    MetricsSnapshotter,
    get_tracer,
    render_serve_report,
)
from repro.serve import (
    ArtifactError,
    InferenceEngine,
    ServeServer,
    emit_serve_bench,
    export_alignment,
    export_baseline,
    export_search,
    load_artifact,
    render_load_report,
    run_load,
    save_artifact,
    sweep_levels,
)
from repro.train.metrics import format_mean_std

__all__ = ["build_parser", "main"]

# `repro table N` / `repro figure N` runners. `--datasets` and
# `--workers` reach a runner only if its signature takes them.
_RUNNERS = {
    "table": {
        "4": run_table4,
        "6": run_table6,
        "7": run_table7,
        "8": run_table8,
        "9": run_table9,
        "10": run_table10,
    },
    "figure": {
        "2": run_figure2,
        "3": run_figure3,
        "4a": run_figure4a,
        "4b": run_figure4b,
    },
}
# Every name `run_human_baseline` trains. `export baseline lgcn` parses,
# then fails with its own ArtifactError.
_BASELINE_CHOICES = (*BASELINE_NAMES, "lgcn")


def _int_at_least(low: int):
    """An argparse ``type`` for ints no smaller than ``low``.

    A value below it exits 2 with a usage error rather than reaching a
    slice like ``entries[-last:]``, where a negative count means
    something else entirely.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common_options(*parsers) -> None:
    """Accept ``--scale``/``--seed`` after a subcommand too.

    SUPPRESS keeps an absent flag from clobbering the top-level value
    already parsed, so both positions work and the later one wins.
    """
    for sub in parsers:
        sub.add_argument(
            "--scale", choices=sorted(SCALES), default=argparse.SUPPRESS
        )
        sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SANE (ICDE 2021) reproduction command-line interface",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=os.environ.get("REPRO_SCALE", "default"),
        help="compute budget preset",
    )
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="dataset statistics (Tables IV/V)")

    search = commands.add_parser("search", help="run SANE on one dataset")
    search.add_argument("dataset", choices=ALL_DATASETS)
    search.add_argument("--layers", type=int, default=3)
    search.add_argument("--epsilon", type=float, default=0.0)
    search.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record search-dynamics telemetry to this events JSONL file",
    )
    search.add_argument(
        "--check-numerics",
        choices=MODES + ("off",),
        default="off",
        help="tape health monitor: 'raise' aborts on the first NaN/Inf "
        "with op/edge/layer/epoch provenance, 'warn' records anomalies "
        "and reports at the end, 'off' (default) installs nothing",
    )
    search.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for search seeds/probes/retrains "
        "(0/1 = in-process; any count yields identical results)",
    )

    sweep = commands.add_parser(
        "sweep", help="multi-dataset/method search sweep on a worker pool"
    )
    sweep.add_argument("datasets", nargs="+", choices=ALL_DATASETS)
    sweep.add_argument(
        "--methods",
        nargs="+",
        choices=SWEEP_METHODS,
        default=["sane", "random", "graphnas"],
        help="search methods per dataset (default: sane random graphnas)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes shared by every cell's job waves "
        "(0/1 = in-process; the digest is identical at any count)",
    )
    sweep.add_argument(
        "--rollout-batch",
        type=int,
        default=1,
        help="candidates per round for the adaptive methods (batched-BO "
        "semantics when > 1; 1 = the sequential algorithm)",
    )

    baseline = commands.add_parser("baseline", help="train a human baseline")
    baseline.add_argument(
        "name", choices=_BASELINE_CHOICES, metavar="name",
        help="e.g. gcn, gat-jk, lgcn",
    )
    baseline.add_argument("dataset", choices=ALL_DATASETS)

    renders = []
    for command, runners in _RUNNERS.items():
        render = commands.add_parser(command, help=f"regenerate a paper {command}")
        render.add_argument("number", choices=sorted(runners))
        render.add_argument(
            "--datasets", nargs="*", default=None,
            help="restrict to these datasets (every figure; tables 6, 7, 9, 10)",
        )
        render.add_argument(
            "--workers",
            type=int,
            default=0,
            help="worker processes for per-cell search jobs (table 7, figure 3)",
        )
        renders.append(render)

    lint = commands.add_parser(
        "lint",
        help="static analysis of the invariants no test executes (seeded "
        "RNG, numpy-only imports, package layering)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to lint (default: the repro package "
            "plus the checkout's tests/, benchmarks/, examples/ and "
            "scripts/ trees)"
        ),
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")

    profile = commands.add_parser(
        "profile",
        help="run a command under the observability layer and report hotspots",
    )
    profile.add_argument(
        "target", choices=("search", "baseline"), help="what to profile"
    )
    profile.add_argument("--dataset", choices=ALL_DATASETS, default="cora")
    profile.add_argument(
        "--name", default="gcn", choices=_BASELINE_CHOICES, metavar="NAME",
        help="baseline architecture (target=baseline)",
    )
    profile.add_argument("--layers", type=int, default=3)
    profile.add_argument("--epsilon", type=float, default=0.0)
    profile.add_argument(
        "--trace",
        default=None,
        help="trace JSONL path (default: trace-<target>-<dataset>.jsonl)",
    )
    profile.add_argument("--top", type=int, default=10, help="hotspot table size")
    profile.add_argument(
        "--no-autograd",
        action="store_true",
        help="skip per-op autograd profiling (spans only)",
    )
    profile.add_argument(
        "--events",
        action="store_true",
        help="interleave telemetry events into the trace file",
    )
    profile.add_argument(
        "--memory",
        action="store_true",
        help="track tape memory (live set, retained buffers) and append "
        "a memory_stats record to the trace",
    )

    report = commands.add_parser(
        "report", help="telemetry dashboards and the bench regression gate"
    )
    views = report.add_subparsers(dest="view", required=True)
    report_run = views.add_parser(
        "run", help="render one recorded run's search-dynamics dashboard"
    )
    report_run.add_argument("events", help="events/trace JSONL file")
    report_diff = views.add_parser(
        "diff", help="compare two recorded runs (genotype, curves, hotspots)"
    )
    report_diff.add_argument("a", help="events/trace JSONL file (baseline)")
    report_diff.add_argument("b", help="events/trace JSONL file (candidate)")
    report_memory = views.add_parser(
        "memory", help="render the tape-memory hotspot table from a trace"
    )
    report_memory.add_argument(
        "trace", help="trace JSONL recorded with `repro profile --memory`"
    )
    report_memory.add_argument(
        "--top", type=int, default=10, help="rows per hotspot table"
    )
    report_serve = views.add_parser(
        "serve",
        help="per-stage latency breakdown, queue timeline, and slowest-trace "
        "drilldown from a serve trace",
    )
    report_serve.add_argument(
        "trace", help="trace JSONL recorded with `repro serve --trace`"
    )
    report_serve.add_argument(
        "--top", type=int, default=5, help="slowest traces to drill into"
    )
    report_bench = views.add_parser(
        "bench", help="gate fresh BENCH_*.json files against committed baselines"
    )
    report_bench.add_argument(
        "files",
        nargs="*",
        help="fresh BENCH_<name>.json files (default: every baseline's "
        "counterpart in --bench-dir)",
    )
    report_bench.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of committed baseline BENCH_<name>.json files",
    )
    report_bench.add_argument(
        "--bench-dir",
        default=None,
        help="directory of fresh bench output (default: REPRO_BENCH_DIR or .)",
    )
    report_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="relative degradation allowed for score-like metrics",
    )
    report_bench.add_argument(
        "--time-tolerance",
        type=float,
        default=0.5,
        help="relative degradation allowed for wall-clock metrics",
    )
    report_bench.add_argument(
        "--abs-floor-ms",
        type=float,
        default=1.0,
        help="noise floor for seconds-valued metrics: when baseline and "
        "current are both below this many milliseconds, the delta never "
        "gates (sub-millisecond tails are timer jitter at smoke scale)",
    )

    export = commands.add_parser(
        "export", help="train a model and bundle it as a servable artifact"
    )
    targets = export.add_subparsers(dest="target", required=True)
    export_search_p = targets.add_parser(
        "search", help="run SANE, train the winning genotype, bundle it"
    )
    export_search_p.add_argument("dataset", choices=ALL_DATASETS)
    export_search_p.add_argument("--layers", type=int, default=3)
    export_search_p.add_argument("--epsilon", type=float, default=0.0)
    export_search_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: artifact-search-<dataset>.json)",
    )
    export_baseline_p = targets.add_parser(
        "baseline", help="train a human baseline and bundle it"
    )
    export_baseline_p.add_argument(
        "name", choices=_BASELINE_CHOICES, metavar="name", help="e.g. gcn, gat-jk"
    )
    export_baseline_p.add_argument("dataset", choices=ALL_DATASETS)
    export_baseline_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: artifact-baseline-<name>-<dataset>.json)",
    )
    export_kg_p = targets.add_parser(
        "kg", help="train an entity-alignment encoder and bundle it"
    )
    export_kg_p.add_argument(
        "--aggregators",
        nargs="+",
        default=["gat", "geniepath"],
        help="per-layer encoder aggregators (default: the paper's "
        "searched GAT-GeniePath)",
    )
    export_kg_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: artifact-kg.json)",
    )

    serve = commands.add_parser(
        "serve", help="serve an exported artifact (demo or load bench)"
    )
    serve.add_argument("artifact", help="artifact JSON from `repro export`")
    serve.add_argument(
        "--bench",
        action="store_true",
        help="run the concurrency sweep and emit BENCH_serve_throughput.json "
        "to REPRO_BENCH_DIR",
    )
    serve.add_argument(
        "--levels",
        nargs="+",
        type=int,
        default=None,
        help="concurrency levels to sweep (default: per-scale preset)",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests per concurrency level (default: per-scale preset)",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--workers", type=int, default=1)
    serve.add_argument(
        "--bench-name",
        default="serve_throughput",
        metavar="NAME",
        help="bench payload name: emits BENCH_<NAME>.json and gates "
        "against the baseline of the same name (default: serve_throughput)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record every request's span tree to this trace JSONL "
        "(render with `repro report serve`)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency SLO in milliseconds (accounting only: "
        "misses bump serve.deadline_exceeded, nothing is shed)",
    )
    serve.add_argument(
        "--export-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus-style /metrics scrape endpoint on this "
        "port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--export-snapshots",
        default=None,
        metavar="PATH",
        help="flush periodic metrics-registry snapshots to this JSONL file",
    )
    serve.add_argument(
        "--export-interval",
        type=float,
        default=0.5,
        help="seconds between snapshot flushes (default: 0.5)",
    )
    serve.add_argument(
        "--export-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="after the work finishes, keep the scrape endpoint alive "
        "until one scrape lands or this many seconds pass (CI scrapes "
        "a bench run this way)",
    )

    runs = commands.add_parser(
        "runs", help="run-ledger history, lineage, and the trend gate"
    )
    runs_views = runs.add_subparsers(dest="view", required=True)
    runs_list_p = runs_views.add_parser(
        "list", help="the run history table, oldest first"
    )
    runs_list_p.add_argument(
        "--last", type=_int_at_least(0), default=20,
        help="show only the newest N runs (0 = all)",
    )
    runs_list_p.add_argument(
        "--command",
        dest="filter_command",
        default=None,
        help="restrict to manifests of one command (search, serve, ...)",
    )
    runs_show_p = runs_views.add_parser(
        "show", help="one manifest in full, with lineage resolution"
    )
    runs_show_p.add_argument(
        "run",
        help="run-id prefix (latest append wins) or integer position "
        "(0 = oldest, -1 = newest)",
    )
    runs_diff_p = runs_views.add_parser(
        "diff", help="config/env drift and metric deltas between two runs"
    )
    runs_diff_p.add_argument("a", help="baseline run ref (id prefix or index)")
    runs_diff_p.add_argument("b", help="candidate run ref (id prefix or index)")
    runs_trend_p = runs_views.add_parser(
        "trend", help="metric history sparklines and the drift gate"
    )
    runs_trend_p.add_argument(
        "metrics", nargs="+", help="metric names, e.g. search.epoch_ms"
    )
    runs_trend_p.add_argument(
        "--gate",
        action="store_true",
        help="exit nonzero on sustained drift in the bad direction "
        "(or on a gated metric with no history)",
    )
    runs_trend_p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative drift allowed before the trailing window gates",
    )
    runs_trend_p.add_argument(
        "--window",
        type=_int_at_least(1),
        default=DEFAULT_WINDOW,
        help="longest trailing window compared against older history",
    )
    runs_trend_p.add_argument(
        "--last", type=_int_at_least(0), default=0,
        help="consider only the newest N points (0 = all)",
    )
    runs_trend_p.add_argument(
        "--command",
        dest="filter_command",
        default=None,
        help="read the metric only from manifests of this command",
    )
    runs_gc_p = runs_views.add_parser(
        "gc", help="truncate the ledger to the newest N manifests"
    )
    runs_gc_p.add_argument(
        "--keep", type=_int_at_least(0), default=200,
        help="manifests to retain",
    )
    for sub in (runs_list_p, runs_show_p, runs_diff_p, runs_trend_p, runs_gc_p):
        sub.add_argument(
            "--history",
            default=None,
            metavar="PATH",
            help="ledger file (default: <REPRO_HISTORY_DIR or "
            "benchmarks/history>/runs.jsonl)",
        )

    _add_common_options(
        stats, search, sweep, baseline, *renders, lint, profile,
        report, report_run, report_diff, report_memory, report_serve,
        report_bench,
        export, export_search_p, export_baseline_p, export_kg_p, serve,
        runs, runs_list_p, runs_show_p, runs_diff_p, runs_trend_p, runs_gc_p,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    The one place a run is recorded. Every command but the read-only
    ``report`` and ``runs`` appends exactly one manifest via
    :func:`repro.obs.runs.record_run`: the handler's fields, the env
    fingerprint of ``--scale``/``--seed``/``--workers`` and the whole
    command's ``duration_s``. A handler returns its exit code and its
    :func:`~repro.obs.runs.build_manifest` keywords (config, metrics or
    registry, outputs, files, children, lineage), or ``None`` on an
    error path, which records nothing. ``export`` returns a prebuilt
    manifest instead: the artifact it saves embeds the run id.
    """
    args = build_parser().parse_args(argv)
    read_only = {"report": _cmd_report, "runs": _cmd_runs}
    if args.command in read_only:
        # A ledger reader that wrote the ledger would pollute `runs list`.
        return read_only[args.command](args)

    clock = get_tracer().clock
    t0 = clock()
    scale = SCALES[args.scale]
    env = env_fingerprint(
        scale=args.scale, seed=args.seed, workers=getattr(args, "workers", 0)
    )
    if args.command == "export":
        code, manifest = _cmd_export(args, scale, env)
    else:
        handlers = {
            "stats": _cmd_stats,
            "search": _cmd_search,
            "sweep": _cmd_sweep,
            "baseline": _cmd_baseline,
            "table": _cmd_render,
            "figure": _cmd_render,
            "lint": _cmd_lint,
            "profile": _cmd_profile,
            "serve": _cmd_serve,
        }
        code, fields = handlers[args.command](args, scale)
        manifest = (
            None if fields is None
            else build_manifest(args.command, env=env, **fields)
        )
    if manifest is not None:
        manifest.duration_s = clock() - t0
        record_run(manifest=manifest)
    return code


def _cmd_lint(args, scale) -> tuple[int, dict | None]:
    """``repro lint``: static analysis of repo invariants."""
    paths = args.paths or lint_roots()
    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2, None
    render = render_json if args.format == "json" else render_text
    print(render(result))
    code = 1 if result.error_count else 0
    return code, dict(
        config={
            "paths": [str(p) for p in (args.paths or [])],
            "format": args.format,
        },
        outputs={
            "exit_code": code,
            "files": result.files,
            "errors": result.error_count,
            "warnings": result.warning_count,
        },
    )


def _cmd_stats(args, scale) -> tuple[int, dict | None]:
    """``repro stats``: the Table IV/V dataset statistics."""
    rendered = run_table4(scale, seed=args.seed).render()
    print(rendered)
    return 0, dict(
        config={"scale": args.scale},
        outputs={"render_sha256": text_digest(rendered)},
    )


def _cmd_search(args, scale) -> tuple[int, dict | None]:
    """``repro search``: run SANE on one dataset."""
    data = load_dataset(args.dataset, seed=args.seed, scale=scale.dataset_scale)
    monitor = None
    if args.check_numerics != "off":
        monitor = HealthMonitor(mode=args.check_numerics).install()
    try:
        with (
            record_events(args.events, label=f"search:{args.dataset}", spans=True)
            if args.events else contextlib.nullcontext()
        ):
            run = run_sane(
                data, scale, seed=args.seed,
                num_layers=args.layers, epsilon=args.epsilon,
                workers=args.workers,
            )
    except NumericsAnomaly as anomaly:
        print(f"repro search: numerics anomaly: {anomaly}", file=sys.stderr)
        return 3, None
    finally:
        if monitor is not None:
            monitor.uninstall()
    print(f"architecture: {run.architecture}")
    print(f"search time:  {run.search_time:.1f}s")
    print(f"test score:   {format_mean_std(run.test_scores)}")
    if monitor is not None:
        summary = monitor.summary()
        print(
            f"tape health:  {summary['checked_entries']} entries checked, "
            f"{len(summary['anomalies'])} anomalies, "
            f"{len(summary['dead_ops'])} dead-op sightings"
        )
        for entry in summary["anomalies"]:
            print(
                "  anomaly: "
                f"{entry['kind']} in {entry['phase']} of op={entry['op']!r}, "
                f"edge={entry['edge']!r}, layer={entry['layer']}, "
                f"epoch={entry['epoch']}"
            )
    if args.events:
        print(f"events:       {args.events} (render with `repro report run`)")
    return 0, dict(
        config={
            "dataset": args.dataset,
            "layers": args.layers,
            "epsilon": args.epsilon,
            "scale": args.scale,
        },
        metrics={
            "search.time_s": run.search_time,
            "search.epoch_ms": run.search_time
            / max(1, scale.search_epochs) * 1000.0,
            "search.test_score": float(np.mean(run.test_scores)),
        },
        outputs={
            "architecture": str(run.architecture),
            "test_scores": [float(s) for s in run.test_scores],
        },
        files=[args.events] if args.events else None,
    )


def _cmd_sweep(args, scale) -> tuple[int, dict | None]:
    """``repro sweep``: the (dataset, method) grid on a worker pool."""
    registry = MetricsRegistry()
    result = run_sweep(
        args.datasets,
        scale,
        seed=args.seed,
        methods=tuple(args.methods),
        workers=args.workers,
        rollout_batch=args.rollout_batch,
        metrics=registry,
    )
    print(result.render())
    # One manifest per sweep; the grid rides along as children so
    # `repro runs show` renders the whole (dataset, method) table.
    children = [
        {
            "dataset": cell.dataset,
            "method": cell.method,
            "test_mean": round(
                sum(cell.test_scores) / max(1, len(cell.test_scores)), 6
            ),
            "val_score": round(cell.val_score, 6),
            "best": cell.best,
            "search_s": round(cell.search_time, 3),
        }
        for cell in result.cells
    ]
    return 0, dict(
        config={
            "datasets": list(args.datasets),
            "methods": list(args.methods),
            "rollout_batch": args.rollout_batch,
            "scale": args.scale,
        },
        registry=registry,
        outputs={"digest": result.digest()},
        children=children,
    )


def _cmd_baseline(args, scale) -> tuple[int, dict | None]:
    """``repro baseline``: train a named human baseline."""
    data = load_dataset(args.dataset, seed=args.seed, scale=scale.dataset_scale)
    scores = run_human_baseline(args.name, data, scale, seed=args.seed)
    print(f"{args.name} on {args.dataset}: {format_mean_std(scores)}")
    return 0, dict(
        config={"name": args.name, "dataset": args.dataset, "scale": args.scale},
        metrics={"baseline.test_score": float(np.mean(scores))},
        outputs={"scores": [float(s) for s in scores]},
    )


def _cmd_render(args, scale) -> tuple[int, dict | None]:
    """``repro table`` / ``repro figure``: regenerate a paper result.

    A ``--datasets`` or ``--workers`` the runner does not take is an
    error, not a silently ignored flag.
    """
    runner = _RUNNERS[args.command][args.number]
    takes = inspect.signature(runner).parameters
    kwargs = {"seed": args.seed}
    for flag, value in (
        ("datasets", tuple(args.datasets or ())),
        ("workers", args.workers),
    ):
        if not value:
            continue
        if flag not in takes:
            print(
                f"repro {args.command}: error: --{flag} does not apply to "
                f"{args.command} {args.number}",
                file=sys.stderr,
            )
            return 2, None
        kwargs[flag] = value
    rendered = runner(scale, **kwargs).render()
    print(rendered)
    return 0, dict(
        config={
            "number": args.number,
            "datasets": list(args.datasets or []),
            "scale": args.scale,
        },
        outputs={"render_sha256": text_digest(rendered)},
    )


def _emit(text: str) -> None:
    """Print a rendered view; a reader that closed early ends it quietly."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed early (``| head``): point stdout at devnull
        # so the interpreter's exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _cmd_runs(args) -> int:
    """``repro runs``: history, lineage, and the trend gate."""
    ledger = RunLedger(args.history)
    if args.view == "gc":
        dropped = ledger.gc(args.keep)
        _emit(
            f"run ledger gc: kept newest {args.keep}, dropped {dropped} "
            f"entr{'y' if dropped == 1 else 'ies'} ({ledger.path})"
        )
        return 0
    manifests = ledger.read()

    if args.view == "list":
        _emit(
            render_runs_list(
                manifests, last=args.last, command=args.filter_command
            )
        )
        return 0

    if args.view == "show":
        hit = ledger.resolve(args.run, manifests)
        if hit is None:
            print(
                f"repro runs show: error: no run matching {args.run!r} "
                f"in {ledger.path}",
                file=sys.stderr,
            )
            return 2
        manifest, seq = hit
        producer = None
        producer_id = (manifest.lineage or {}).get("producer_run_id")
        if producer_id:
            parent = ledger.resolve(str(producer_id), manifests)
            producer = parent[0] if parent is not None else None
        _emit(render_run_show(manifest, seq=seq, producer=producer))
        return 0

    if args.view == "diff":
        hits = [ledger.resolve(ref, manifests) for ref in (args.a, args.b)]
        if None in hits:
            missing = args.a if hits[0] is None else args.b
            print(
                f"repro runs diff: error: no run matching {missing!r} "
                f"in {ledger.path}",
                file=sys.stderr,
            )
            return 2
        _emit(render_runs_diff(hits[0][0], hits[1][0]))
        return 0

    text, failed = render_trend(
        manifests,
        args.metrics,
        tolerance=args.tolerance,
        window=args.window,
        last=args.last,
        command=args.filter_command,
    )
    _emit(text)
    return 1 if (failed and args.gate) else 0


def _cmd_report(args) -> int:
    """``repro report``: run/diff dashboards and the bench gate."""
    renderers = {
        "run": lambda: render_run(args.events),
        "diff": lambda: render_diff(args.a, args.b),
        "memory": lambda: render_memory_report_file(args.trace, top=args.top),
        "serve": lambda: render_serve_report(args.trace, top=args.top),
    }
    if args.view not in renderers:
        return _run_report_bench(args)
    try:
        text = renderers[args.view]()
    except (OSError, ValueError) as exc:
        print(f"repro report {args.view}: error: {exc}", file=sys.stderr)
        return 2
    _emit(text)
    return 0


def _run_report_bench(args) -> int:
    """Gate fresh BENCH_*.json files against committed baselines."""
    baseline_dir = Path(args.baselines)
    bench_dir = Path(args.bench_dir or os.environ.get("REPRO_BENCH_DIR", "."))
    if not baseline_dir.is_dir():
        print(
            f"repro report bench: error: no baseline directory {baseline_dir}",
            file=sys.stderr,
        )
        return 2

    if args.files:
        # Explicit fresh files; each pairs with the same-named baseline.
        pairs = [(baseline_dir / Path(f).name, Path(f)) for f in args.files]
    else:
        pairs = [
            (base, bench_dir / base.name)
            for base in sorted(baseline_dir.glob("BENCH_*.json"))
        ]
        if not pairs:
            print(
                f"repro report bench: error: no BENCH_*.json baselines "
                f"in {baseline_dir}",
                file=sys.stderr,
            )
            return 2

    failed = False
    for baseline_path, fresh_path in pairs:
        name = fresh_path.name
        if not baseline_path.exists():
            print(f"== Bench {name}: no baseline ({baseline_path}) — skipped ==")
            print()
            continue
        baseline = load_bench(baseline_path)
        if not fresh_path.exists():
            print(
                f"== Bench {name}: REGRESSION (fresh results missing: "
                f"{fresh_path}) =="
            )
            print()
            failed = True
            continue
        current = load_bench(fresh_path)
        notes = []
        base_scale = baseline.get("scale")
        cur_scale = current.get("scale")
        if base_scale != cur_scale:
            notes.append(
                f"scale mismatch: baseline={base_scale!r} current={cur_scale!r}"
                " — deltas are not comparable"
            )
        deltas = compare_bench(
            baseline,
            current,
            tolerance=args.tolerance,
            time_tolerance=args.time_tolerance,
            abs_floor_s=args.abs_floor_ms / 1000.0,
        )
        print(render_bench_diff(name, deltas, notes=notes))
        print()
        if any(delta.gates for delta in deltas):
            failed = True
    return 1 if failed else 0


# Requests per concurrency level when `repro serve --bench` is not
# given an explicit --requests budget.
_SERVE_BENCH_REQUESTS = {"smoke": 64, "default": 256, "full": 2048}


def _cmd_export(
    args, scale, env: dict
) -> tuple[int, RunManifest | None]:
    """``repro export``: train a model and write its artifact bundle.

    The run id must exist *before* the artifact is saved so it can be
    embedded as provenance (hash-covered), which is what lets ``repro
    serve`` manifests point back at the producing run. The manifest is
    therefore built here — its id covers command/config/env/outputs,
    never the artifact hash — and returned with the final content hash
    attached, for :func:`main` to record.
    """
    try:
        if args.target == "search":
            artifact = export_search(
                args.dataset, scale, seed=args.seed,
                num_layers=args.layers, epsilon=args.epsilon,
            )
            default_out = f"artifact-search-{args.dataset}.json"
            config = {
                "target": "search", "dataset": args.dataset,
                "layers": args.layers, "epsilon": args.epsilon,
                "scale": args.scale,
            }
        elif args.target == "baseline":
            artifact = export_baseline(
                args.name, args.dataset, scale, seed=args.seed
            )
            default_out = f"artifact-baseline-{args.name}-{args.dataset}.json"
            config = {
                "target": "baseline", "name": args.name,
                "dataset": args.dataset, "scale": args.scale,
            }
        else:
            artifact = export_alignment(
                scale, seed=args.seed,
                node_aggregators=tuple(args.aggregators),
            )
            default_out = "artifact-kg.json"
            config = {
                "target": "kg", "aggregators": list(args.aggregators),
                "scale": args.scale,
            }
    except ArtifactError as exc:
        print(f"repro export: error: {exc}", file=sys.stderr)
        return 2, None
    manifest = build_manifest(
        "export",
        config,
        env=env,
        outputs={
            "target": args.target,
            "task": artifact.task,
            "genotype": str(artifact.genotype)
            if artifact.genotype is not None else None,
        },
    )
    artifact.provenance = {
        "run_id": manifest.run_id,
        "command": "export",
        "config_digest": manifest.config_digest,
    }
    path = save_artifact(artifact, args.out or default_out)
    payload = artifact.to_payload()
    print(f"artifact:  {path}")
    print(f"task:      {artifact.task}")
    if artifact.genotype is not None:
        print(f"genotype:  {artifact.architecture() or artifact.genotype}")
    for key, value in sorted(artifact.training.items()):
        print(f"{key + ':':<11}{value:.4f}" if isinstance(value, float)
              else f"{key + ':':<11}{value}")
    print(f"weights:   {len(artifact.weights)} tensors")
    print(f"hash:      {payload['content_hash']}")
    manifest.metrics = {
        f"export.{key}": float(value)
        for key, value in artifact.training.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    manifest.artifacts.append(
        {
            "role": "output",
            "path": str(path),
            "content_hash": payload["content_hash"],
        }
    )
    return 0, manifest


def _cmd_serve(args, scale) -> tuple[int, dict | None]:
    """``repro serve``: load an artifact, run demo traffic or the bench."""
    try:
        artifact = load_artifact(args.artifact)
        engine = InferenceEngine.from_artifact(artifact)
    except (OSError, ArtifactError) as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2, None
    print(f"artifact:  {args.artifact}")
    print(f"task:      {artifact.task}")
    if artifact.genotype is not None:
        print(f"genotype:  {artifact.architecture() or artifact.genotype}")

    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms else None
    trace_sink = None
    if args.trace:
        trace_sink = JsonlSink(
            args.trace, meta={"label": f"serve:{Path(args.artifact).name}"}
        )
    exporter = None
    if args.export_port is not None:
        # The provider closure reads live registry state on every
        # scrape; exemplars appear once finalize() has run.
        exporter = MetricsExporter(
            lambda: (engine.metrics.registry.snapshot(),
                     engine.metrics.exemplars),
            port=args.export_port,
        ).start()
        print(f"exporter:  {exporter.url}")
    snapshotter = None
    if args.export_snapshots:
        snapshotter = MetricsSnapshotter(
            engine.metrics.registry,
            args.export_snapshots,
            interval_s=args.export_interval,
            clock=get_tracer().clock,
        ).start()

    try:
        code = _serve_work(args, engine, artifact, deadline_s, trace_sink)
    finally:
        if snapshotter is not None:
            snapshotter.stop()
            snapshotter.close()
            print(f"snapshots: {args.export_snapshots} "
                  f"({snapshotter.flushes} flushes)")
        if exporter is not None:
            if args.export_linger > 0:
                exporter.wait_for_scrape(args.export_linger)
            exporter.stop()
        if trace_sink is not None:
            # The final registry snapshot rides in the trace so
            # `report serve` can render the SLO section.
            trace_sink.write_metrics(engine.metrics.registry)
            trace_sink.close()
            print(f"trace:     {args.trace} "
                  f"(render with `repro report serve`)")

    # Lineage: the artifact's embedded provenance (written by `repro
    # export`) resolves this serve run back to the producing run id.
    lineage = {
        "artifact": str(args.artifact),
        "content_hash": artifact.to_payload()["content_hash"],
    }
    provenance = artifact.provenance or {}
    if provenance.get("run_id"):
        lineage["producer_run_id"] = provenance["run_id"]
        if provenance.get("command"):
            lineage["producer_command"] = provenance["command"]
    return code, dict(
        config={
            "bench": bool(args.bench),
            "bench_name": args.bench_name if args.bench else None,
            "max_batch": args.max_batch,
            "scale": args.scale,
        },
        registry=engine.metrics.registry,
        outputs={"exit_code": code, "task": artifact.task},
        lineage=lineage,
        files=[args.trace] if args.trace else None,
    )


def _serve_work(args, engine, artifact, deadline_s, trace_sink) -> int:
    """The bench sweep or the one-shot demo, under attached sinks."""
    extra_sinks = (trace_sink,) if trace_sink is not None else ()

    if args.bench:
        levels = tuple(args.levels) if args.levels else sweep_levels(args.scale)
        budget = args.requests or _SERVE_BENCH_REQUESTS[args.scale]
        sink = InMemorySink()
        # Same kernel byte counters as benchmarks/common.py::tracked_run,
        # so the CLI payload carries every metric family the committed
        # baseline has (a family missing from a fresh run gates).
        counters = kernels.KernelCounters(clock=get_tracer().clock)
        with get_tracer().collect(sink, *extra_sinks), \
                kernels.count_kernels(counters):
            with ServeServer(
                engine, max_batch=args.max_batch, workers=args.workers
            ) as server:
                results = run_load(
                    server, levels, requests_per_level=budget,
                    seed=args.seed, deadline_s=deadline_s,
                )
        registry = engine.metrics.registry
        for kernel, stats in counters.snapshot().items():
            registry.gauge(f"kernel.{kernel}.bytes_moved").set(
                stats["bytes_moved"]
            )
            if stats["effective_gbps"] is not None:
                registry.gauge(f"kernel.{kernel}.effective_gbps").set(
                    stats["effective_gbps"]
                )
        engine.metrics.finalize(wall_s=sum(r.wall_s for r in results))
        bench_path = emit_serve_bench(
            args.bench_name,
            results,
            spans=sink.spans,
            registry=engine.metrics.registry,
            extra={
                "levels": [dataclasses.asdict(r) for r in results],
                "plan_cache": engine.plan_cache.stats(),
                "max_batch": args.max_batch,
                "workers": args.workers,
                "exemplars": dict(engine.metrics.exemplars),
            },
        )
        print()
        print(render_load_report(results))
        print()
        print(f"bench:     {bench_path}")
        return 0

    with get_tracer().collect(*extra_sinks):
        with ServeServer(
            engine, max_batch=args.max_batch, workers=args.workers
        ) as server:
            rng = np.random.default_rng(args.seed)
            ids = np.sort(
                rng.choice(
                    engine.num_targets,
                    size=min(8, engine.num_targets),
                    replace=False,
                )
            )
            predictions = server.submit(node_ids=ids, deadline_s=deadline_s)
    summary = engine.metrics.finalize()
    print(f"targets:   {ids.tolist()}")
    if artifact.task == "kg_alignment":
        top1 = np.argmax(predictions, axis=1)
        print(f"aligned:   {top1.tolist()} (top-1 kg2 entity per target)")
    else:
        classes = np.argmax(predictions, axis=1)
        print(f"classes:   {classes.tolist()}")
    if "p50_s" in summary:
        print(
            f"latency:   p50 {summary['p50_s'] * 1e3:.2f} ms, "
            f"p99 {summary['p99_s'] * 1e3:.2f} ms "
            f"({summary['requests']} request(s))"
        )
    slo = summary.get("slo", {})
    if slo.get("deadline_exceeded"):
        print(f"deadline:  {int(slo['deadline_exceeded'])} request(s) "
              f"exceeded {args.deadline_ms:.1f} ms")
    return 0


def _minor_faults() -> int | None:
    """This process's minor page faults so far (None without ``resource``)."""
    try:
        import resource
    except ImportError:  # not a Unix platform
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _cmd_profile(args, scale) -> tuple[int, dict | None]:
    """``repro profile``: wrap search/baseline in a ProfileSession."""
    trace_path = args.trace or f"trace-{args.target}-{args.dataset}.jsonl"
    data = load_dataset(args.dataset, seed=args.seed, scale=scale.dataset_scale)
    label = f"{args.target}:{args.dataset}"
    faults_before = _minor_faults()
    with ProfileSession(
        trace_path=trace_path,
        autograd=not args.no_autograd,
        label=label,
        events=args.events,
        memory=args.memory,
    ) as session:
        if args.target == "search":
            run = run_sane(
                data,
                scale,
                seed=args.seed,
                num_layers=args.layers,
                epsilon=args.epsilon,
            )
            headline = (
                f"architecture: {run.architecture}\n"
                f"search time:  {run.search_time:.1f}s\n"
                f"test score:   {format_mean_std(run.test_scores)}"
            )
            session.metrics.gauge("search_time_s").set(run.search_time)
            session.metrics.histogram("test_score").observe(
                float(sum(run.test_scores) / len(run.test_scores))
            )
        else:
            scores = run_human_baseline(args.name, data, scale, seed=args.seed)
            headline = f"{args.name} on {args.dataset}: {format_mean_std(scores)}"
            session.metrics.histogram("test_score").observe(
                float(sum(scores) / len(scores))
            )
        if faults_before is not None:
            # Pages the run faulted in afresh: what the allocator
            # policy (repro.autograd.tensor) keeps low.
            session.metrics.gauge("minor_faults").set(
                _minor_faults() - faults_before
            )
    print(headline)
    print()
    print(session.report(top=args.top))
    print()
    print(f"trace: {trace_path} ({session.duration:.1f}s profiled)")
    config = {
        "target": args.target, "dataset": args.dataset,
        "layers": args.layers, "epsilon": args.epsilon, "scale": args.scale,
    }
    if args.target == "baseline":
        config["name"] = args.name
    return 0, dict(
        config=config,
        metrics=session.metric_scalars(),
        files=[str(trace_path)],
    )


if __name__ == "__main__":
    sys.exit(main())
