"""Pinned text of every ``repro.obs`` text view, and the recorder of it.

Each view renders committed inputs under ``tests/obs/fixtures/`` and
``test_pinned_views.py`` compares the text with the committed
``tests/obs/fixtures/views/<view>.txt`` byte for byte. The inputs:

* ``profile-a.jsonl`` / ``profile-b.jsonl`` — ``repro profile search
  --events --memory`` on cora (seeds 0 and 1) at a trimmed smoke
  budget, with a fake clock on the process tracer so every duration is
  reproducible;
* ``serve-trace.jsonl`` — ``repro serve --bench --trace`` at smoke
  scale (real clock; recorded once);
* ``bench/`` — a hand-written baseline/fresh pair that meets every
  gate status, and a fresh payload with no baseline;
* ``benchmarks/history/seed.jsonl`` — the committed run-ledger seed;
* ``runs-lineage.jsonl`` — ``repro runs`` manifests of a smoke ``sweep
  cora --methods sane random`` (children), an ``export baseline gcn
  cora`` (artifacts) and a ``serve`` of that export (lineage), recorded
  once.

Re-record the inputs or the expected texts with::

    PYTHONPATH=src:. python -m tests.obs.pinned_views profile  # profile-*.jsonl
    PYTHONPATH=src:. python -m tests.obs.pinned_views serve    # serve-trace.jsonl
    PYTHONPATH=src:. python -m tests.obs.pinned_views pin      # views/*.txt
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
import tempfile
from pathlib import Path

from repro import cli
from repro.obs import hotspot_report, read_records
from repro.serve.loadgen import LevelResult, render_load_report

FIXTURES = Path(__file__).resolve().parent / "fixtures"
VIEWS = FIXTURES / "views"
SEED_HISTORY = FIXTURES.parents[2] / "benchmarks" / "history" / "seed.jsonl"

# Run-ledger seed entries the show/diff views expand: a search run, a
# later search run (same config, drifted metrics), and a serve run
# (different config and metric set).
_SEARCH_RUN = "r821643f25a08"
_LATER_SEARCH_RUN = "r18d6485da881"
_SERVE_RUN = "r2b4ac44dfd12"

# runs-lineage.jsonl: the sweep, the export, and the serve it fed.
LINEAGE_HISTORY = FIXTURES / "runs-lineage.jsonl"
_SWEEP_RUN = "rf6e14135f765"
_EXPORT_RUN = "rbb0deda42540"
_LINEAGE_SERVE_RUN = "r89b3ce5500cd"

_LEVELS = [
    LevelResult(1, 64, 0.2125, 301.17647, 0.0031, 0.00675, "t-63"),
    LevelResult(4, 64, 0.0875, 731.42857, 0.00485, 0.0112, "t-101"),
    LevelResult(16, 64, 0.0625, 1024.0, 0.0095, 0.02145, None),
]


def _cli(*argv: str) -> str:
    """stdout of one ``repro`` invocation, run from the fixtures dir."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out):
            cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return out.getvalue()


def _hotspot() -> str:
    records = read_records(FIXTURES / "profile-a.jsonl", kind="trace")
    by_type: dict[str, dict] = {}
    for record in records:
        by_type[record["type"]] = record
    return hotspot_report(
        [r for r in records if r["type"] == "span"],
        op_stats=by_type["op_stats"]["data"],
        metrics=by_type["metrics"]["data"],
    ) + "\n"


def _runs(*argv: str, history: Path = SEED_HISTORY) -> str:
    return _cli("runs", *argv, "--history", str(history))


RENDERERS = {
    "hotspot": _hotspot,
    "report-run": lambda: _cli("report", "run", "profile-a.jsonl"),
    "report-diff": lambda: _cli(
        "report", "diff", "profile-a.jsonl", "profile-b.jsonl"
    ),
    "report-memory": lambda: _cli("report", "memory", "profile-a.jsonl"),
    "report-serve": lambda: _cli(
        "report", "serve", "serve-trace.jsonl", "--top", "3"
    ),
    "report-bench": lambda: _cli(
        "report", "bench", "--baselines", "bench/baselines",
        "--bench-dir", "bench/fresh",
    ),
    "report-bench-no-baseline": lambda: _cli(
        "report", "bench", "--baselines", "bench/baselines",
        "bench/fresh/BENCH_new.json",
    ),
    "runs-list": lambda: _runs("list"),
    "runs-show": lambda: _runs("show", _SEARCH_RUN),
    "runs-show-sweep": lambda: _runs("show", _SWEEP_RUN, history=LINEAGE_HISTORY),
    "runs-show-export": lambda: _runs(
        "show", _EXPORT_RUN, history=LINEAGE_HISTORY
    ),
    "runs-show-serve": lambda: _runs(
        "show", _LINEAGE_SERVE_RUN, history=LINEAGE_HISTORY
    ),
    "runs-diff": lambda: _runs("diff", _SEARCH_RUN, _LATER_SEARCH_RUN),
    "runs-diff-commands": lambda: _runs("diff", _SEARCH_RUN, _SERVE_RUN),
    "runs-trend": lambda: _runs(
        "trend", "search.epoch_ms", "serve.latency.p99_s",
        "kernel.scatter_sum.effective_gbps", "search.test_score",
        "no.such_metric",
    ),
    "load-report": lambda: render_load_report(_LEVELS) + "\n",
}


def render(view: str) -> str:
    return RENDERERS[view]()


# ---------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------
# Just under a uniform weight over 11 node aggregators (1/11 = 0.0909),
# so the near-uniform mixtures of a short search report a few dead ops.
DEAD_OP_EPS = 0.0907


class _FakeClock:
    """One millisecond per reading."""

    def __init__(self):
        self.ticks = 0

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks / 1000.0


def record_profiles() -> None:
    """Re-record ``profile-a.jsonl`` and ``profile-b.jsonl``."""
    from repro.experiments.config import SCALES
    from repro.experiments.runners import run_sane
    from repro.graph.datasets import load_dataset
    from repro.obs import ProfileSession, get_tracer, health

    # 24 search epochs so the curve and gradient-health tables elide
    # their middle rows.
    scale = dataclasses.replace(
        SCALES["smoke"], dataset_scale=0.25, search_epochs=24, train_epochs=8
    )
    tracer = get_tracer()
    for name, seed in (("profile-a.jsonl", 0), ("profile-b.jsonl", 1)):
        data = load_dataset("cora", seed=seed, scale=scale.dataset_scale)
        saved = tracer.clock
        tracer.clock = _FakeClock()
        try:
            with ProfileSession(
                trace_path=FIXTURES / name, label="search:cora",
                events=True, memory=True,
            ) as session, health.check_numerics(
                mode="warn", dead_op_eps=DEAD_OP_EPS
            ):
                run = run_sane(data, scale, seed=seed)
                session.metrics.gauge("search_time_s").set(run.search_time)
                session.metrics.histogram("test_score").observe(
                    sum(run.test_scores) / len(run.test_scores)
                )
        finally:
            tracer.clock = saved


def record_serve() -> None:
    """Re-record ``serve-trace.jsonl`` (wall-clock timings)."""
    with tempfile.TemporaryDirectory() as scratch:
        artifact = str(Path(scratch) / "artifact.json")
        os.environ["REPRO_BENCH_DIR"] = scratch
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--scale", "smoke", "export", "baseline", "gcn", "cora",
                      "--out", artifact])
            cli.main(["--scale", "smoke", "serve", artifact, "--bench",
                      "--requests", "8",
                      "--trace", str(FIXTURES / "serve-trace.jsonl")])


def pin() -> None:
    """Rewrite every ``views/<view>.txt`` from the current renderers."""
    VIEWS.mkdir(exist_ok=True)
    for view in RENDERERS:
        (VIEWS / f"{view}.txt").write_text(render(view), encoding="utf-8")


if __name__ == "__main__":
    os.environ.setdefault("REPRO_RUN_LEDGER", "off")
    {"profile": record_profiles, "serve": record_serve, "pin": pin}[sys.argv[1]]()
