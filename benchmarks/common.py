"""Shared benchmark plumbing.

Each ``bench_*`` module regenerates one paper table/figure: the heavy
experiment runs exactly once inside ``benchmark.pedantic(rounds=1)``
(so pytest-benchmark reports its wall-clock) and the rendered table is
printed for EXPERIMENTS.md. Scale comes from ``REPRO_SCALE``
(``smoke`` / ``default`` / ``full``; default ``default``).

Benchmarks that want machine-readable output wrap the run in
:func:`tracked_run`: the library's ``repro.obs`` spans (search/train/
epoch timings) are collected for the duration and a ``BENCH_<name>.json``
summary — aggregated spans, a metrics snapshot, free-form extras — is
written to ``REPRO_BENCH_DIR`` (default: current directory) by
:func:`repro.obs.bench_gate.write_bench`, next to the gate's reader.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from pathlib import Path
from typing import Iterator

from repro.autograd.kernels import KernelCounters, count_kernels
from repro.experiments.config import SCALES, Scale
from repro.obs import InMemorySink, MetricsRegistry, get_tracer
from repro.obs.bench_gate import write_bench
from repro.obs.runs import env_fingerprint, record_run

__all__ = [
    "bench_scale", "bench_workers", "show", "BenchRun", "tracked_run",
    "emit_metrics",
]


def bench_scale() -> Scale:
    """Scale preset for benchmarks (env-controlled)."""
    name = os.environ.get("REPRO_SCALE", "default")
    return SCALES[name]


def bench_workers() -> int:
    """Worker processes for benches that fan out (env-controlled).

    ``REPRO_BENCH_WORKERS`` (default 0 = in-process) routes a bench's
    experiment through the same :class:`repro.parallel.WorkerPool` the
    CLI uses. Scores are worker-count-invariant by the deterministic-
    merge contract; only the timings change, so a payload recorded at
    N workers gates cleanly against one recorded at M.
    """
    return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def show(title: str, text: str) -> None:
    """Print a regenerated table with a banner (visible with ``-s``)."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


@dataclasses.dataclass
class BenchRun:
    """Handle yielded by :func:`tracked_run`.

    ``metrics`` is a fresh registry the benchmark fills with its
    headline numbers (speedups, scores); ``extra`` takes anything
    that does not fit the counter/gauge/histogram shapes.
    """

    name: str
    sink: InMemorySink
    metrics: MetricsRegistry
    extra: dict = dataclasses.field(default_factory=dict)


@contextlib.contextmanager
def tracked_run(name: str) -> Iterator[BenchRun]:
    """Collect obs spans for one benchmark and emit ``BENCH_<name>.json``.

    Attaches an in-memory sink to the process tracer for the duration
    of the block, so every span the library opens (search epochs,
    training loops, candidate evaluations) lands in the summary. Record
    headline numbers on ``run.metrics`` / ``run.extra`` inside the
    block; the JSON file is written on exit.

    Segment-kernel byte counters ride along: every ``scatter_sum`` /
    ``scatter_max`` / ``index_add`` call inside the block records bytes
    read/written and elements reduced, and the snapshot lands in the
    payload as ``kernel.<name>.bytes_moved`` / ``effective_gbps``
    gauges plus the raw ``extra["kernel_counters"]`` table, so the
    fused-vs-naive comparison is expressible as achieved bandwidth.
    """
    run = BenchRun(name=name, sink=InMemorySink(), metrics=MetricsRegistry())
    counters = KernelCounters(clock=time.perf_counter)
    with get_tracer().collect(run.sink), count_kernels(counters):
        yield run
    for kernel, stats in counters.snapshot().items():
        run.metrics.gauge(f"kernel.{kernel}.bytes_moved").set(stats["bytes_moved"])
        if stats["effective_gbps"] is not None:
            run.metrics.gauge(f"kernel.{kernel}.effective_gbps").set(
                stats["effective_gbps"]
            )
    run.extra.setdefault("kernel_counters", counters.snapshot())
    emit_metrics(name, spans=run.sink.spans, metrics=run.metrics, extra=run.extra)


def emit_metrics(name: str, spans=(), metrics: MetricsRegistry | None = None,
                 extra: dict | None = None) -> Path:
    """Write a ``BENCH_<name>.json`` summary and record the run.

    The payload is :func:`repro.obs.bench_gate.write_bench`'s.
    """
    path = write_bench(name, spans, metrics or MetricsRegistry(), extra)
    scale = os.environ.get("REPRO_SCALE", "default")
    # Benchmarks ride the run ledger alongside the BENCH_*.json they
    # overwrite: the snapshot goes to the gate, the history goes here.
    record_run(
        "bench",
        {"name": name, "scale": scale},
        env=env_fingerprint(scale=scale, workers=bench_workers()),
        registry=metrics,
        outputs={"bench": name},
        files=[str(path)],
    )
    return path
