"""Deterministic closed-loop load generator + the throughput bench.

Simulates N concurrent clients against a :class:`~repro.serve.server.
ServeServer` without N OS threads: each sweep level keeps N requests
outstanding (submit a wave of N ``submit_async``, block on all
results, repeat) until the level's request budget is spent. The
request *sequence* — which node ids each request asks for — is fully
seeded, so two runs issue byte-identical work; only wall-clock
varies, and the bench gate applies its wall-clock tolerance to
exactly those numbers.

Every ``FOREIGN_EVERY``-th request of a classification engine carries
an explicit graph: an equal-content copy of the artifact's own graph.
The engine answers the rest from its memoized logits on the caller's
thread, so without this share the sweep would measure no forward,
queue or batch stage at all.

Per level the sweep reports requests/s and nearest-rank p50/p99
enqueue→resolve latency, published as ``serve.c<N>.rps`` /
``serve.c<N>.p50_latency_s`` / ``serve.c<N>.p99_latency_s`` gauges —
names chosen so the bench gate's token inference reads them as
higher-is-better wall-clock ratio and lower-is-better wall-clock
respectively.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro import obs
from repro.graph.data import Graph
from repro.obs import MetricsRegistry
from repro.obs.bench_gate import write_bench
from repro.obs.report import format_table, nearest_rank
from repro.serve.server import ServeServer

__all__ = [
    "FOREIGN_EVERY",
    "LevelResult",
    "sweep_levels",
    "run_load",
    "render_load_report",
    "bench_metrics",
    "emit_serve_bench",
]

# One request in this many carries its own graph and takes the queued
# forward path; the others are answered from the engine's memo.
FOREIGN_EVERY = 4

# 1 → 10k simulated clients at full scale; the smaller presets keep the
# smoke/default sweeps inside CI budgets while preserving ≥3 levels.
_SWEEPS = {
    "smoke": (1, 4, 16),
    "default": (1, 8, 64, 256),
    "full": (1, 10, 100, 1000, 10000),
}


def sweep_levels(scale_name: str) -> tuple[int, ...]:
    """Concurrency levels for one scale preset."""
    try:
        return _SWEEPS[scale_name]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale_name!r}; choose from {sorted(_SWEEPS)}"
        ) from None


@dataclasses.dataclass
class LevelResult:
    """Throughput/latency summary of one concurrency level.

    ``p99_trace`` is the exemplar: the trace id of the request whose
    latency *is* the level's p99, so the tail number links to a
    concrete span tree in the trace file.
    """

    concurrency: int
    requests: int
    wall_s: float
    rps: float
    p50_s: float
    p99_s: float
    p99_trace: str | None = None


def run_load(
    server: ServeServer,
    levels: tuple[int, ...],
    requests_per_level: int,
    seed: int = 0,
    ids_per_request: int = 4,
    deadline_s: float | None = None,
) -> list[LevelResult]:
    """Closed-loop sweep over ``levels``; the server must be started."""
    num_targets = server.engine.num_targets
    foreign = _equal_copy(server.engine.default_graph)
    rng = np.random.default_rng(seed)
    results: list[LevelResult] = []
    issued = 0
    for level in levels:
        samples: list[tuple[float, str | None]] = []
        span = obs.span(
            "serve.loadgen.level", kind="serve", concurrency=level
        ).start()
        done = 0
        while done < requests_per_level:
            wave = min(level, requests_per_level - done)
            pendings = []
            for __ in range(wave):
                ids = rng.integers(0, num_targets, size=ids_per_request)
                explicit = issued % FOREIGN_EVERY == FOREIGN_EVERY - 1
                pendings.append(server.submit_async(
                    node_ids=ids,
                    graph=foreign if explicit else None,
                    deadline_s=deadline_s,
                ))
                issued += 1
            for pending in pendings:
                pending.result()
                samples.append((pending.latency, pending.trace_id))
            done += wave
        span.finish()
        wall = span.duration
        samples.sort(key=lambda sample: sample[0])
        p99, p99_trace = nearest_rank(samples, 99.0)
        results.append(
            LevelResult(
                concurrency=level,
                requests=done,
                wall_s=wall,
                rps=done / wall if wall > 0 else float("inf"),
                p50_s=nearest_rank(samples, 50.0)[0],
                p99_s=p99,
                p99_trace=p99_trace,
            )
        )
    return results


def _equal_copy(graph: Graph | None) -> Graph | None:
    """A distinct graph object with the same structure and features."""
    if graph is None:
        return None
    return Graph(
        edge_index=graph.edge_index.copy(),
        features=graph.features.copy(),
        name=f"{graph.name}-copy",
    )


def render_load_report(results: list[LevelResult]) -> str:
    """Human-readable sweep table (the CLI prints it)."""
    rows = [
        [
            str(result.concurrency),
            str(result.requests),
            f"{result.wall_s:.3f}",
            f"{result.rps:.1f}",
            f"{result.p50_s * 1e3:.2f}",
            f"{result.p99_s * 1e3:.2f}",
            result.p99_trace or "-",
        ]
        for result in results
    ]
    lines = format_table(
        ["clients", "requests", "wall_s", "req/s", "p50_ms", "p99_ms",
         "p99_trace"],
        rows,
    )
    return "\n".join(lines)


def bench_metrics(
    results: list[LevelResult],
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Publish per-level gauges in the bench-gate naming scheme."""
    registry = registry if registry is not None else MetricsRegistry()
    for result in results:
        prefix = f"serve.c{result.concurrency}"
        registry.gauge(f"{prefix}.rps").set(result.rps)
        registry.gauge(f"{prefix}.p50_latency_s").set(result.p50_s)
        registry.gauge(f"{prefix}.p99_latency_s").set(result.p99_s)
    return registry


def emit_serve_bench(
    name: str,
    results: list[LevelResult],
    spans=(),
    registry: MetricsRegistry | None = None,
    extra: dict | None = None,
) -> Path:
    """Write the sweep's ``BENCH_<name>.json`` payload for the gate
    (:func:`repro.obs.bench_gate.write_bench` plus the per-level gauges)."""
    return write_bench(name, spans, bench_metrics(results, registry), extra)
