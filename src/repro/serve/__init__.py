"""Serving: trained-model artifacts and a batching inference engine.

Search produces a deployable genotype (the derived
:class:`~repro.core.search_space.Architecture`); this subsystem is
what happens *after* the search finishes — the consumer the fused
kernels and per-kernel counters were built for. Three layers:

* :mod:`repro.serve.artifact` — a versioned, content-hashed bundle of
  genotype + trained weights + dataset/feature metadata, produced by
  ``repro export`` and loadable without re-running search;
* :mod:`repro.serve.plans` + :mod:`repro.serve.engine` +
  :mod:`repro.serve.server` — a content-keyed LRU of per-graph
  :class:`~repro.gnn.common.GraphCache` plans, an inference engine
  that answers requests on the artifact's own graph from logits
  memoized at load and coalesces concurrent foreign-graph requests
  into single tape-free forward passes, and the synchronous-API
  server on top (memoized answers inline on the caller's thread,
  forwards on worker threads);
* :mod:`repro.serve.metrics` + :mod:`repro.serve.loadgen` — serve
  instruments (queue depth, batch size, p50/p99 latency, requests/s)
  and the deterministic closed-loop load generator behind
  ``repro serve --bench`` / ``benchmarks/bench_serve_throughput.py``.

Quickstart::

    from repro.serve import load_artifact, InferenceEngine, ServeServer

    artifact = load_artifact("artifact.json")
    engine = InferenceEngine.from_artifact(artifact)
    with ServeServer(engine) as server:
        logits = server.submit(node_ids=[0, 1, 2])
"""

from repro.serve.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    ModelArtifact,
    export_alignment,
    export_architecture,
    export_baseline,
    export_search,
    load_artifact,
    save_artifact,
)
from repro.serve.engine import InferenceEngine, Request
from repro.serve.loadgen import (
    LevelResult,
    bench_metrics,
    emit_serve_bench,
    render_load_report,
    run_load,
    sweep_levels,
)
from repro.serve.metrics import Reservoir, ServeMetrics
from repro.serve.plans import PlanCache
from repro.serve.server import PendingRequest, ServeServer

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ModelArtifact",
    "export_alignment",
    "export_architecture",
    "export_baseline",
    "export_search",
    "load_artifact",
    "save_artifact",
    "InferenceEngine",
    "Request",
    "PlanCache",
    "Reservoir",
    "ServeMetrics",
    "ServeServer",
    "PendingRequest",
    "LevelResult",
    "sweep_levels",
    "run_load",
    "render_load_report",
    "bench_metrics",
    "emit_serve_bench",
]
