"""Observability: tracing, metrics, autograd profiling, and telemetry.

The subsystem the efficiency experiments (Figure 3 / Table VII) and
the search-dynamics reports lean on. Its parts —

* :mod:`repro.obs.spans` — nested wall-time spans via a process-wide
  :class:`Tracer`; all ``search_time``/``train_time`` numbers in the
  repo come from spans (the ``adhoc-timing`` lint rule keeps it that
  way), and :func:`op_scope` opens the ``op`` span that names the
  supernet (edge, layer, op) every other layer attributes to;
* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.sinks` — in-memory and JSON-lines sinks and the
  one record format every stream file uses (:func:`read_records`
  reads them all back);
* :mod:`repro.obs.report` — the report toolkit: the one home of the
  text pieces every view shares (tables, numbers, byte counts,
  percent changes, sparklines, row elision, the nearest-rank
  percentile, last-record lookup) and the hotspot report over a
  finished trace;
* :mod:`repro.obs.autograd` — the per-op profiler, a hook on the
  autograd tape (tape entries, output bytes, backward time; zero
  overhead while disabled);
* :mod:`repro.obs.events` + :mod:`repro.obs.search_telemetry` — the
  structured event log (alpha snapshots, entropies, genotype flips,
  loss/score curves) the searchers and trainers emit into; a no-op
  unless an :class:`EventRecorder` is installed;
* :mod:`repro.obs.search_report` + :mod:`repro.obs.bench_gate` +
  :mod:`repro.obs.serve_report` — the ``repro report
  run``/``diff``/``bench``/``serve`` renderers, built on
  :mod:`repro.obs.report`; ``bench_gate`` also owns the
  ``BENCH_<name>.json`` format (``write_bench`` and ``load_bench``);
* :mod:`repro.obs.context` + :mod:`repro.obs.exporter` — request-scoped
  trace context (explicit parent handoff across the serve queue's
  thread boundary) and the live telemetry surfaces: periodic
  :class:`MetricsSnapshotter` JSONL flushes and the Prometheus-style
  :class:`MetricsExporter` scrape endpoint;
* :mod:`repro.obs.runs` + :mod:`repro.obs.runs_report` — the run
  ledger: every CLI entry point appends a versioned provenance
  manifest (deterministic content-derived id, config digest, env
  fingerprint, metric summary, artifact lineage) to the append-only
  history store, and ``repro runs list/show/diff/trend/gc`` renders
  history tables and the cross-run trend gate over it;
* :mod:`repro.obs.health` + :mod:`repro.obs.memory` — the health
  layer, two more hooks on the tensor-owned tape-hook chain
  (:func:`repro.autograd.tensor.add_tape_hook`): NaN/Inf/overflow
  detection with full op provenance (:class:`NumericsAnomaly`),
  per-epoch gradient-health gauges with dead-op detection, and tape
  memory accounting behind ``repro report memory``.

:class:`ProfileSession` bundles the profiling side for ``repro
profile``::

    from repro import obs

    with obs.ProfileSession(trace_path="trace.jsonl") as session:
        run_search()
    print(session.report())

and :func:`record_events` captures telemetry::

    with obs.record_events("events.jsonl", label="search:cora"):
        run_search()
"""

from repro.obs.autograd import AutogradProfiler, OpStats, op_name, profile_autograd
from repro.obs.context import (
    PATH_STAGES,
    REQUEST_SPAN,
    REQUEST_STAGES,
    RequestTrace,
    RequestTracer,
    TraceContext,
    context_span,
    mirror_span,
)
from repro.obs.exporter import (
    MetricsExporter,
    MetricsSnapshotter,
    parse_exposition,
    render_exposition,
)
from repro.obs.events import (
    EventRecorder,
    record_events,
)
from repro.obs.health import (
    HealthMonitor,
    NumericsAnomaly,
    check_numerics,
    get_monitor,
)
from repro.obs.memory import (
    MemoryTracker,
    render_memory_report,
    render_memory_report_file,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import SpanAggregate, aggregate_spans, format_table, hotspot_report
from repro.obs.bench_gate import Verdict
from repro.obs.runs import (
    RunLedger,
    RunManifest,
    build_manifest,
    config_digest,
    derive_run_id,
    env_fingerprint,
    record_run,
)
from repro.obs.runs_report import (
    evaluate_trend,
    render_run_show,
    render_runs_diff,
    render_runs_list,
    render_trend,
)
from repro.obs.search_report import render_diff, render_run
from repro.obs.serve_report import load_request_trees, render_serve_report
from repro.obs.search_telemetry import SearchTelemetry
from repro.obs.session import ProfileSession
from repro.obs.sinks import (
    RECORD_VERSION,
    InMemorySink,
    JsonlSink,
    RecordWarning,
    read_records,
)
from repro.obs.spans import ReplaySpan, Span, Tracer, get_tracer, op_scope, span

__all__ = [
    "ReplaySpan",
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "op_scope",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "InMemorySink",
    "JsonlSink",
    "RECORD_VERSION",
    "RecordWarning",
    "read_records",
    "SpanAggregate",
    "aggregate_spans",
    "format_table",
    "hotspot_report",
    "AutogradProfiler",
    "OpStats",
    "profile_autograd",
    "op_name",
    "ProfileSession",
    "EventRecorder",
    "record_events",
    "SearchTelemetry",
    "render_run",
    "render_diff",
    "HealthMonitor",
    "NumericsAnomaly",
    "check_numerics",
    "get_monitor",
    "MemoryTracker",
    "render_memory_report",
    "render_memory_report_file",
    "TraceContext",
    "RequestTrace",
    "RequestTracer",
    "context_span",
    "mirror_span",
    "REQUEST_SPAN",
    "REQUEST_STAGES",
    "PATH_STAGES",
    "MetricsSnapshotter",
    "render_exposition",
    "parse_exposition",
    "MetricsExporter",
    "load_request_trees",
    "render_serve_report",
    "RunLedger",
    "RunManifest",
    "build_manifest",
    "config_digest",
    "derive_run_id",
    "env_fingerprint",
    "record_run",
    "Verdict",
    "evaluate_trend",
    "render_runs_list",
    "render_run_show",
    "render_runs_diff",
    "render_trend",
]
