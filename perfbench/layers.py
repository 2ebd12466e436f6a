"""Per-layer instrumentation of ``src/repro`` for the traced run.

:func:`instrument` wraps the public entry points of every measured
layer in :class:`spans.Recorder` spans, turns on the autograd
profiler (backward time per op) and the kernel counters, and undoes
all of it on exit. :func:`layer_metrics` turns the spans into the
``per_layer`` metrics of ``BENCHMARK.json``; :data:`TARGETS` names the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import contextlib
import importlib
import pickle
import statistics
import time

from spans import Patcher, Recorder, self_times

NODE_OPS = (
    "sage-sum", "sage-mean", "sage-max", "gcn", "gat", "gat-sym",
    "gat-cos", "gat-linear", "gat-gen-linear", "gin", "geniepath",
)
LAYER_OPS = ("concat", "max", "lstm")
BWD_OPS = (
    "gather", "segment_sum", "segment_mean", "segment_max",
    "segment_softmax", "segment_attention_sum",
)
KERNELS = ("scatter_sum", "scatter_max", "index_add")
STAGES = ("enqueue", "batch_assemble", "resolve")

# Layer of each span name prefix, for the self-time table.
LAYER_OF = {
    "graph": "repro.graph", "gnn": "repro.gnn", "core": "repro.core",
    "autograd": "repro.autograd", "nn": "repro.nn", "train": "repro.train",
    "nas": "repro.nas", "parallel": "repro.parallel", "serve": "repro.serve",
}

_S, _T, _SV = "search-pubmed", "trials-cora", "serve-mixed"
TARGETS = {
    "graph.build_ms": ("setup_s", (_S, _T, _SV)),
    "gnn.cache_build_ms": ("setup_s, ops_per_s, serve foreign p50", (_S, _T, _SV)),
    "gnn.cache_builds": ("setup_s, ops_per_s, serve foreign p50", (_S, _T, _SV)),
    "core.alpha_step_ms": ("op_p50_ms, ops_per_s", (_S,)),
    "core.weight_step_ms": ("op_p50_ms, ops_per_s", (_S,)),
    "core.validation_ms": ("op_p50_ms, ops_per_s", (_S,)),
    "core.mixture.fwd_ms": ("op_p50_ms, ops_per_s", (_S,)),
    "core.coverage": ("op_p50_ms (share of epoch time located)", (_S,)),
    "autograd.backward_ms": ("op_p50_ms, ops_per_s", (_S, _T)),
    "nn.adam_step_ms": ("op_p50_ms, ops_per_s", (_S, _T)),
    "train.fit_ms": ("ops_per_s, op_p50_ms", (_T,)),
    "train.epochs": ("ops_per_s, op_p50_ms", (_T,)),
    "train.epoch_ms": ("ops_per_s, op_p50_ms", (_T,)),
    "nas.candidates": ("ops_per_s", (_T,)),
    "nas.evaluate_batch_ms": ("ops_per_s", (_T,)),
    "parallel.run_ms": ("ops_per_s, peak_rss_mb", (_T,)),
    "parallel.job_bytes_in": ("ops_per_s, peak_rss_mb", (_T,)),
    "parallel.job_bytes_out": ("ops_per_s, peak_rss_mb", (_T,)),
    "parallel.busy_frac": ("ops_per_s", (_T,)),
    "parallel.overhead_ms": ("ops_per_s", (_T,)),
    "parallel.default_blas_slowdown": ("ops_per_s at the BLAS threading a user gets", (_T,)),
    "serve.load_artifact_ms": ("setup_s", (_SV,)),
    "serve.engine_init_ms": ("setup_s", (_SV,)),
    "serve.forward_ms.pinned": ("op_p50_ms, ops_per_s (pinned p50)", (_SV,)),
    "serve.forward_ms.foreign": ("op_p50_ms, ops_per_s (foreign p50)", (_SV,)),
    "serve.batch_size": ("op_p50_ms, ops_per_s", (_SV,)),
    "serve.queue_wait_ms": ("op_p50_ms, ops_per_s", (_SV,)),
    "serve.plan_cache.hit_ratio": ("op_p50_ms (foreign p50)", (_SV,)),
    "serve.plan_build_ms": ("op_p50_ms (foreign p50)", (_SV,)),
    "serve.pinned_share": ("context for every serve-mixed metric", (_SV,)),
    "loadgen.late_p99_ms": ("context for every serve-mixed metric", (_SV,)),
    "obs.overhead": ("op_p50_ms (traced over untraced, minus 1)", (_S, _T, _SV)),
    "trace.coverage": ("share of the timed entry call attributed to sub-steps", (_S, _T, _SV)),
}
for _k in range(3):
    for _op in NODE_OPS:
        TARGETS[f"core.layer{_k}.{_op}.fwd_ms"] = ("op_p50_ms, ops_per_s", (_S,))
for _op in LAYER_OPS:
    TARGETS[f"core.layer_agg.{_op}.fwd_ms"] = ("op_p50_ms, ops_per_s", (_S,))
for _op in BWD_OPS:
    TARGETS[f"autograd.bwd_ms.{_op}"] = ("op_p50_ms, ops_per_s", (_S, _T))
for _kernel in KERNELS:
    for _suffix in ("calls", "bytes_moved", "busy_ms"):
        TARGETS[f"kernel.{_kernel}.{_suffix}"] = (
            "op_p50_ms, ops_per_s", (_S, _T, _SV)
        )
for _stage in STAGES:
    TARGETS[f"serve.stage.{_stage}_ms"] = ("op_p50_ms, ops_per_s", (_SV,))


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
@contextlib.contextmanager
def instrument(recorder: Recorder, repro_sink=None):
    """Wrap every measured layer; yields ``(profiler, kernel_counters)``.

    ``repro_sink`` (a ``repro.obs`` sink) is attached to the library's
    tracer so the worker pool replays its workers' ``job`` spans, which
    ``parallel.overhead_ms`` is computed from.
    """
    from repro.autograd import kernels, ops
    from repro.autograd.tensor import Tensor
    from repro.core.search import SaneSearcher
    from repro.core.supernet import SaneSupernet
    from repro.gnn.common import GraphCache
    from repro.graph import datasets, generators
    from repro.nas import evaluation
    from repro.nn.optim import Adam
    from repro.obs import get_tracer
    from repro.obs.autograd import profile_autograd
    from repro.parallel.pool import WorkerPool
    from repro.serve import artifact as artifact_module
    from repro.serve.engine import InferenceEngine
    from repro.serve.plans import PlanCache
    from repro.serve.server import ServeServer
    from repro.train import trainer

    random_search_module = importlib.import_module("repro.nas.random_search")
    patcher = Patcher()
    wrap = recorder.wrap

    def named(name, attrs=None):
        return lambda fn: wrap(name, fn, attrs)

    def after_init(hook):
        def make(init):
            def patched(self, *args, **kwargs):
                init(self, *args, **kwargs)
                hook(self)
            return patched
        return make

    def wrap_candidates(searcher):
        supernet = searcher.supernet
        for k, candidates in enumerate(supernet.node_candidates):
            for op, module in zip(searcher.space.node_ops, candidates):
                patcher.set(module, "forward",
                            wrap(f"core.layer{k}.{op}", module.forward))
        for op, module in zip(searcher.space.layer_ops, supernet.layer_candidates):
            patcher.set(module, "forward",
                        wrap(f"core.layer_agg.{op}", module.forward))

    def wrap_engine_forward(engine):
        model = engine.model
        forward = model.forward
        default = engine._default_graph
        pinned = wrap("serve.forward.pinned", forward)
        foreign = wrap("serve.forward.foreign", forward)

        def by_kind(features, cache):
            if default is not None and features is default.features:
                return pinned(features, cache)
            return foreign(features, cache)

        patcher.set(model, "forward", by_kind)

    def pool_run(fn):
        def run(pool, jobs):
            jobs = list(jobs)
            bytes_in = sum(len(pickle.dumps(job)) for job in jobs)
            mark = len(repro_sink.spans) if repro_sink is not None else 0
            span = recorder.open("parallel.run")
            try:
                results = fn(pool, jobs)
            finally:
                recorder.close(span)
            busy = [
                value for name, value in pool.metrics.scalars().items()
                if name.startswith("parallel.worker.") and name.endswith(".busy_frac")
            ]
            span[5] = {
                "bytes_in": bytes_in,
                "bytes_out": sum(len(pickle.dumps(r)) for r in results),
                "busy_frac": statistics.fmean(busy) if busy else 0.0,
                "worker_job_s": _worker_job_seconds(
                    repro_sink.spans[mark:] if repro_sink is not None else []
                ),
            }
            return results
        return run

    with contextlib.ExitStack() as stack:
        profiler = stack.enter_context(profile_autograd(time.perf_counter))
        counters = stack.enter_context(
            kernels.count_kernels(kernels.KernelCounters(clock=time.perf_counter))
        )
        if repro_sink is not None:
            stack.enter_context(get_tracer().collect(repro_sink))
        stack.callback(patcher.restore)

        for name in ("cora_like", "citeseer_like", "pubmed_like", "ppi_like",
                     "load_dataset", "transductive_split"):
            patcher.function(datasets, name, named("graph.build"))
        for name in ("citation_graph", "community_multilabel_graph"):
            patcher.function(generators, name, named("graph.build"))
        patcher.method(GraphCache, "__init__", named("gnn.cache_build"))

        patcher.method(SaneSearcher, "__init__", after_init(wrap_candidates))
        patcher.method(SaneSearcher, "search", named("core.search"))
        patcher.method(SaneSearcher, "_alpha_step", named("core.alpha_step"))
        patcher.method(SaneSearcher, "_weight_step", named("core.weight_step"))
        patcher.method(SaneSearcher, "validation_score", named("core.validation"))
        patcher.method(SaneSupernet, "_mixture", named("core.mixture"))
        patcher.set(ops, "weighted_sum", wrap("core.mixture", ops.weighted_sum))

        patcher.method(Tensor, "backward", named("autograd.backward"))
        patcher.method(Adam, "step", named("nn.adam_step"))
        patcher.function(
            trainer, "fit",
            named("train.fit", lambda a, k, r: {"epochs": len(r.history)}),
        )

        patcher.function(random_search_module, "random_search",
                         named("nas.random_search"))
        patcher.method(
            evaluation.ArchitectureEvaluator, "evaluate_batch",
            named("nas.evaluate_batch", lambda a, k, r: {"candidates": len(r)}),
        )
        patcher.method(WorkerPool, "run", pool_run)

        patcher.function(artifact_module, "load_artifact",
                         named("serve.load_artifact"))
        patcher.method(InferenceEngine, "from_artifact", named("serve.engine_init"))
        patcher.method(InferenceEngine, "__init__", after_init(wrap_engine_forward))
        patcher.method(
            InferenceEngine, "predict_batch",
            named("serve.predict_batch", lambda a, k, r: {"size": len(r)}),
        )
        patcher.method(PlanCache, "get", named("serve.plan_get"))
        patcher.method(ServeServer, "submit_async", named("serve.submit"))
        yield profiler, counters


def _worker_job_seconds(replayed) -> dict:
    """Seconds of ``job`` spans per ``worker-<i>`` root among replayed spans."""
    roots = {
        span.span_id: span.name for span in replayed
        if getattr(span, "name", "").startswith("worker-")
        and hasattr(span, "span_id")
    }
    busy: dict[str, float] = {}
    for span in replayed:
        record = span.to_dict()
        if record.get("name") == "job" and record.get("parent") in roots:
            worker = roots[record["parent"]]
            busy[worker] = busy.get(worker, 0.0) + float(record.get("dur") or 0.0)
    return busy


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(records, profile, kernel_stats, ops, extra) -> dict[str, float]:
    """Every ``per_layer`` metric from the merged spans of one traced run.

    ``ops`` is the number of workload operations (epochs, candidates or
    requests) the traced run completed; totals are reported per op so
    runs of different lengths compare. ``extra`` carries the values the
    workload measures directly (serve stages, plan cache, overhead).
    """
    by_name: dict[str, list[dict]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    def durs(name):
        return [r["end"] - r["start"] for r in by_name.get(name, [])]

    def top_level(name):
        return [
            r["end"] - r["start"] for r in by_name.get(name, [])
            if r["parent"] is None or records[r["parent"]]["name"] != name
        ]

    per_op = max(ops, 1)
    epochs = max(len(by_name.get("core.alpha_step", [])), 1)
    out: dict[str, float] = {}
    out["graph.build_ms"] = _ms(sum(top_level("graph.build")))
    out["gnn.cache_build_ms"] = _ms(sum(durs("gnn.cache_build")))
    out["gnn.cache_builds"] = float(len(durs("gnn.cache_build")))

    out["core.alpha_step_ms"] = _ms(_median(durs("core.alpha_step")))
    out["core.weight_step_ms"] = _ms(_median(durs("core.weight_step")))
    out["core.validation_ms"] = _ms(_median(durs("core.validation")))
    located = 0.0
    for k in range(3):
        for op in NODE_OPS:
            total = sum(durs(f"core.layer{k}.{op}"))
            located += total
            out[f"core.layer{k}.{op}.fwd_ms"] = _ms(total / epochs)
    for op in LAYER_OPS:
        total = sum(durs(f"core.layer_agg.{op}"))
        located += total
        out[f"core.layer_agg.{op}.fwd_ms"] = _ms(total / epochs)
    mixture = sum(top_level("core.mixture"))
    out["core.mixture.fwd_ms"] = _ms(mixture / epochs)
    epoch_time = sum(
        sum(durs(name))
        for name in ("core.alpha_step", "core.weight_step", "core.validation")
    )
    if epoch_time > 0:
        inside = [
            r["end"] - r["start"] for name in ("autograd.backward", "nn.adam_step")
            for r in by_name.get(name, [])
            if _has_ancestor(records, r, ("core.alpha_step", "core.weight_step"))
        ]
        located += mixture + sum(inside)
        out["core.coverage"] = located / epoch_time
    else:
        out["core.coverage"] = 0.0

    out["autograd.backward_ms"] = _ms(_median(durs("autograd.backward")))
    for op in BWD_OPS:
        out[f"autograd.bwd_ms.{op}"] = _ms(profile.get(op, 0.0) / per_op)
    for kernel in KERNELS:
        entry = kernel_stats.get(kernel, {})
        moved = entry.get("bytes_read", 0) + entry.get("bytes_written", 0)
        out[f"kernel.{kernel}.calls"] = entry.get("calls", 0) / per_op
        out[f"kernel.{kernel}.bytes_moved"] = moved / per_op
        out[f"kernel.{kernel}.busy_ms"] = _ms(entry.get("seconds", 0.0) / per_op)
    out["nn.adam_step_ms"] = _ms(_median(durs("nn.adam_step")))

    fits = by_name.get("train.fit", [])
    out["train.fit_ms"] = _ms(_median(durs("train.fit")))
    epochs_run = [(r["attrs"] or {}).get("epochs", 0) for r in fits]
    out["train.epochs"] = statistics.fmean(epochs_run) if epochs_run else 0.0
    out["train.epoch_ms"] = _ms(_median(
        (r["end"] - r["start"]) / e for r, e in zip(fits, epochs_run) if e
    ))

    batches = by_name.get("nas.evaluate_batch", [])
    out["nas.candidates"] = float(sum(
        (r["attrs"] or {}).get("candidates", 0) for r in batches
    ))
    out["nas.evaluate_batch_ms"] = _ms(_median(durs("nas.evaluate_batch")))

    runs = by_name.get("parallel.run", [])
    attrs = [r["attrs"] or {} for r in runs]
    out["parallel.run_ms"] = _ms(_median(durs("parallel.run")))
    out["parallel.job_bytes_in"] = _median(a.get("bytes_in", 0) for a in attrs)
    out["parallel.job_bytes_out"] = _median(a.get("bytes_out", 0) for a in attrs)
    out["parallel.busy_frac"] = _median(a.get("busy_frac", 0.0) for a in attrs)
    out["parallel.overhead_ms"] = _ms(_median(
        (r["end"] - r["start"]) - max(a.get("worker_job_s", {}).values(), default=0.0)
        for r, a in zip(runs, attrs)
    ))

    out["serve.load_artifact_ms"] = _ms(sum(durs("serve.load_artifact")))
    out["serve.engine_init_ms"] = _ms(sum(durs("serve.engine_init")))
    out["serve.forward_ms.pinned"] = _ms(_median(durs("serve.forward.pinned")))
    out["serve.forward_ms.foreign"] = _ms(_median(durs("serve.forward.foreign")))
    sizes = [(r["attrs"] or {}).get("size", 0) for r in by_name.get("serve.predict_batch", [])]
    out["serve.batch_size"] = statistics.fmean(sizes) if sizes else 0.0
    out["serve.plan_build_ms"] = _ms(_median(
        r["end"] - r["start"] for r in by_name.get("gnn.cache_build", [])
        if r["parent"] is not None and records[r["parent"]]["name"] == "serve.plan_get"
    ))
    for name in ("parallel.default_blas_slowdown",
                 "serve.queue_wait_ms", "serve.plan_cache.hit_ratio",
                 "serve.pinned_share", "loadgen.late_p99_ms", "obs.overhead"):
        out[name] = float(extra.get(name, 0.0))
    for stage in STAGES:
        out[f"serve.stage.{stage}_ms"] = float(extra.get(f"serve.stage.{stage}_ms", 0.0))
    out["trace.coverage"] = _coverage(records, extra.get("entry", ""))
    return out


def _has_ancestor(records, record, names) -> bool:
    parent = record["parent"]
    while parent is not None:
        if records[parent]["name"] in names:
            return True
        parent = records[parent]["parent"]
    return False


def _coverage(records, entry: str) -> float:
    """Share of the entry spans' time spent in their named sub-steps."""
    total = 0.0
    covered = 0.0
    entries = {i for i, r in enumerate(records) if r["name"] == entry}
    for index in entries:
        total += records[index]["end"] - records[index]["start"]
    for record in records:
        if record["parent"] in entries:
            covered += record["end"] - record["start"]
    return covered / total if total > 0 else 0.0


def layer_self_ms(records) -> dict[str, float]:
    """Self time per ``repro`` layer, in ms."""
    totals: dict[str, float] = {}
    for record, own in zip(records, self_times(records)):
        layer = LAYER_OF.get(record["name"].split(".", 1)[0], "other")
        totals[layer] = totals.get(layer, 0.0) + _ms(own)
    return totals
