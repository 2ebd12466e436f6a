"""Serve-path instruments: queue depth, batch size, latency percentiles.

Thin layer over :class:`repro.obs.metrics.MetricsRegistry`. The
registry's :class:`~repro.obs.metrics.Histogram` keeps only
count/total/min/max/last — no reservoir — so the p50/p99 tail numbers
the throughput bench gates on are computed here from retained latency
samples (nearest-rank percentiles, the deterministic textbook
definition, :func:`repro.obs.report.nearest_rank`) and published as
gauges:

* ``serve.requests`` / ``serve.batches`` counters,
* ``serve.errors`` / ``serve.deadline_exceeded`` SLO counters
  (pre-registered, so an exposition always carries them even at zero),
* ``serve.queue_depth`` gauge (depth after each enqueue/drain),
* ``serve.batch_size`` / ``serve.latency_s`` histograms,
* ``serve.latency.p50_s`` / ``serve.latency.p99_s`` / ``serve.rps``
  gauges, filled by :meth:`ServeMetrics.finalize`,
* ``serve.stage.<name>.p50_s`` / ``.p99_s`` gauges per traced request
  stage, with the p99's trace id kept in :attr:`ServeMetrics.exemplars`
  so a tail number links back to a concrete span tree.

Latency samples live in a :class:`Reservoir` (Algorithm R, seeded, cap
configurable) so a long soak run keeps memory flat. Below the cap the
reservoir retains *every* sample — percentiles are exact, and since the
default cap (16384) exceeds the largest bench sample count, the bench
path is bit-identical to the unbounded-list behaviour it replaces.
"""

from __future__ import annotations

import math
import random
import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import nearest_rank

__all__ = ["Reservoir", "ServeMetrics"]

# Largest bench level is 5 levels x 2048 requests = 10240 samples; the
# default cap clears it so gated numbers never see a replacement.
DEFAULT_RESERVOIR_CAPACITY = 16384


class Reservoir:
    """Fixed-size uniform sample of a stream (Vitter's Algorithm R).

    Each sample optionally carries a ``tag`` (here: a trace id), which
    is how a p99 gauge gets its exemplar. Seeded with stdlib
    :class:`random.Random` — no global RNG touched, so filling a
    reservoir cannot perturb seeded model code. Thread-safe: serve
    worker threads record into shared reservoirs.

    Determinism: below ``capacity`` no random draws happen at all
    (every sample is retained), so any run whose stream fits the cap is
    exactly reproducible regardless of thread interleaving. Above the
    cap the retained *set* depends on arrival order, which is the
    standard trade-off for O(capacity) memory.
    """

    __slots__ = ("capacity", "count", "_samples", "_rng", "_lock")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0  # total observed, not retained
        self._samples: list[tuple[float, object]] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def add(self, value: float, tag=None) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            if len(self._samples) < self.capacity:
                self._samples.append((value, tag))
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.capacity:
                    self._samples[slot] = (value, tag)

    # list-compatible surface (``metrics.latencies`` predates the cap)
    def append(self, value: float) -> None:
        self.add(value)

    def values(self) -> list[float]:
        """Retained sample values, in arrival order."""
        with self._lock:
            return [value for value, _ in self._samples]

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self):
        return iter(self.values())

    def percentile(self, q: float) -> float:
        return self.percentile_with_tag(q)[0]

    def percentile_with_tag(self, q: float) -> tuple[float, object]:
        """Nearest-rank percentile plus the tag of the ranked sample."""
        with self._lock:
            samples = list(self._samples)
        return nearest_rank(sorted(samples, key=lambda sample: sample[0]), q)


class ServeMetrics:
    """Instruments shared by the engine, the server, and the load gen."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = 0,
        slo_target: float = 0.999,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self.slo_target = slo_target
        self.latencies = Reservoir(capacity=reservoir_capacity, seed=seed)
        self.stages: dict[str, Reservoir] = {}
        self.exemplars: dict[str, str] = {}
        # Requests are observed from caller threads (inline memo
        # answers) and worker threads at once; counter and histogram
        # updates are read-modify-write, so they share one lock.
        self._lock = threading.Lock()
        # Pre-register the SLO counters: a scrape must always expose
        # them, and "zero errors" is a statement, not an absence.
        self.registry.counter("serve.requests")
        self.registry.counter("serve.errors")
        self.registry.counter("serve.deadline_exceeded")

    # ------------------------------------------------------------------
    def observe_requests(self, count: int = 1) -> None:
        with self._lock:
            self.registry.counter("serve.requests").inc(count)

    def observe_queue_depth(self, depth: int) -> None:
        self.registry.gauge("serve.queue_depth").set(depth)

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self.registry.counter("serve.batches").inc()
            self.registry.histogram("serve.batch_size").observe(size)

    def observe_latency(self, seconds: float, trace_id: str | None = None) -> None:
        self.latencies.add(seconds, trace_id)
        with self._lock:
            self.registry.histogram("serve.latency_s").observe(seconds)

    def observe_stage(
        self, name: str, seconds: float, trace_id: str | None = None
    ) -> None:
        """Record one stage duration (``enqueue``, ``forward``, ...)."""
        with self._lock:
            reservoir = self.stages.get(name)
            if reservoir is None:
                reservoir = Reservoir(
                    capacity=self.reservoir_capacity, seed=self.seed
                )
                self.stages[name] = reservoir
        reservoir.add(seconds, trace_id)

    def observe_error(self, count: int = 1) -> None:
        with self._lock:
            self.registry.counter("serve.errors").inc(count)

    def observe_deadline_exceeded(self, count: int = 1) -> None:
        with self._lock:
            self.registry.counter("serve.deadline_exceeded").inc(count)

    def observe_plan_cache(self, stats: dict) -> None:
        # Cumulative cache stats land as gauges (last snapshot wins);
        # hits/misses are "size-like" counts, not latencies, so none of
        # these gate in the bench comparison.
        self.registry.gauge("serve.plan_cache.size").set(stats["size"])
        self.registry.gauge("serve.plan_cache.hit_count").set(stats["hits"])
        self.registry.gauge("serve.plan_cache.miss_count").set(stats["misses"])

    # ------------------------------------------------------------------
    def _publish_percentiles(self, prefix: str, reservoir: Reservoir) -> dict:
        """Set ``<prefix>.p50_s/p99_s`` gauges; exemplar the p99."""
        p50 = reservoir.percentile(50.0)
        p99, tag = reservoir.percentile_with_tag(99.0)
        self.registry.gauge(f"{prefix}.p50_s").set(p50)
        self.registry.gauge(f"{prefix}.p99_s").set(p99)
        if tag is not None:
            self.exemplars[f"{prefix}.p99_s"] = str(tag)
        return {"p50_s": p50, "p99_s": p99}

    def slo_summary(self) -> dict:
        """Error-budget arithmetic over the SLO counters, as of now."""
        requests = self.registry.counter("serve.requests").value
        errors = self.registry.counter("serve.errors").value
        deadline = self.registry.counter("serve.deadline_exceeded").value
        bad = errors + deadline
        # Zero traffic means zero failures: vacuously available.
        availability = 1.0 - bad / requests if requests > 0 else 1.0
        budget = (1.0 - self.slo_target) * requests
        summary = {
            "target": self.slo_target,
            "requests": requests,
            "errors": errors,
            "deadline_exceeded": deadline,
            "availability": availability,
            "budget_consumed": bad / budget if budget > 0 else (
                0.0 if bad == 0 else math.inf
            ),
        }
        if requests > 0:
            self.registry.gauge("serve.slo.availability").set(availability)
        return summary

    def finalize(self, wall_s: float | None = None) -> dict:
        """Publish tail-latency/throughput/stage gauges; returns the summary."""
        summary: dict = {"requests": len(self.latencies)}
        if self.latencies:
            summary.update(self._publish_percentiles("serve.latency", self.latencies))
        if wall_s is not None and wall_s > 0.0:
            rps = len(self.latencies) / wall_s
            self.registry.gauge("serve.rps").set(rps)
            summary["rps"] = rps
        stages: dict[str, dict] = {}
        for name in sorted(self.stages):
            reservoir = self.stages[name]
            if reservoir:
                stages[name] = self._publish_percentiles(
                    f"serve.stage.{name}", reservoir
                )
        if stages:
            summary["stages"] = stages
        summary["slo"] = self.slo_summary()
        return summary
