"""One-stop profiling session: spans + autograd ops + metrics + trace.

:class:`ProfileSession` is what ``repro profile`` (and any caller that
wants "profile this block") uses. Entering the session

* attaches an in-memory sink (for the report) and, if a path was
  given, a JSONL sink (the trace file) to the process tracer,
* installs the autograd op profiler (optional),
* opens a root span so every library span recorded inside the block
  hangs off one tree.

Leaving it tears all of that down, appends the op stats and metrics
snapshot to the trace, and leaves the collected data available for
:meth:`ProfileSession.report`.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import events as events_mod
from repro.obs.autograd import AutogradProfiler
from repro.obs.memory import MemoryTracker, render_memory_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import hotspot_report
from repro.obs.sinks import InMemorySink, JsonlSink
from repro.obs.spans import Tracer, get_tracer

__all__ = ["ProfileSession"]


class ProfileSession:
    """Profile everything that happens inside a ``with`` block.

    With ``events=True`` (requires ``trace_path``) an
    :class:`~repro.obs.events.EventRecorder` sharing the trace's JSONL
    sink is installed for the block, so search/training telemetry
    events interleave with the span records in one file — which
    ``repro report run`` and ``report diff`` can then consume directly.

    With ``memory=True`` a :class:`~repro.obs.memory.MemoryTracker`
    rides along on the tape-hook chain and a ``memory_stats`` record is
    appended to the trace on exit, which ``repro report memory`` renders
    as the hotspot table.
    """

    def __init__(
        self,
        trace_path: str | Path | None = None,
        autograd: bool = True,
        label: str = "profile",
        tracer: Tracer | None = None,
        events: bool = False,
        memory: bool = False,
    ):
        self.tracer = tracer or get_tracer()
        self.trace_path = Path(trace_path) if trace_path else None
        self.label = label
        self.metrics = MetricsRegistry()
        self.memory = InMemorySink()
        self.profiler = AutogradProfiler(clock=self.tracer.clock) if autograd else None
        self.tracker = MemoryTracker() if memory else None
        if events and self.trace_path is None:
            raise ValueError("events=True requires a trace_path to write to")
        self._events = events
        self.recorder = None
        self._jsonl: JsonlSink | None = None
        self._root = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ProfileSession":
        self.tracer.add_sink(self.memory)
        if self.trace_path is not None:
            self._jsonl = JsonlSink(self.trace_path, meta={"label": self.label})
            self.tracer.add_sink(self._jsonl)
        if self._events:
            self.recorder = events_mod.EventRecorder(
                label=self.label, clock=self.tracer.clock, sink=self._jsonl
            )
            events_mod.install(self.recorder)
        # Tracker first: it must see the original backward closures to
        # account retained bytes, before the profiler wraps them.
        if self.tracker is not None:
            self.tracker.install()
        if self.profiler is not None:
            self.profiler.install()
        self._root = self.tracer.span(self.label, kind="profile").start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._root.finish()
        if self.profiler is not None:
            self.profiler.uninstall()
        if self.tracker is not None:
            self.tracker.uninstall()
        if self.recorder is not None:
            events_mod.uninstall(self.recorder)
            self.recorder = None
        if self._jsonl is not None:
            self._jsonl.write_op_stats(self.op_stats())
            self._jsonl.write_metrics(self.metrics)
            if self.tracker is not None:
                self._jsonl.write_record(
                    {"type": "memory_stats", "data": self.tracker.stats()}
                )
            self.tracer.remove_sink(self._jsonl)
            self._jsonl.close()
            self._jsonl = None
        self.tracer.remove_sink(self.memory)
        return False

    # ------------------------------------------------------------------
    def op_stats(self) -> list[dict]:
        return self.profiler.stats() if self.profiler is not None else []

    @property
    def duration(self) -> float:
        """Wall time of the profiled block (root span duration)."""
        return self._root.duration if self._root is not None else 0.0

    def metric_scalars(self) -> dict[str, float]:
        """Manifest-ready flat view of the session's registry.

        What ``repro profile`` hands the run ledger: every instrument
        collapsed to one scalar, plus the profiled wall time under
        ``profile.duration_s``.
        """
        scalars = self.metrics.scalars()
        if self.duration:
            scalars["profile.duration_s"] = float(self.duration)
        return scalars

    def report(self, top: int = 10) -> str:
        """Render the hotspot report for everything collected so far."""
        text = hotspot_report(
            self.memory.spans,
            op_stats=self.op_stats(),
            metrics=self.metrics.snapshot() if len(self.metrics) else None,
            top=top,
        )
        if self.tracker is not None:
            text = "\n\n".join(
                [text, render_memory_report(self.tracker.stats(), top=top)]
            )
        return text
