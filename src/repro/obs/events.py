"""Structured event log: what the search *did*, not where time went.

Spans (PR 2) answer "where does time go"; events answer "why did the
search converge to this architecture". An :class:`EventRecorder`
captures a stream of typed records — per-epoch alpha softmax matrices,
per-edge entropies, genotype flips, gradient norms, loss/score curves —
that ``repro report run``/``report diff`` turn into dashboards.

Design constraints (mirroring the span layer):

* **emitting is a no-op unless a recorder is installed** — library code
  calls :func:`emit` unconditionally; with no recorder the call returns
  before touching any payload, so a recorded search is bit-identical to
  an unrecorded one (the PR-2 guarantee extends to events);
* **the sink machinery is shared** — an events file is a trace
  (``{"type": "meta", "kind": "trace"}`` header via
  :class:`~repro.obs.sinks.JsonlSink`) whose lines carry
  ``"type": "event"`` records; span records may interleave in the same
  file, so one artifact feeds both the telemetry dashboard and the
  hotspot report;
* **clocks are injectable and optional** — with no clock, events carry
  no wall time and two seeded runs produce byte-identical files; pass a
  clock (real or fake) to stamp events with ``t``.

Event schema (one JSON object per line, inside a trace)::

    {"type": "event", "seq": 0, "event": "<name>",
     "epoch": 3?, "t": 1.25?, "data": {...}?}

The vocabulary (same record shape, different ``event`` kinds)
includes the tape-health stream: ``numerics_anomaly`` (a NaN / Inf /
overflow with op/edge/layer/span provenance, warn mode only —
raise mode aborts instead), ``grad_health`` (per-epoch alpha/weight
grad norms, their ratio, and update/param scales), and ``dead_op``
(a mixture weight underflowed the monitor's epsilon). Traces may also
carry a ``"type": "memory_stats"`` record — the
:class:`repro.obs.memory.MemoryTracker` snapshot behind ``repro report
memory``.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.obs.sinks import JsonlSink
from repro.obs.spans import get_tracer

__all__ = [
    "EventRecorder",
    "install",
    "uninstall",
    "enabled",
    "emit",
    "record_events",
    "to_jsonable",
]

def to_jsonable(value):
    """Recursively convert numpy containers/scalars to JSON-safe types."""
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


class EventRecorder:
    """Captures event records in memory and, optionally, to a JSONL file.

    ``path`` opens an owned :class:`JsonlSink` (trace header carrying
    ``label``); ``sink`` shares an already-open sink (the
    way :class:`~repro.obs.session.ProfileSession` interleaves events
    into its trace file). ``clock`` adds a ``t`` wall-time field to
    every record — omit it for byte-identical seeded runs.

    The recorder doubles as a context manager that installs itself as
    the process-wide recorder for the duration of the block.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        label: str = "run",
        clock: Callable[[], float] | None = None,
        meta: dict | None = None,
        sink: JsonlSink | None = None,
    ):
        self.label = label
        self.clock = clock
        self.records: list[dict] = []
        self._seq = 0
        self._shared = sink
        self._owned: JsonlSink | None = None
        if path is not None:
            header = {"label": label}
            if meta:
                header.update(meta)
            self._owned = JsonlSink(path, meta=header)

    # ------------------------------------------------------------------
    def emit(self, event: str, epoch: int | None = None, **data) -> dict:
        """Append one event record (and stream it to the sink, if any)."""
        record: dict = {"type": "event", "seq": self._seq, "event": event}
        if epoch is not None:
            record["epoch"] = int(epoch)
        if self.clock is not None:
            record["t"] = float(self.clock())
        if data:
            record["data"] = to_jsonable(data)
        self._seq += 1
        self.records.append(record)
        sink = self._owned or self._shared
        if sink is not None:
            sink.write_record(record)
        return record

    def events(self, name: str | None = None) -> list[dict]:
        """Recorded events, optionally filtered by event name."""
        if name is None:
            return list(self.records)
        return [r for r in self.records if r["event"] == name]

    def close(self) -> None:
        if self._owned is not None:
            self._owned.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "EventRecorder":
        install(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        uninstall(self)
        self.close()
        return False


# ---------------------------------------------------------------------
# The process-wide recorder. Library code (searchers, trainers) emits
# through the module-level emit(); nothing happens until one installs.
# ---------------------------------------------------------------------
_RECORDER: EventRecorder | None = None


def install(recorder: EventRecorder) -> None:
    """Make ``recorder`` the process-wide event recorder."""
    global _RECORDER
    if _RECORDER is not None and _RECORDER is not recorder:
        raise RuntimeError("an EventRecorder is already installed")
    _RECORDER = recorder


def uninstall(recorder: EventRecorder | None = None) -> None:
    """Remove the installed recorder (no-op if ``recorder`` is not it)."""
    global _RECORDER
    if recorder is None or _RECORDER is recorder:
        _RECORDER = None


def enabled() -> bool:
    """True when an event recorder is installed."""
    return _RECORDER is not None


def emit(event: str, epoch: int | None = None, **data) -> None:
    """Emit through the installed recorder; no-op when none is."""
    if _RECORDER is not None:
        _RECORDER.emit(event, epoch=epoch, **data)


@contextlib.contextmanager
def record_events(
    path: str | Path | None = None,
    label: str = "run",
    clock: Callable[[], float] | None = None,
    meta: dict | None = None,
    spans: bool = False,
) -> Iterator[EventRecorder]:
    """Install an :class:`EventRecorder` for the duration of the block.

    With ``spans=True`` (requires ``path``) the underlying JSONL sink is
    also attached to the process tracer, so span records interleave with
    events in one file and ``repro report diff`` can compute hotspot
    deltas from it.
    """
    recorder = EventRecorder(path=path, label=label, clock=clock, meta=meta)
    if spans and recorder._owned is None:
        raise ValueError("spans=True requires a path to write the trace to")
    install(recorder)
    tracer = get_tracer()
    if spans:
        tracer.add_sink(recorder._owned)
    try:
        yield recorder
    finally:
        if spans:
            tracer.remove_sink(recorder._owned)
        uninstall(recorder)
        recorder.close()
