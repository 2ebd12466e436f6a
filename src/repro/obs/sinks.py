"""Span sinks and the one JSON-lines record format.

A sink is anything with ``record(span)``; the tracer calls it once per
*finished* span (children before parents, since children finish first).
Two implementations cover the subsystem's needs:

* :class:`InMemorySink` — keeps the spans for post-hoc reporting
  (hotspot report, benchmark summaries, tests);
* :class:`JsonlSink` — streams one JSON object per line to a file.
  Every stream file this package writes goes through it: profile and
  serve traces, event logs (``type: event`` records, see
  :mod:`repro.obs.events`) and metrics snapshot files
  (:class:`~repro.obs.exporter.MetricsSnapshotter`).

Every stream file opens with one header line::

    {"type": "meta", "kind": "trace"|"snapshots", "version": 1, ...}

and its other lines are discriminated by ``type``: ``span``,
``event``, ``metrics``, ``op_stats`` and ``memory_stats`` in a trace,
``metrics-snapshot`` in a snapshot file. The run ledger
(:mod:`repro.obs.runs`) writes the same one-object-per-line records
without a header, since concurrent appenders cannot agree on who
writes it; each manifest carries ``version`` itself.

:func:`read_records` reads all of them back.
"""

from __future__ import annotations

import json
import threading
import warnings
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

__all__ = [
    "InMemorySink",
    "JsonlSink",
    "RECORD_VERSION",
    "RecordWarning",
    "read_records",
]

RECORD_VERSION = 1


class RecordWarning(UserWarning):
    """A record-file problem worth knowing about but never worth
    crashing for: a corrupt line, a failed ledger append."""


class InMemorySink:
    """Collects finished spans in completion order."""

    def __init__(self):
        self.spans: list[Span] = []

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        self.spans.clear()

    def records(self) -> list[dict]:
        """The spans as plain trace dicts."""
        return [span.to_dict() for span in self.spans]


class JsonlSink:
    """Streams records to ``path`` as JSON lines behind a ``meta`` header.

    ``meta`` extends the header; its ``kind`` defaults to ``"trace"``
    (a snapshot file sets ``"snapshots"``).
    """

    def __init__(self, path: str | Path, meta: dict | None = None):
        self.path = Path(path)
        self._file = self.path.open("w", encoding="utf-8")
        # Serving worker threads record request spans concurrently;
        # the lock keeps every JSONL line complete and un-interleaved.
        self._lock = threading.Lock()
        header = {"type": "meta", "kind": "trace", "version": RECORD_VERSION}
        header.update(meta or {})
        self.write_record(header)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def write_record(self, record: dict) -> None:
        """Append one arbitrary record (events, snapshots, stats)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._file.write(line)

    def flush(self) -> None:
        with self._lock:
            self._file.flush()

    def record(self, span: Span) -> None:
        self.write_record(span.to_dict())

    def write_metrics(self, registry: MetricsRegistry) -> None:
        self.write_record({"type": "metrics", "data": registry.snapshot()})

    def write_op_stats(self, op_stats: list[dict]) -> None:
        self.write_record({"type": "op_stats", "data": op_stats})

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_records(path: str | Path, kind: str | None = None) -> list[dict]:
    """Every record of a JSON-lines file, in file order.

    A line that is not a JSON object (garbage, or the torn tail of a
    crashed writer) is skipped with a :class:`RecordWarning`. With
    ``kind``, the first record must be that kind's ``meta`` header,
    else :class:`ValueError` — the file is not what the caller asked
    for.
    """
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                warnings.warn(
                    f"{path}:{number}: skipping corrupt line",
                    RecordWarning,
                    stacklevel=2,
                )
                continue
            records.append(record)
    if kind is not None and not (
        records
        and records[0].get("type") == "meta"
        and records[0].get("kind") == kind
    ):
        raise ValueError(
            f"{path}: not a repro {kind} file (missing "
            f'{{"type": "meta", "kind": "{kind}"}} header)'
        )
    return records
