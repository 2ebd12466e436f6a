"""Nested wall-time spans and the tracer that records them.

A :class:`Span` is one timed region of execution (a search, an epoch,
a forward pass). Spans nest: the tracer keeps a stack, so a span opened
while another is running becomes its child, and a finished trace is a
forest that sinks and reporters can reassemble into trees.

Design constraints, in order:

* **timing is always on** — ``search_time``/``train_time`` fields all
  over the repo come from spans, so entering/leaving a span must be
  cheap enough to wrap every epoch unconditionally (two clock reads and
  one list append);
* **recording is opt-in** — a tracer with no sinks discards finished
  spans; traces/JSONL files only exist while a sink is attached (the
  ``repro profile`` command, a benchmark run, a test);
* **clocks are injectable** — ``Tracer(clock=...)`` lets tests produce
  deterministic durations; the default is ``time.perf_counter``.

This module is the one place in ``src/repro`` (together with the
autograd profiler) that may call ``time.perf_counter`` directly; the
``adhoc-timing`` lint rule enforces that everything else goes through
spans.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator

__all__ = ["ReplaySpan", "Span", "Tracer", "get_tracer", "op_scope", "span"]


class Span:
    """One timed, attributed region of execution.

    The span doubles as its own context manager::

        with tracer.span("epoch", index=3) as sp:
            ...
        print(sp.duration)

    and supports explicit ``start()``/``finish()`` for regions that do
    not nest lexically (e.g. a lifetime owned by an object).
    ``elapsed()`` reads the clock while the span is still open, which is
    what trajectory histories use for "seconds since the search began".
    """

    __slots__ = (
        "name",
        "kind",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "explicit",
        "t_start",
        "t_end",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, kind: str, attrs: dict):
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.span_id: int = -1  # assigned when the span starts
        self.parent_id: int | None = None
        self.depth: int = 0
        self.explicit: bool = False  # started outside the stack
        self.t_start: float = 0.0
        self.t_end: float | None = None
        self._tracer = tracer

    # ------------------------------------------------------------------
    def start(self) -> "Span":
        self._tracer._begin(self)
        return self

    def start_detached(self) -> "Span":
        """Start timing without joining the span tree.

        A detached span is a stopwatch: it never gets an id, never
        parents other spans, and is never dispatched to sinks. Used for
        lifetime measurements (e.g. the NAS evaluator's ``elapsed``
        field) where the region outlives any lexical scope.
        """
        self.t_start = self._tracer.clock()
        return self

    def start_explicit(self, parent_id: int | None = None, depth: int = 0) -> "Span":
        """Start with an explicit parent, outside the tracer's stack.

        Explicit spans are how request tracing crosses thread
        boundaries (:mod:`repro.obs.context`): the parent is named by
        id, not inferred from the calling thread's lexical nesting, so
        concurrent requests build disjoint trees instead of
        interleaving on the shared stack. An explicit span may be
        started on one thread and finished on another; it never
        parents stack spans and the stack never parents it.
        """
        self._tracer._begin_explicit(self, parent_id=parent_id, depth=depth)
        return self

    def finish(self) -> "Span":
        if self.t_end is None:
            if self.span_id < 0:  # detached: just stop the clock
                self.t_end = self._tracer.clock()
            elif self.explicit:  # not on the stack: close and dispatch
                self._tracer._end_explicit(self)
            else:
                self._tracer._end(self)
        return self

    def __enter__(self) -> "Span":
        if self.explicit or self.span_id >= 0:
            return self  # already started (explicit spans reused as CMs)
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the span started (valid while still open)."""
        return self._tracer.clock() - self.t_start

    @property
    def duration(self) -> float:
        """Total seconds; falls back to :meth:`elapsed` if still open."""
        if self.t_end is None:
            return self.elapsed()
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        """The JSONL trace record for this span (see DESIGN.md schema)."""
        record = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "kind": self.kind,
            "start": self.t_start,
            "end": self.t_end,
            "dur": self.duration,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.t_end is not None else "open"
        return f"Span({self.name!r}, {state})"


class ReplaySpan:
    """A finished span re-materialised from its trace record.

    Worker processes ship their spans home as plain dicts (see
    :meth:`Tracer.adopt`); sinks only ever call ``to_dict()`` on what
    they receive, so a thin wrapper around the already-serialised
    record is enough to re-dispatch it through the parent tracer.
    """

    __slots__ = ("record",)

    def __init__(self, record: dict):
        self.record = record

    @property
    def name(self) -> str:
        return self.record.get("name", "")

    @property
    def duration(self) -> float:
        return self.record.get("dur", 0.0)

    def to_dict(self) -> dict:
        return self.record

    def __repr__(self) -> str:
        return f"ReplaySpan({self.name!r}, {self.duration:.6f}s)"


class Tracer:
    """Produces spans, tracks nesting, and fans finished spans to sinks.

    Sinks are objects with a ``record(span)`` method (duck-typed; see
    :mod:`repro.obs.sinks`). With no sinks attached the tracer still
    times spans — it just has nobody to tell.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._sinks: list = []
        self._stack: list[Span] = []
        self._next_id = 0
        # Span ids are allocated from worker threads too (explicit
        # request spans), so the counter bump must be atomic.
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "span", **attrs) -> Span:
        """Create a span (not yet started); usually used as ``with``."""
        return Span(self, name, kind, attrs)

    def _allocate_id(self) -> int:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _begin(self, span: Span) -> None:
        span.span_id = self._allocate_id()
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        else:
            span.parent_id = None
            span.depth = 0
        self._stack.append(span)
        span.t_start = self.clock()

    def _end(self, span: Span) -> None:
        span.t_end = self.clock()
        # Unwind to this span; tolerates a parent finished before a
        # child by closing the abandoned children too.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.t_end is None:
                top.t_end = span.t_end
                self._dispatch(top)
        self._dispatch(span)

    def _begin_explicit(
        self, span: Span, parent_id: int | None = None, depth: int = 0
    ) -> None:
        span.explicit = True
        span.span_id = self._allocate_id()
        span.parent_id = parent_id
        span.depth = depth
        span.t_start = self.clock()

    def _end_explicit(self, span: Span) -> None:
        span.t_end = self.clock()
        self._dispatch(span)

    def _dispatch(self, span: Span) -> None:
        for sink in self._sinks:
            sink.record(span)

    def adopt(self, records: list[dict], root_name: str, **attrs) -> None:
        """Replay span records from another process under a synthetic root.

        The worker pool collects each job's spans in the worker process
        (as ``to_dict()`` records) and replays them here so per-worker
        trees land in whatever sinks the parent has attached — the
        bench summaries and ``repro report`` then show a
        ``worker-<i>/job/...`` breakdown. Ids are re-allocated from
        this tracer's counter (worker-local ids would collide across
        workers), parents are remapped accordingly, orphan records
        hang off the synthetic root, and times are rebased so the
        replayed tree ends at the adoption instant on the parent
        clock. With no sinks attached this is a no-op.
        """
        if not records or not self._sinks:
            return
        t_last = max(
            (r["end"] if r.get("end") is not None else r["start"])
            for r in records
        )
        offset = self.clock() - t_last
        root = Span(self, root_name, "worker", attrs)
        root.explicit = True
        root.span_id = self._allocate_id()
        root.t_start = min(r["start"] for r in records) + offset
        root.t_end = t_last + offset
        id_map = {r["id"]: self._allocate_id() for r in records}
        for record in records:
            replayed = dict(record)
            replayed["id"] = id_map[record["id"]]
            parent = record.get("parent")
            replayed["parent"] = id_map.get(parent, root.span_id)
            replayed["depth"] = record.get("depth", 0) + 1
            replayed["start"] = record["start"] + offset
            if record.get("end") is not None:
                replayed["end"] = record["end"] + offset
            self._dispatch(ReplaySpan(replayed))
        self._dispatch(root)

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def position(self) -> tuple[str, tuple[str, int] | None]:
        """``(span path, innermost epoch)`` of the open span stack.

        The epoch is the innermost ``epoch`` span's own path and
        ``index``, or None when there is none or it has no index.
        """
        names = [span.name for span in self._stack]
        for depth in range(len(names) - 1, -1, -1):
            if names[depth] == "epoch":
                index = self._stack[depth].attrs.get("index")
                if index is None:
                    break
                return "/".join(names), ("/".join(names[: depth + 1]), int(index))
        return "/".join(names), None

    def innermost(self, name: str) -> Span | None:
        """The innermost open stack span called ``name``, if any."""
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    @property
    def has_sinks(self) -> bool:
        """True when at least one sink is attached (recording is on)."""
        return bool(self._sinks)

    def add_sink(self, sink) -> None:
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    @contextlib.contextmanager
    def collect(self, *sinks) -> Iterator[None]:
        """Attach ``sinks`` for the duration of the block."""
        for sink in sinks:
            self.add_sink(sink)
        try:
            yield
        finally:
            for sink in sinks:
                self.remove_sink(sink)


# ---------------------------------------------------------------------
# The process-wide default tracer. Library code (trainer, searchers)
# opens spans on this tracer; profiling attaches sinks to it.
# ---------------------------------------------------------------------
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer all library spans go through."""
    return _TRACER


def span(name: str, kind: str = "span", **attrs) -> Span:
    """Shorthand for ``get_tracer().span(...)``."""
    return _TRACER.span(name, kind, **attrs)


def op_scope(*, edge: str, layer: int | None, op: str) -> Span:
    """An ``op`` span naming the supernet (edge, layer, op) run inside it.

    The one attribution scope of timing, memory and numerics: the phase
    breakdown times it, the memory tracker's span path ends at it, and
    the health monitor reads its attributes off the tracer
    (:meth:`Tracer.innermost`). Opened on every forward, with or without
    sinks or monitors; it draws no randomness, so seeded runs stay
    bit-identical.
    """
    return _TRACER.span("op", "op", edge=edge, layer=layer, op=op)
