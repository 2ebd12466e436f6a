"""Request-scoped trace context: explicit parent handoff across threads.

The PR-2 tracer infers span parentage from a process-wide stack, which
is the right model for the search side — one thread, lexically nested
phases. The serving side breaks both assumptions: a request is born on
a client thread, waits in a queue, and is executed and resolved on a
worker thread, so "who is my parent" cannot be read off any stack.
This module adds the missing piece: **explicit context propagation**.

* :class:`TraceContext` — the immutable handoff record (trace id,
  request id, parent span id) that crosses the client→queue→worker
  boundary. It is plain data: serialisable, thread-agnostic, and the
  only thing the inference engine needs to attach its stages to the
  right tree.
* :class:`RequestTrace` — the server-side owner of one request's root
  span (``kind="request"``). Stage spans (``kind="stage"``) hang off
  the root by id, never off the tracer stack, so N concurrent requests
  produce N disjoint trees no matter how their threads interleave.
* :class:`RequestTracer` — the factory that allocates deterministic
  trace ids (a seeded prefix plus a monotonic counter — two identical
  runs name their traces identically) and opens request traces.
* :func:`context_span` — open one stage span from a bare
  :class:`TraceContext`, which is how code on the far side of the
  queue (the engine's forward/slice stages) joins the tree without
  ever seeing the root :class:`~repro.obs.spans.Span` object.

Everything reuses the PR-2 machinery: spans dispatch to whatever sinks
are attached to the tracer (none attached → the tree is timed and
discarded), records carry ``attrs.trace``/``attrs.request`` so trace
files group per request, and clocks stay injectable for deterministic
tests. Creating a request trace reads the clock a handful of times and
draws nothing from any RNG, so traced serving output is bit-identical
to untraced serving output.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.obs.spans import Span, Tracer, get_tracer

__all__ = [
    "TraceContext",
    "RequestTrace",
    "RequestTracer",
    "context_span",
    "mirror_span",
    "REQUEST_SPAN",
    "REQUEST_STAGES",
    "PATH_STAGES",
]

# The root span name every request tree hangs off, and the canonical
# stage vocabulary in pipeline order (reports render stages in this
# order; unknown stage names sort after them).
REQUEST_SPAN = "serve.request"
REQUEST_STAGES = (
    "enqueue",
    "queue_wait",
    "batch_assemble",
    "forward",
    "slice",
    "resolve",
)
# The stages a complete tree records, by the ``path`` attribute of its
# root: a queued request needing a forward goes through every stage; a
# memoized one is sliced and resolved on the caller's thread.
PATH_STAGES = {
    "forward": REQUEST_STAGES,
    "memo": ("slice", "resolve"),
}


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The handoff record that propagates a trace across a boundary.

    ``parent_span_id`` names the span new stages should attach to —
    for serve requests, the root ``serve.request`` span. The receiving
    side never needs the live span object, only this record.
    """

    trace_id: str
    request_id: int
    parent_span_id: int | None = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "parent_span_id": self.parent_span_id,
        }


def context_span(
    name: str,
    ctx: TraceContext,
    tracer: Tracer | None = None,
    kind: str = "stage",
    **attrs,
) -> Span:
    """Start a stage span as a child of ``ctx``'s parent span.

    Explicit-parent, stack-free: safe to call from any thread, and the
    returned (already started) span may be finished on a different
    thread than the one that started it.
    """
    span = Span(
        tracer if tracer is not None else get_tracer(), name, kind,
        {"trace": ctx.trace_id, "request": ctx.request_id, **attrs},
    )
    return span.start_explicit(parent_id=ctx.parent_span_id, depth=1)


def mirror_span(
    name: str,
    ctx: TraceContext,
    t_start: float,
    t_end: float,
    tracer: Tracer | None = None,
    kind: str = "stage",
    **attrs,
) -> Span:
    """Record a stage span that copies an already-measured window.

    The batching engine runs **one** coalesced forward for a whole
    group of requests; each request's tree still deserves a ``forward``
    stage, so every member gets a span mirroring the shared window
    (same start/end, ``shared=N`` attr says how many trees share it).
    The span is recorded fully formed — started and finished with the
    given timestamps — and dispatched to sinks immediately.
    """
    tracer = tracer if tracer is not None else get_tracer()
    span = tracer.span(
        name, kind=kind, trace=ctx.trace_id, request=ctx.request_id, **attrs
    )
    span.explicit = True
    span.span_id = tracer._allocate_id()
    span.parent_id = ctx.parent_span_id
    span.depth = 1
    span.t_start = float(t_start)
    span.t_end = float(t_end)
    tracer._dispatch(span)
    return span


class RequestTrace:
    """One request's span tree: a root span plus stage children.

    Created on the submitting thread, finished on a worker thread; the
    stages in between may come from either side of the queue. The root
    is started immediately (enqueue time is the tree's origin) and
    stays open until :meth:`finish`.
    """

    __slots__ = ("tracer", "context", "root")

    def __init__(
        self, tracer: Tracer, trace_id: str, request_id: int, **attrs
    ):
        self.tracer = tracer
        self.root = tracer.span(
            REQUEST_SPAN, kind="request",
            trace=trace_id, request=request_id, **attrs,
        )
        self.root.start_explicit(parent_id=None, depth=0)
        self.context = TraceContext(
            trace_id=trace_id,
            request_id=request_id,
            parent_span_id=self.root.span_id,
        )

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def stage(self, name: str, **attrs) -> Span:
        """Start one stage span under this request's root."""
        return context_span(name, self.context, tracer=self.tracer, **attrs)

    def finish(self, **attrs) -> Span:
        """Close the root span (idempotent); ``attrs`` annotate it."""
        if attrs:
            self.root.attrs.update(attrs)
        return self.root.finish()


class RequestTracer:
    """Allocates request traces with deterministic ids.

    Trace ids are ``<prefix><counter:08x>`` — no RNG, no wall clock —
    so a seeded bench names its traces identically across runs and a
    p99 exemplar recorded today still points at the same logical
    request tomorrow. The counter is the request id; both are
    per-factory (per-server), allocated under a lock because clients
    submit from arbitrary threads.
    """

    def __init__(self, tracer: Tracer | None = None, prefix: str = "t-"):
        self.tracer = tracer if tracer is not None else get_tracer()
        self.prefix = prefix
        self._lock = threading.Lock()
        self._next_request = 0

    def start_request(self, **attrs) -> RequestTrace:
        """Open a new request trace (root span starts now)."""
        with self._lock:
            request_id = self._next_request
            self._next_request += 1
        trace_id = f"{self.prefix}{request_id:08x}"
        return RequestTrace(self.tracer, trace_id, request_id, **attrs)

    @property
    def issued(self) -> int:
        """How many request traces this factory has started."""
        return self._next_request
