"""Synchronous-API server: inline memoized answers, threaded batching.

Callers submit requests from any thread. A request the engine answers
from its memo (``graph=None``, or any alignment request — see
:meth:`~repro.serve.engine.InferenceEngine.needs_forward`) is sliced
and resolved **on the caller's thread** inside ``submit_async``: it
never touches the queue, its lock or a worker. Only requests that
carry their own graph need a forward, and only they are queued:
worker threads drain the queue in batches of up to ``max_batch`` and
hand them to the :class:`~repro.serve.engine.InferenceEngine` as one
coalesced ``predict_batch``. Requests that arrive while a batch is in
flight pile up and are coalesced into the next one, so throughput
rises with concurrency while each forward stays full-graph-sized.

The API is synchronous (``submit`` blocks until the prediction is
ready) with an async escape hatch (``submit_async`` returns a
:class:`PendingRequest` whose ``result()`` blocks; an inline answer
comes back already resolved) — which is exactly what a closed-loop
load generator needs to simulate N outstanding clients without N OS
threads.

Every request carries a :class:`~repro.obs.context.RequestTrace`:
the root ``serve.request`` span opens at submission and records its
path (``memo`` or ``forward``) as an attribute; stage spans attach to
it by explicit parent id, never through the shared ``obs.span`` stack,
and the tree closes when the request resolves — so N concurrent
requests produce N disjoint span trees regardless of which thread
finishes them. A memoized request records ``slice`` and ``resolve``;
a queued one records all six stages (``enqueue``, ``queue_wait``,
``batch_assemble``, ``resolve`` here; ``forward``/``slice`` in the
engine). Tracing is always on: spans cost two clock reads each, draw
nothing from any RNG, and are discarded unless a sink is attached, so
traced serving output is bit-identical to untraced.

Latency is measured submit→resolve on the tracer's clock
(injectable, like every clock in ``repro.obs``), so tests can drive
the timeline deterministically. A request may carry a ``deadline_s``;
deadlines are *accounting-only* (the SLO counters record misses, no
request is shed), which keeps result identity independent of timing.
"""

from __future__ import annotations

import threading

from repro.obs import get_tracer
from repro.obs.context import RequestTrace, RequestTracer
from repro.serve.engine import InferenceEngine, Request

__all__ = ["PendingRequest", "ServeServer"]


class PendingRequest:
    """A submitted request; resolves to its prediction or an error."""

    __slots__ = (
        "request", "enqueued_at", "resolved_at", "trace",
        "_queue_wait", "_event", "_value", "_error",
    )

    def __init__(
        self,
        request: Request,
        enqueued_at: float,
        trace: RequestTrace | None = None,
    ):
        self.request = request
        self.enqueued_at = enqueued_at
        self.resolved_at: float | None = None
        self.trace = trace
        self._queue_wait = None  # open queue_wait span, finished by a worker
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def _resolve(self, value, at: float) -> None:
        self._value = value
        self.resolved_at = at
        self._event.set()

    def _fail(self, error: BaseException, at: float) -> None:
        self._error = error
        self.resolved_at = at
        self._event.set()

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None

    @property
    def latency(self) -> float | None:
        """Enqueue→resolve seconds (``None`` while still pending)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.enqueued_at

    def result(self, timeout: float | None = None):
        """Block until resolved; re-raises the engine's error, if any."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction not ready within timeout")
        if self._error is not None:
            raise self._error
        return self._value


class ServeServer:
    """Inline memo answers plus a queue and worker threads for forwards."""

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch: int = 64,
        workers: int = 1,
        clock=None,
        request_tracer: RequestTracer | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.metrics = engine.metrics
        self.max_batch = max_batch
        self._clock = clock if clock is not None else get_tracer().clock
        self.request_tracer = (
            request_tracer if request_tracer is not None else RequestTracer()
        )
        self._queue: list[PendingRequest] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = [None] * workers
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._stopping = False
        for index in range(len(self._threads)):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-{index}", daemon=True
            )
            self._threads[index] = thread
            thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, then stop the workers."""
        if not self._started:
            return
        with self._not_empty:
            self._stopping = True
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join()
        self._started = False

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _record_stage(self, trace: RequestTrace, span) -> None:
        self.metrics.observe_stage(span.name, span.duration, trace.trace_id)

    def submit_async(
        self, node_ids=None, graph=None, deadline_s=None
    ) -> PendingRequest:
        """Submit a request; returns a handle that resolves later (or
        already has: memoized requests are answered inline)."""
        request = Request(node_ids=node_ids, graph=graph, deadline_s=deadline_s)
        if not self.engine.needs_forward(request):
            return self._answer_inline(request)
        trace = self.request_tracer.start_request(path="forward")
        request.ctx = trace.context
        with trace.stage("enqueue") as enqueue_span:
            pending = PendingRequest(request, self._clock(), trace=trace)
            # queue_wait must open before the append: once notified, a
            # worker may pick the request up (and finish this span)
            # before submit_async regains the GIL.
            pending._queue_wait = trace.stage("queue_wait")
            with self._not_empty:
                if self._stopping or not self._started:
                    pending._queue_wait.finish()
                    trace.finish(status="rejected")
                    raise RuntimeError("server is not accepting requests")
                self._queue.append(pending)
                depth = len(self._queue)
                self._not_empty.notify()
        self._record_stage(trace, enqueue_span)
        self.metrics.observe_requests()
        self.metrics.observe_queue_depth(depth)
        return pending

    def _answer_inline(self, request: Request) -> PendingRequest:
        """Slice a memoized answer and resolve it on the caller's thread."""
        trace = self.request_tracer.start_request(path="memo")
        request.ctx = trace.context
        pending = PendingRequest(request, self._clock(), trace=trace)
        if self._stopping or not self._started:
            trace.finish(status="rejected")
            raise RuntimeError("server is not accepting requests")
        self.metrics.observe_requests()
        try:
            value = self.engine.answer(request)
        except Exception as error:
            self._settle([pending], error=error)
        else:
            self._settle([pending], [value])
        return pending

    def submit(
        self, node_ids=None, graph=None,
        timeout: float | None = None, deadline_s=None,
    ):
        """Synchronous predict: submit and block for the result."""
        return self.submit_async(
            node_ids=node_ids, graph=graph, deadline_s=deadline_s
        ).result(timeout)

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._not_empty:
                while not self._queue and not self._stopping:
                    self._not_empty.wait()
                if not self._queue:
                    return  # stopping and drained
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
                depth = len(self._queue)
            self.metrics.observe_queue_depth(depth)
            # Cross the boundary: this worker closes each request's
            # queue_wait (opened on the client thread) and times batch
            # assembly — dequeue to the moment the engine takes over.
            assembling = []
            for pending in batch:
                pending._queue_wait.finish()
                self._record_stage(pending.trace, pending._queue_wait)
                assembling.append(
                    pending.trace.stage("batch_assemble", batch=len(batch))
                )
            requests = [pending.request for pending in batch]
            for pending, span in zip(batch, assembling):
                span.finish()
                self._record_stage(pending.trace, span)
            try:
                results = self.engine.predict_batch(requests)
            except Exception as error:  # resolve, don't kill the worker
                self._settle(batch, error=error)
            else:
                self._settle(batch, results)

    def _settle(self, batch, results=None, error=None) -> None:
        """Resolve each request with its result (or fail it with
        ``error``) inside its ``resolve`` stage, then close its tree.
        Each request is stamped when its own ``resolve`` runs, so its
        latency includes settling the requests ahead of it."""
        for index, pending in enumerate(batch):
            with pending.trace.stage("resolve") as resolve_span:
                now = self._clock()
                if error is None:
                    pending._resolve(results[index], now)
                else:
                    pending._fail(error, now)
            self._record_stage(pending.trace, resolve_span)
            if error is not None:
                self.metrics.observe_error()
                pending.trace.finish(
                    status="error", error=type(error).__name__
                )
                continue
            latency = pending.latency
            self.metrics.observe_latency(latency, pending.trace_id)
            status = "ok"
            deadline = pending.request.deadline_s
            if deadline is not None and latency > deadline:
                self.metrics.observe_deadline_exceeded()
                status = "deadline_exceeded"
            pending.trace.finish(status=status, latency_s=latency)
