"""Seeded multi-process worker pool with deterministic merge.

:class:`WorkerPool` executes :class:`SearchJob` batches. At
``workers <= 1`` it runs jobs in-process, in the order given, through
the same :func:`execute_job` path the workers use — no separate
sequential loop exists anywhere. At ``workers >= 2`` it spawn-starts
persistent worker processes sharing one task queue and one result
queue, and merges results **by job id**, so the returned list is
bit-identical to the in-process run regardless of worker count or
completion order.

Dispatch order is the caller's: jobs enter the task queue in the
order :meth:`WorkerPool.run` receives them, so a caller that knows
which jobs run longest can hand those out first and shorten the idle
tail of a batch (:meth:`ArchitectureEvaluator.evaluate_batch` does).
Entering the pool as a context manager at ``workers >= 2`` starts the
workers at once, so their start-up overlaps whatever the caller does
before its first :meth:`WorkerPool.run`; a pool used without ``with``
spawns them lazily on that first run.

Robustness contract (exercised by ``tests/parallel/``):

* an unpicklable task raises :class:`JobDispatchError` before
  anything is enqueued;
* a worker that dies mid-job is detected (end-of-file on its result
  pipe, read after every message it sent), its job is retried at most
  ``max_retries`` times on a replacement worker, then
  :class:`WorkerCrashError` surfaces;
* a job exceeding its timeout gets its worker killed and the same
  bounded retry, then :class:`JobTimeoutError`;
* a job that raises is retried the same way, then :class:`JobError`
  carries the remote traceback. In-process mode re-raises the
  original exception unwrapped (callers like the CLI's
  ``--check-numerics raise`` depend on catching the real type).

On any fatal error the pool shuts its workers down before raising —
a failed run never leaves orphan processes or a wedged queue. The
pool is reusable afterwards (workers respawn lazily).

Telemetry lands in the pool's :class:`MetricsRegistry` (pass the
bench registry to fold it into a ``BENCH_*.json`` payload):
``parallel.jobs`` / ``parallel.retries`` / ``parallel.crashes`` /
``parallel.timeouts`` counters, ``parallel.workers`` /
``parallel.queue_depth`` / ``parallel.utilization`` /
``parallel.straggler_s`` gauges, plus per-worker utilization:
``parallel.worker.<i>.busy_frac`` gauges and
``parallel.worker.<i>.tasks`` counters, mirrored into a
``pool_utilization`` telemetry event per batch (rendered by ``repro
report run``). Per-job span trees recorded in the workers are
replayed under ``worker-<i>`` roots via :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import pickle
from multiprocessing import connection

from repro.obs import MetricsRegistry, get_tracer
from repro.obs import events
from repro.parallel.jobs import (
    JobDispatchError,
    JobError,
    JobTimeoutError,
    SearchJob,
    WorkerCrashError,
    execute_job,
)

__all__ = ["WorkerPool"]

# Idle polls (no result message, every worker idle, task queue empty)
# tolerated after a worker died with no in-flight record before
# concluding it took a task with it — dequeued, but killed before its
# "start" message. Only such a death can orphan a task, so only such a
# death arms the sweep: while workers spawn, or while a task sits in
# the queue's pipe, the same idle picture means nothing is lost. A
# narrow race, but leaving it unhandled would hang the pool forever.
_ORPHAN_SWEEP_POLLS = 40


class WorkerPool:
    """Executes :class:`SearchJob` batches; see the module docstring."""

    def __init__(
        self,
        workers: int = 0,
        max_retries: int = 1,
        timeout_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        poll_s: float = 0.1,
    ):
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.timeout_s = timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.poll_s = poll_s
        self._ctx = None
        self._task_queue = None
        self._procs: dict[int, object] = {}  # worker_id -> Process
        # worker_id -> read end of that worker's own result pipe
        self._results: dict[int, connection.Connection] = {}
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    def run(self, jobs) -> list:
        """Execute ``jobs``; return results aligned with the input order.

        Results are merged by job id, so the output is a pure function
        of the job list — never of scheduling.
        """
        jobs = list(jobs)
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids in batch: {sorted(ids)}")
        self.metrics.gauge("parallel.workers").set(max(1, self.workers))
        if not jobs:
            return []
        if self.workers <= 1:
            return self._run_inline(jobs)
        return self._run_parallel(jobs)

    # ------------------------------------------------------------------
    def _run_inline(self, jobs: list[SearchJob]) -> list:
        """In-process fallback: same job bodies, in the order given."""
        depth = self.metrics.gauge("parallel.queue_depth")
        done = self.metrics.counter("parallel.jobs")
        results = []
        for position, job in enumerate(jobs):
            depth.set(len(jobs) - position)
            results.append(execute_job(job))
            done.inc()
        depth.set(0)
        self.metrics.gauge("parallel.utilization").set(1.0)
        self.metrics.gauge("parallel.straggler_s").set(0.0)
        # Pseudo-worker 0: the in-process path is one always-busy lane,
        # so the per-worker view stays uniform across worker counts.
        self._publish_worker_stats(
            {0: 1.0}, {0: len(jobs)}, utilization=1.0
        )
        return results

    # ------------------------------------------------------------------
    def _run_parallel(self, jobs: list[SearchJob]) -> list:
        clock = get_tracer().clock
        by_id = {job.job_id: job for job in jobs}
        payloads = {}
        for job in jobs:
            try:
                payloads[job.job_id] = pickle.dumps(job)
            except Exception as exc:
                raise JobDispatchError(
                    f"job {job.job_id} ({job.tag or 'untagged'}) is not "
                    f"picklable and cannot be dispatched: {exc}"
                ) from exc

        self._ensure_workers()
        pending = set(by_id)
        failures = {job_id: 0 for job_id in by_id}
        inflight: dict[int, tuple[int, int, float]] = {}  # wid -> (jid, attempt, t0)
        results: dict[int, object] = {}
        finish_times: list[float] = []
        busy_s = 0.0
        worker_busy: dict[int, float] = {}
        worker_tasks: dict[int, int] = {}
        idle_polls = 0
        # Workers that died with no in-flight record: each may have
        # taken a task with it, which arms the orphan sweep.
        unaccounted_deaths: set[int] = set()
        t_run = clock()

        depth = self.metrics.gauge("parallel.queue_depth")
        for job in jobs:
            self._task_queue.put((job.job_id, 0, payloads[job.job_id]))
        depth.set(len(pending))

        def fail(error):
            self.shutdown()
            raise error

        def retry(job_id: int) -> bool:
            nonlocal idle_polls
            failures[job_id] += 1
            if failures[job_id] > self.max_retries:
                return False
            self.metrics.counter("parallel.retries").inc()
            self._task_queue.put(
                (job_id, failures[job_id], payloads[job_id])
            )
            idle_polls = 0
            return True

        def crashed(job_id: int, exitcode) -> None:
            self.metrics.counter("parallel.crashes").inc()
            if not retry(job_id):
                fail(WorkerCrashError(job_id, by_id[job_id].tag, exitcode))

        def worker_gone(worker_id: int) -> None:
            """Handle a worker whose result pipe hit end-of-file.

            Every message it sent has been read by then, so an
            in-flight record is exact: present, the job crashed with
            it; absent, the worker died idle or between dequeue and
            its "start" message, and the orphan sweep is armed.
            """
            self._results.pop(worker_id).close()
            proc = self._procs.pop(worker_id)
            proc.join(timeout=1.0)  # reap, so exitcode is populated
            job = inflight.pop(worker_id, None)
            if job is None:
                unaccounted_deaths.add(worker_id)
            elif job[0] in pending:
                crashed(job[0], proc.exitcode)
            self._ensure_workers()

        while pending:
            by_conn = {conn: wid for wid, conn in self._results.items()}
            ready = connection.wait(list(by_conn), timeout=self.poll_s)
            if not ready:
                idle_polls += 1
            for conn in ready:
                worker_id = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker holds the only write end: it is gone.
                    worker_gone(worker_id)
                    continue
                idle_polls = 0
                kind, job_id = message[0], message[1]
                if kind == "start":
                    __, __, attempt, worker_id = message
                    if job_id in pending:
                        inflight[worker_id] = (job_id, attempt, clock())
                elif kind == "ok":
                    __, __, attempt, worker_id, blob, records = message
                    inflight.pop(worker_id, None)
                    if job_id in pending:
                        results[job_id] = pickle.loads(blob)
                        pending.discard(job_id)
                        finish_times.append(clock())
                        self.metrics.counter("parallel.jobs").inc()
                        job_busy = self._adopt_spans(
                            worker_id, by_id[job_id], records
                        )
                        busy_s += job_busy
                        worker_busy[worker_id] = (
                            worker_busy.get(worker_id, 0.0) + job_busy
                        )
                        worker_tasks[worker_id] = (
                            worker_tasks.get(worker_id, 0) + 1
                        )
                elif kind == "error":
                    __, __, attempt, worker_id, etype, msg, tb = message
                    inflight.pop(worker_id, None)
                    if job_id in pending and not retry(job_id):
                        fail(JobError(job_id, by_id[job_id].tag, etype, msg, tb))
                depth.set(len(pending) - len(inflight))

            # Timeouts: kill the worker, retry the job bounded times.
            now = clock()
            for worker_id, (job_id, attempt, t0) in list(inflight.items()):
                limit = by_id[job_id].timeout_s or self.timeout_s
                if limit is None or now - t0 <= limit:
                    continue
                inflight.pop(worker_id, None)
                self._kill_worker(worker_id)
                self.metrics.counter("parallel.timeouts").inc()
                if job_id in pending and not retry(job_id):
                    fail(JobTimeoutError(job_id, by_id[job_id].tag, limit))
                self._ensure_workers()

            # Orphan sweep: a worker died with no in-flight record and
            # since then every worker sat idle with nothing queued, yet
            # jobs are pending — their task died with that worker before
            # its "start" message. Re-enqueue, charging a retry.
            if (
                unaccounted_deaths
                and idle_polls >= _ORPHAN_SWEEP_POLLS
                and not inflight
                and pending
                and self._task_queue.empty()
            ):
                unaccounted_deaths.clear()
                for job in jobs:
                    if job.job_id in pending:
                        crashed(job.job_id, None)

        wall = max(clock() - t_run, 1e-9)
        utilization = min(1.0, busy_s / (self.workers * wall))
        self.metrics.gauge("parallel.utilization").set(utilization)
        straggler = 0.0
        if len(finish_times) >= 2:
            tail = sorted(finish_times)[-2:]
            straggler = tail[1] - tail[0]
        self.metrics.gauge("parallel.straggler_s").set(straggler)
        depth.set(0)
        self._publish_worker_stats(
            {
                wid: min(1.0, worker_busy.get(wid, 0.0) / wall)
                for wid in set(worker_busy) | set(worker_tasks)
            },
            worker_tasks,
            utilization=utilization,
        )
        return [results[job.job_id] for job in jobs]

    # ------------------------------------------------------------------
    def _publish_worker_stats(
        self,
        busy_frac: dict[int, float],
        tasks: dict[int, int],
        utilization: float,
    ) -> None:
        """Per-worker gauges + the ``pool_utilization`` event.

        ``parallel.worker.<i>.busy_frac`` is last-batch (gauge);
        ``parallel.worker.<i>.tasks`` accumulates across batches
        (counter) — sweep manifests fold both in, and ``repro report
        run`` renders the per-worker table when the event stream was
        recorded. Emitted values in the in-process path are constants,
        so byte-identical seeded dashboards stay byte-identical.
        """
        per_worker = {}
        for wid in sorted(set(busy_frac) | set(tasks)):
            frac = float(busy_frac.get(wid, 0.0))
            count = int(tasks.get(wid, 0))
            self.metrics.gauge(f"parallel.worker.{wid}.busy_frac").set(frac)
            self.metrics.counter(f"parallel.worker.{wid}.tasks").inc(count)
            per_worker[str(wid)] = {"busy_frac": frac, "tasks": count}
        events.emit(
            "pool_utilization",
            workers=max(1, self.workers),
            utilization=float(utilization),
            per_worker=per_worker,
        )

    # ------------------------------------------------------------------
    def _adopt_spans(self, worker_id: int, job: SearchJob, records) -> float:
        """Replay a job's worker spans; return the job's busy seconds."""
        busy = 0.0
        for record in records:
            if record.get("name") == "job" and record.get("dur"):
                busy = float(record["dur"])
        tracer = get_tracer()
        if tracer.has_sinks:
            tracer.adopt(
                records, f"worker-{worker_id}", job=job.job_id, tag=job.tag
            )
        return busy

    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        """Spawn workers up to the configured count (replacing dead ones)."""
        import multiprocessing

        if self._ctx is None:
            self._ctx = multiprocessing.get_context("spawn")
            self._task_queue = self._ctx.Queue()
        from repro.parallel.worker import worker_main

        while len(self._procs) < self.workers:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            reader, writer = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self._task_queue, writer),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            proc.start()
            # The worker now holds the only write end, so end-of-file
            # on the read end means the worker is gone.
            writer.close()
            self._procs[worker_id] = proc
            self._results[worker_id] = reader

    def _kill_worker(self, worker_id: int) -> None:
        proc = self._procs.pop(worker_id, None)
        if proc is None:
            return
        self._results.pop(worker_id).close()
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers and drop the queue and pipes; the pool stays reusable."""
        if self._ctx is None:
            return
        for __ in self._procs:
            try:
                self._task_queue.put(None)
            except (OSError, ValueError):
                break
        for worker_id, proc in list(self._procs.items()):
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs.clear()
        for reader in self._results.values():
            reader.close()
        self._results.clear()
        self._task_queue.cancel_join_thread()
        self._task_queue.close()
        self._ctx = None
        self._task_queue = None

    def __enter__(self) -> "WorkerPool":
        if self.workers >= 2:
            self._ensure_workers()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
