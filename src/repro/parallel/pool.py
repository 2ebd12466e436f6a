"""Seeded multi-process worker pool with deterministic merge.

:class:`WorkerPool` executes :class:`SearchJob` batches. At
``workers <= 1`` it runs jobs in-process, in the order given, through
the same :func:`execute_job` path the workers use — no separate
sequential loop exists anywhere. At ``workers >= 2`` it spawn-starts
persistent worker processes, each reached by one duplex pipe that
carries its jobs out and its results back, and merges results **by
job id**, so the returned list is bit-identical to the in-process run
regardless of worker count or completion order.

Dispatch order is the caller's: the parent hands the jobs, in the
order :meth:`WorkerPool.run` receives them, each to a worker that is
idle, so a caller that knows which jobs run longest can hand those
out first and shorten the idle tail of a batch
(:meth:`ArchitectureEvaluator.evaluate_batch` does). Entering the pool
as a context manager at ``workers >= 2`` starts the workers at once,
so their start-up overlaps whatever the caller does before its first
:meth:`WorkerPool.run`; a pool used without ``with`` spawns them
lazily, when a run has a job to hand them.

Robustness contract (exercised by ``tests/parallel/``). The parent
knows which job each worker holds, so every failure is charged to
exactly one job:

* an unpicklable task raises :class:`JobDispatchError` before
  anything is sent;
* a worker that dies holding a job (end-of-file on its pipe, or a
  failed send) crashes that job, which is retried at most
  ``_MAX_RETRIES`` times on another worker, then
  :class:`WorkerCrashError` surfaces — a worker that can never start
  charges a job on every attempt, so the batch ends there too;
* a worker found dead while idle is replaced, and no job is charged;
* a job that raises is retried the same way, then :class:`JobError`
  carries the remote traceback. In-process mode re-raises the
  original exception unwrapped (callers like the CLI's
  ``--check-numerics raise`` depend on catching the real type).

A job has no time limit: one that never returns blocks its run, so
a caller that must end runs under an outside guard (CI's sweeps run
under a shell ``timeout``).

On any fatal error the pool shuts its workers down before raising —
a failed run never leaves orphan processes behind. The pool is
reusable afterwards (workers respawn lazily).

Telemetry lands in the pool's :class:`MetricsRegistry` (pass the
bench registry to fold it into a ``BENCH_*.json`` payload):
``parallel.jobs`` / ``parallel.retries`` / ``parallel.crashes``
counters, ``parallel.workers`` /
``parallel.queue_depth`` (jobs waiting for a worker) /
``parallel.utilization`` / ``parallel.straggler_s`` gauges, plus
per-worker utilization: ``parallel.worker.<i>.busy_frac`` gauges and
``parallel.worker.<i>.tasks`` counters, mirrored into a
``pool_utilization`` telemetry event per batch (rendered by ``repro
report run``). Per-job span trees recorded in the workers are
replayed under ``worker-<i>`` roots via :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import collections
import pickle
from multiprocessing import connection

from repro.obs import MetricsRegistry, get_tracer
from repro.obs import events
from repro.parallel.jobs import (
    JobDispatchError,
    JobError,
    SearchJob,
    WorkerCrashError,
    execute_job,
)

__all__ = ["WorkerPool"]

# Further attempts a failed job gets before its error surfaces.
_MAX_RETRIES = 1


class WorkerPool:
    """Executes :class:`SearchJob` batches; see the module docstring."""

    def __init__(self, workers: int = 0, metrics: MetricsRegistry | None = None):
        self.workers = int(workers)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._procs: dict[int, object] = {}  # worker_id -> Process
        # worker_id -> the parent's end of that worker's duplex pipe
        self._conns: dict[int, connection.Connection] = {}
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

        waiting = collections.deque(by_id)  # the caller's order
        failures = dict.fromkeys(by_id, 0)
        held: dict[int, int] = {}  # worker id -> the job id it holds
        results: dict[int, object] = {}
        finish_times: list[float] = []
        busy_s = 0.0
        worker_busy: dict[int, float] = {}
        worker_tasks: dict[int, int] = {}
        depth = self.metrics.gauge("parallel.queue_depth")
        t_run = clock()

        def retry(job_id: int, error: Exception) -> None:
            """Put a failed job back in line, or raise once it is out of retries."""
            failures[job_id] += 1
            if failures[job_id] > _MAX_RETRIES:
                self.shutdown()
                raise error
            self.metrics.counter("parallel.retries").inc()
            waiting.append(job_id)

        def crashed(worker_id: int) -> None:
            """The worker holding a job is gone: charge that job."""
            job_id = held.pop(worker_id)
            exitcode = self._drop_worker(worker_id, grace_s=1.0)
            self.metrics.counter("parallel.crashes").inc()
            retry(job_id, WorkerCrashError(job_id, by_id[job_id].tag, exitcode))

        while waiting or held:
            for worker_id in self._idle_workers(held, len(waiting)):
                if not waiting:
                    break
                job_id = waiting.popleft()
                held[worker_id] = job_id
                try:
                    self._conns[worker_id].send_bytes(payloads[job_id])
                except OSError:
                    crashed(worker_id)
            depth.set(len(waiting))
            if not held:
                continue  # every send failed; each charged its job

            by_conn = {self._conns[wid]: wid for wid in held}
            for conn in connection.wait(list(by_conn)):
                worker_id = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker holds the only other end: it is gone.
                    crashed(worker_id)
                    continue
                job_id = held.pop(worker_id)
                if message[0] == "error":
                    __, etype, msg, tb = message
                    retry(job_id, JobError(job_id, by_id[job_id].tag, etype, msg, tb))
                    continue
                __, blob, records = message
                results[job_id] = pickle.loads(blob)
                finish_times.append(clock())
                self.metrics.counter("parallel.jobs").inc()
                job_busy = self._adopt_spans(worker_id, by_id[job_id], records)
                busy_s += job_busy
                worker_busy[worker_id] = worker_busy.get(worker_id, 0.0) + job_busy
                worker_tasks[worker_id] = worker_tasks.get(worker_id, 0) + 1

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
    def _idle_workers(self, busy, wanted: int) -> list[int]:
        """Live workers not in ``busy``, spawning up to ``wanted`` in all.

        Never more than the pool's size. A worker that died while idle
        held no job, so it is dropped (and replaced if needed) without
        charging one.
        """
        idle = []
        for worker_id, proc in list(self._procs.items()):
            if worker_id in busy:
                continue
            if proc.is_alive():
                idle.append(worker_id)
            else:
                self._drop_worker(worker_id, grace_s=0.0)
        while len(idle) < wanted and len(self._procs) < self.workers:
            idle.append(self._spawn())
        return idle

    def _spawn(self) -> int:
        import multiprocessing

        from repro.parallel.worker import worker_main

        ctx = multiprocessing.get_context("spawn")
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(theirs,),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        proc.start()
        # The worker now holds the only other end, so end-of-file on
        # ours means the worker is gone.
        theirs.close()
        self._procs[worker_id] = proc
        self._conns[worker_id] = ours
        return worker_id

    def _drop_worker(self, worker_id: int, grace_s: float) -> int | None:
        """Close a worker's pipe and reap it; return its exit code.

        A worker still alive ``grace_s`` after its pipe closed is
        terminated, then killed if it ignores that.
        """
        self._conns.pop(worker_id).close()
        proc = self._procs.pop(worker_id)
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        return proc.exitcode

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers and close their pipes; the pool stays reusable.

        Every pipe closes first, so idle workers see end-of-file and
        return together; a worker still busy after 5 s is terminated.
        """
        for conn in self._conns.values():
            conn.close()
        for worker_id in list(self._procs):
            self._drop_worker(worker_id, grace_s=5.0)

    def __enter__(self) -> "WorkerPool":
        if self.workers >= 2:
            self._idle_workers((), self.workers)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
