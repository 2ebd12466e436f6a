"""Worker-process entry point for the :class:`WorkerPool`.

Each worker is a spawn-started process looping over the shared task
queue. Results go back on a pipe of the worker's own, written
synchronously: a message is fully in the pipe before the next line
runs, so a job that kills its process cannot take a half-sent or
still-buffered message with it, and no lock is shared with other
workers that a death could leave held. The protocol (DESIGN.md
section 12) is three message kinds:

* ``("start", job_id, attempt, worker_id)`` — sent *before* the job
  body runs, so the parent can attribute an in-flight job to this
  worker for crash and timeout accounting;
* ``("ok", job_id, attempt, worker_id, result_bytes, span_records)``
  — the job finished; the result is pre-pickled *in the worker* so an
  unpicklable return value surfaces as a typed error instead of
  killing the worker mid-send, and the job's spans ride along
  as plain dicts for :meth:`Tracer.adopt`;
* ``("error", job_id, attempt, worker_id, error_type, message,
  traceback)`` — the job raised; the formatted traceback travels
  because the exception object itself may not pickle.

A ``None`` task is the shutdown sentinel. Workers import the same
single kernel implementation as the parent, so no kernel setting
crosses the process boundary.
"""

from __future__ import annotations

import pickle
import traceback

from repro.obs import InMemorySink, get_tracer
from repro.parallel.jobs import execute_job

__all__ = ["worker_main"]


def worker_main(worker_id: int, task_queue, results) -> None:
    """Loop: pull a task, run it, ship the result; exit on sentinel.

    ``results`` is the write end of this worker's result pipe.
    """
    tracer = get_tracer()
    while True:
        item = task_queue.get()
        if item is None:
            break
        job_id, attempt, payload = item
        results.send(("start", job_id, attempt, worker_id))
        sink = InMemorySink()
        try:
            job = pickle.loads(payload)
            with tracer.collect(sink):
                with tracer.span("job", kind="job", job=job_id, tag=job.tag):
                    result = execute_job(job)
            blob = pickle.dumps(result)
        except Exception as exc:
            results.send((
                "error", job_id, attempt, worker_id,
                type(exc).__name__, str(exc), traceback.format_exc(),
            ))
            continue
        records = [span.to_dict() for span in sink.spans]
        results.send(("ok", job_id, attempt, worker_id, blob, records))
