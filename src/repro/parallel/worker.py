"""Worker-process entry point for the :class:`WorkerPool`.

Each worker is a spawn-started process serving one duplex pipe of its
own: the parent sends it a job, waits for the answer, and sends the
next only once the worker is idle again, so the parent always knows
which job a worker holds. Answers are written synchronously: a
message is fully in the pipe before the next line runs, so a job that
kills its process cannot take a half-sent or still-buffered message
with it. The protocol (DESIGN.md section 12):

* parent → worker: the job, pickled by the parent (an unpicklable job
  fails there, before anything is sent);
* ``("ok", result_bytes, span_records)`` — the job finished; the
  result is pre-pickled *in the worker* so an unpicklable return value
  surfaces as a typed error instead of killing the worker mid-send,
  and the job's spans ride along as plain dicts for
  :meth:`Tracer.adopt`;
* ``("error", error_type, message, traceback)`` — the job raised; the
  formatted traceback travels because the exception object itself may
  not pickle.

End-of-file on the pipe (the parent closed its end) means shut down:
:func:`worker_main` returns normally. Workers import the same single
kernel implementation as the parent, so no kernel setting crosses the
process boundary.
"""

from __future__ import annotations

import pickle
import traceback

from repro.obs import InMemorySink, get_tracer
from repro.parallel.jobs import execute_job

__all__ = ["worker_main"]


def worker_main(conn) -> None:
    """Loop: receive a job, run it, send the answer; return on end-of-file."""
    tracer = get_tracer()
    while True:
        try:
            payload = conn.recv_bytes()
        except EOFError:
            return
        sink = InMemorySink()
        try:
            job = pickle.loads(payload)
            with tracer.collect(sink):
                with tracer.span("job", kind="job", job=job.job_id, tag=job.tag):
                    result = execute_job(job)
            blob = pickle.dumps(result)
        except Exception as exc:
            conn.send(
                ("error", type(exc).__name__, str(exc), traceback.format_exc())
            )
            continue
        conn.send(("ok", blob, [span.to_dict() for span in sink.spans]))
