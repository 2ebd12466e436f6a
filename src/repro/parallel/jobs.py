"""Job descriptions and the single job-execution code path.

A :class:`SearchJob` names a unit of independent work — one SANE
search seed, one candidate training, one bench-table cell — as an
importable function plus picklable keyword arguments. The *same*
:func:`execute_job` runs the job whether the pool is in-process
(``workers <= 1``) or fanned out over spawn workers, so there is
exactly one seed-iteration code path (DESIGN.md section 12).

Seed derivation
---------------
:func:`derive_seed` maps ``(base_seed, job_id)`` through a
``numpy.random.SeedSequence`` so every job owns an independent,
platform-stable stream. Because the derived seed depends only on the
pair — never on scheduling, worker count, or completion order — the
merged output of a parallel run is bit-identical to the sequential
run.
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np

__all__ = [
    "SearchJob",
    "derive_seed",
    "execute_job",
    "resolve_job_fn",
    "ParallelError",
    "JobDispatchError",
    "JobError",
    "WorkerCrashError",
]


def derive_seed(base_seed: int, job_id: int) -> int:
    """Deterministic per-job seed from ``(base_seed, job_id)``.

    Spawned from a :class:`numpy.random.SeedSequence` so nearby pairs
    (``job_id`` 0, 1, 2, ...) still yield statistically independent
    streams — ``base_seed + job_id`` would alias job 1 of seed 0 with
    job 0 of seed 1.
    """
    sequence = np.random.SeedSequence([int(base_seed), int(job_id)])
    return int(sequence.generate_state(1)[0])


class ParallelError(RuntimeError):
    """Base class for orchestrator failures."""


class JobDispatchError(ParallelError):
    """A job could not be shipped to workers (unpicklable payload).

    Raised synchronously from :meth:`WorkerPool.run` before anything
    is sent — a poisoned task never reaches a worker, so it can never
    wedge one.
    """


class JobError(ParallelError):
    """A job raised inside a worker process.

    Carries the remote traceback text: the original exception object
    may not survive pickling, the formatted traceback always does.
    """

    def __init__(self, job_id: int, tag: str, error_type: str,
                 message: str, remote_traceback: str = ""):
        super().__init__(
            f"job {job_id} ({tag or 'untagged'}) failed in worker: "
            f"{error_type}: {message}"
        )
        self.job_id = job_id
        self.tag = tag
        self.error_type = error_type
        self.remote_traceback = remote_traceback


class WorkerCrashError(ParallelError):
    """A worker process died (non-zero exit, signal) while running a job."""

    def __init__(self, job_id: int, tag: str, exitcode: int | None):
        super().__init__(
            f"worker crashed (exitcode={exitcode}) while running "
            f"job {job_id} ({tag or 'untagged'}); retry budget exhausted"
        )
        self.job_id = job_id
        self.tag = tag
        self.exitcode = exitcode


@dataclasses.dataclass(frozen=True)
class SearchJob:
    """One independent unit of search work.

    ``fn`` is an importable ``"module:function"`` path rather than a
    callable: spawn workers re-import it, which forces every job body
    to be a module-level function — the property that makes the
    sequential and parallel paths literally the same code.
    """

    job_id: int
    fn: str
    kwargs: dict = dataclasses.field(default_factory=dict)
    tag: str = ""


def resolve_job_fn(path: str):
    """Import ``"module:function"`` and return the callable."""
    module_name, _, fn_name = path.partition(":")
    if not module_name or not fn_name:
        raise ValueError(
            f"job fn {path!r} is not of the form 'module:function'"
        )
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name, None)
    if fn is None or not callable(fn):
        raise ValueError(f"job fn {path!r} does not name a callable")
    return fn


def execute_job(job: SearchJob):
    """Run one job body — the code path shared by all execution modes."""
    return resolve_job_fn(job.fn)(**job.kwargs)
