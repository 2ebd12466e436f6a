"""Multi-process search orchestration (DESIGN.md section 12).

The one place in ``src/repro`` allowed to touch ``multiprocessing``
(the ``raw-multiprocessing`` lint rule enforces it). Everything
embarrassingly parallel in the repo — SANE search seeds, NAS
candidate trainings, bench-table cells — is expressed as a
:class:`SearchJob` and executed by a :class:`WorkerPool`, which
merges results deterministically by job id.

:mod:`repro.parallel.sweep` (imported explicitly, not re-exported
here, to keep this package importable from the experiment runners
without a cycle) builds multi-seed/multi-dataset sweeps on top.
"""

from repro.parallel.jobs import (
    JobDispatchError,
    JobError,
    ParallelError,
    SearchJob,
    WorkerCrashError,
    derive_seed,
    execute_job,
    resolve_job_fn,
)
from repro.parallel.pool import WorkerPool

__all__ = [
    "SearchJob",
    "WorkerPool",
    "derive_seed",
    "execute_job",
    "resolve_job_fn",
    "ParallelError",
    "JobDispatchError",
    "JobError",
    "WorkerCrashError",
]
