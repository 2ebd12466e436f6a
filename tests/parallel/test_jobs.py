"""SearchJob plumbing: seed derivation, fn resolution, error types."""

import dataclasses

import pytest

from repro.parallel import (
    JobDispatchError,
    JobError,
    ParallelError,
    SearchJob,
    WorkerCrashError,
    derive_seed,
    execute_job,
    resolve_job_fn,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_varies_with_job_id(self):
        seeds = {derive_seed(0, job_id) for job_id in range(100)}
        assert len(seeds) == 100

    def test_varies_with_base_seed(self):
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_no_additive_aliasing(self):
        # The whole point of SeedSequence spawning over `base + job`:
        # (base=0, job=1) and (base=1, job=0) must not collide.
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_fits_in_uint32(self):
        for job_id in range(20):
            assert 0 <= derive_seed(123, job_id) < 2**32


class TestResolveJobFn:
    def test_resolves_module_level_function(self):
        fn = resolve_job_fn("repro.parallel.testing:echo_job")
        assert fn("x") == "x"

    def test_rejects_missing_colon(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_job_fn("repro.parallel.testing.echo_job")

    def test_rejects_unknown_module(self):
        with pytest.raises(ModuleNotFoundError):
            resolve_job_fn("repro.parallel.nonexistent:echo_job")

    def test_rejects_unknown_attribute(self):
        with pytest.raises(ValueError, match="does not name a callable"):
            resolve_job_fn("repro.parallel.testing:missing_job")


class TestSearchJob:
    def test_frozen(self):
        job = SearchJob(job_id=0, fn="repro.parallel.testing:echo_job")
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.job_id = 1

    def test_execute_job_runs_kwargs(self):
        job = SearchJob(
            job_id=0,
            fn="repro.parallel.testing:echo_job",
            kwargs={"value": 41},
        )
        assert execute_job(job) == 41


class TestErrorHierarchy:
    def test_all_errors_are_parallel_errors(self):
        for etype in (JobDispatchError, JobError, WorkerCrashError):
            assert issubclass(etype, ParallelError)
        assert issubclass(ParallelError, RuntimeError)

    def test_job_error_carries_provenance(self):
        error = JobError(3, "cell-a", "ValueError", "boom", "Traceback ...")
        assert error.job_id == 3
        assert error.tag == "cell-a"
        assert error.error_type == "ValueError"
        assert "boom" in str(error)

    def test_crash_error_exitcode(self):
        error = WorkerCrashError(2, "crashy", 3)
        assert error.exitcode == 3
