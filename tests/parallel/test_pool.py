"""WorkerPool robustness: merge order, retries, crashes, timeouts, spans.

Every parallel test here runs real spawn workers, so they share pools
where possible and keep job bodies tiny. The suite doubles as the
"never hang" contract: a wedged queue would stall one of these tests
forever, and the repo's test runner treats that as failure.
"""

import multiprocessing

import pytest

from repro.obs import InMemorySink, MetricsRegistry, get_tracer
from repro.parallel import (
    JobDispatchError,
    JobError,
    JobTimeoutError,
    SearchJob,
    WorkerCrashError,
    WorkerPool,
)


def metric(registry, name):
    """Read one counter/gauge value out of a registry snapshot."""
    snapshot = registry.snapshot()
    for family in ("counters", "gauges"):
        if name in snapshot[family]:
            return snapshot[family][name]["value"]
    raise KeyError(name)


def echo_jobs(values, **extra):
    return [
        SearchJob(
            job_id=i,
            fn="repro.parallel.testing:echo_job",
            kwargs={"value": value},
            **extra,
        )
        for i, value in enumerate(values)
    ]


class TestInlineMode:
    def test_workers_zero_runs_in_process(self):
        pool = WorkerPool(workers=0)
        assert pool.run(echo_jobs([5, 6, 7])) == [5, 6, 7]

    def test_results_align_with_input_order_not_job_id_order(self):
        pool = WorkerPool(workers=0)
        jobs = [
            SearchJob(job_id=2, fn="repro.parallel.testing:echo_job",
                      kwargs={"value": "c"}),
            SearchJob(job_id=0, fn="repro.parallel.testing:echo_job",
                      kwargs={"value": "a"}),
        ]
        assert pool.run(jobs) == ["c", "a"]

    def test_empty_batch(self):
        assert WorkerPool(workers=0).run([]) == []

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate job ids"):
            WorkerPool(workers=0).run(
                [
                    SearchJob(job_id=1, fn="repro.parallel.testing:echo_job"),
                    SearchJob(job_id=1, fn="repro.parallel.testing:echo_job"),
                ]
            )

    def test_inline_exceptions_surface_unwrapped(self):
        # The CLI catches concrete types (e.g. NumericsAnomaly); the
        # in-process path must not wrap them in JobError.
        pool = WorkerPool(workers=0)
        with pytest.raises(ValueError, match="injected failure"):
            pool.run(
                [SearchJob(job_id=0, fn="repro.parallel.testing:raise_job")]
            )

    def test_inline_metrics(self):
        metrics = MetricsRegistry()
        WorkerPool(workers=0, metrics=metrics).run(echo_jobs([1, 2]))
        assert metric(metrics, "parallel.jobs") == 2
        assert metric(metrics, "parallel.utilization") == 1.0
        assert metric(metrics, "parallel.queue_depth") == 0

    def test_inline_per_worker_gauges_are_deterministic(self):
        # The in-process path is one always-busy pseudo-worker; its
        # stats are constants so seeded payloads stay byte-identical.
        metrics = MetricsRegistry()
        pool = WorkerPool(workers=0, metrics=metrics)
        pool.run(echo_jobs([1, 2, 3]))
        assert metric(metrics, "parallel.worker.0.busy_frac") == 1.0
        assert metric(metrics, "parallel.worker.0.tasks") == 3
        pool.run(echo_jobs([4]))
        # The tasks counter accumulates across batches.
        assert metric(metrics, "parallel.worker.0.tasks") == 4
        assert metric(metrics, "parallel.worker.0.busy_frac") == 1.0

    def test_inline_run_emits_pool_utilization_event(self):
        from repro.obs import events as events_mod

        recorder = events_mod.EventRecorder(label="pool-test")
        events_mod.install(recorder)
        try:
            WorkerPool(workers=0).run(echo_jobs([1, 2]))
        finally:
            events_mod.uninstall(recorder)
        pool_events = recorder.events("pool_utilization")
        assert len(pool_events) == 1
        payload = pool_events[0]["data"]
        assert payload["workers"] == 1
        assert payload["utilization"] == 1.0
        assert payload["per_worker"] == {"0": {"busy_frac": 1.0, "tasks": 2}}


class TestParallelMode:
    def test_merge_is_deterministic_and_complete(self):
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            values = list(range(8))
            assert pool.run(echo_jobs(values)) == values
            # Re-running on live workers: same merge.
            assert pool.run(echo_jobs(values)) == values
        assert metric(metrics, "parallel.jobs") == 16
        assert metric(metrics, "parallel.workers") == 2
        assert 0.0 <= metric(metrics, "parallel.utilization") <= 1.0

    def test_unpicklable_job_raises_before_enqueue(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(JobDispatchError, match="not\\s+picklable"):
                pool.run(
                    [
                        SearchJob(
                            job_id=0,
                            fn="repro.parallel.testing:echo_job",
                            kwargs={"value": lambda: None},
                        )
                    ]
                )
            # The pool survives a dispatch failure.
            assert pool.run(echo_jobs(["ok"])) == ["ok"]


def pool_children():
    return [
        proc for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-worker-")
    ]


class TestDispatchOrder:
    def test_jobs_start_in_the_order_given(self, tmp_path):
        log = tmp_path / "starts.log"
        with WorkerPool(workers=2) as pool:
            # Both workers up and idle on the queue before the batch.
            pids = pool.run([
                SearchJob(
                    job_id=i,
                    fn="repro.parallel.testing:rendezvous_job",
                    kwargs={"directory": str(tmp_path / "arrived"), "parties": 2},
                )
                for i in range(2)
            ])
            assert len(set(pids)) == 2
            # Given 3, 2, 1, 0. The first two start together, so job 2
            # logs 0.15 s late; job 3 holds its worker until after that,
            # and job 2 holds the other until 1 and 0 have started.
            timing = {3: (0.0, 0.4), 2: (0.15, 0.8), 1: (0.0, 0.0), 0: (0.0, 0.0)}
            jobs = [
                SearchJob(
                    job_id=job_id,
                    fn="repro.parallel.testing:record_start_job",
                    kwargs={"log_path": str(log), "value": job_id,
                            "delay_s": delay, "hold_s": hold},
                )
                for job_id, (delay, hold) in timing.items()
            ]
            assert pool.run(jobs) == [3, 2, 1, 0]
        assert log.read_text().split() == ["3", "2", "1", "0"]

    def test_inline_runs_in_the_order_given(self, tmp_path):
        log = tmp_path / "starts.log"
        jobs = [
            SearchJob(
                job_id=job_id,
                fn="repro.parallel.testing:record_start_job",
                kwargs={"log_path": str(log), "value": job_id},
            )
            for job_id in (2, 0, 1)
        ]
        assert WorkerPool(workers=0).run(jobs) == [2, 0, 1]
        assert log.read_text().split() == ["2", "0", "1"]


class TestEagerStart:
    def test_entering_starts_the_workers(self):
        before = set(pool_children())
        with WorkerPool(workers=2):
            started = [p for p in pool_children() if p not in before]
            assert len(started) == 2
            assert all(proc.is_alive() for proc in started)
        assert not any(proc.is_alive() for proc in started)
        assert not set(pool_children()) - before

    def test_inline_pool_starts_none(self):
        before = set(pool_children())
        with WorkerPool(workers=0) as pool:
            assert set(pool_children()) == before
            assert pool.run(echo_jobs([1])) == [1]
            assert set(pool_children()) == before


class TestFaultInjection:
    def test_job_exception_retried_then_typed_error(self):
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.run(
                    [
                        SearchJob(
                            job_id=0,
                            fn="repro.parallel.testing:raise_job",
                            kwargs={"message": "injected failure"},
                            tag="raiser",
                        )
                    ]
                )
        error = excinfo.value
        assert error.error_type == "ValueError"
        assert error.tag == "raiser"
        assert "injected failure" in error.remote_traceback
        assert metric(metrics, "parallel.retries") == 1

    def test_flaky_job_succeeds_on_retry(self, tmp_path):
        marker = tmp_path / "flaky-raise.marker"
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            results = pool.run(
                [
                    SearchJob(
                        job_id=0,
                        fn="repro.parallel.testing:flaky_raise_job",
                        kwargs={"marker_path": str(marker), "value": 99},
                    )
                ]
            )
        assert results == [99]
        assert metric(metrics, "parallel.retries") == 1

    def test_worker_crash_detected_and_retried(self):
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run(
                    [
                        SearchJob(
                            job_id=0,
                            fn="repro.parallel.testing:crash_job",
                            tag="crasher",
                        )
                    ]
                )
        assert excinfo.value.tag == "crasher"
        # Initial attempt + one retry, both crashed.
        assert metric(metrics, "parallel.crashes") == 2

    def test_crash_then_success_on_replacement_worker(self, tmp_path):
        marker = tmp_path / "flaky-crash.marker"
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            results = pool.run(
                [
                    SearchJob(
                        job_id=0,
                        fn="repro.parallel.testing:flaky_crash_job",
                        kwargs={"marker_path": str(marker), "value": "alive"},
                    )
                ]
            )
        assert results == ["alive"]
        assert metric(metrics, "parallel.crashes") == 1
        assert metric(metrics, "parallel.jobs") == 1

    def test_timeout_kills_worker_and_raises(self):
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics, poll_s=0.05) as pool:
            with pytest.raises(JobTimeoutError) as excinfo:
                pool.run(
                    [
                        SearchJob(
                            job_id=0,
                            fn="repro.parallel.testing:sleep_job",
                            kwargs={"seconds": 30.0},
                            tag="sleeper",
                            timeout_s=0.5,
                        )
                    ]
                )
        assert excinfo.value.timeout_s == 0.5
        assert metric(metrics, "parallel.timeouts") == 2

    def test_healthy_jobs_complete_alongside_a_crash(self, tmp_path):
        marker = tmp_path / "mixed.marker"
        with WorkerPool(workers=2) as pool:
            jobs = echo_jobs([10, 20, 30])
            jobs.append(
                SearchJob(
                    job_id=3,
                    fn="repro.parallel.testing:flaky_crash_job",
                    kwargs={"marker_path": str(marker), "value": 40},
                )
            )
            assert pool.run(jobs) == [10, 20, 30, 40]

    def test_orphan_sweep_waits_for_a_worker_death(self, monkeypatch):
        # While workers spawn, no message arrives and nothing is in
        # flight; with the task queue forced to look empty that is the
        # sweep's whole idle picture, yet no task is lost. A sweep here
        # would charge a crash and, with no retry budget, fail a healthy
        # batch. Only a worker death without an in-flight record arms it.
        monkeypatch.setattr("repro.parallel.pool._ORPHAN_SWEEP_POLLS", 1)
        metrics = MetricsRegistry()
        with WorkerPool(
            workers=2, max_retries=0, poll_s=0.01, metrics=metrics
        ) as pool:
            pool._ensure_workers()
            monkeypatch.setattr(pool._task_queue, "empty", lambda: True)
            assert pool.run(echo_jobs([1, 2, 3])) == [1, 2, 3]
        assert "parallel.crashes" not in metrics.snapshot()["counters"]


class TestSpanAdoption:
    def test_worker_spans_replay_under_worker_roots(self):
        sink = InMemorySink()
        tracer = get_tracer()
        with WorkerPool(workers=2) as pool:
            with tracer.collect(sink):
                pool.run(
                    [
                        SearchJob(
                            job_id=0,
                            fn="repro.parallel.testing:spanned_job",
                            kwargs={"value": 1},
                            tag="spanny",
                        )
                    ]
                )
        names = [span.name for span in sink.spans]
        assert "worker-0" in names or "worker-1" in names
        assert "job" in names
        assert "outer" in names and "inner" in names
        by_name = {span.name: span.to_dict() for span in sink.spans}
        root_name = "worker-0" if "worker-0" in by_name else "worker-1"
        root = by_name[root_name]
        # Replayed spans are re-parented under the synthetic root.
        assert by_name["job"]["parent"] == root["id"]
        assert by_name["outer"]["parent"] == by_name["job"]["id"]
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert root["attrs"]["tag"] == "spanny"

    def test_no_sinks_no_replay_overhead(self):
        # Without sinks the records are dropped; just a smoke check
        # that nothing breaks when the tracer has nowhere to dispatch.
        with WorkerPool(workers=2) as pool:
            assert pool.run(
                [
                    SearchJob(
                        job_id=0,
                        fn="repro.parallel.testing:spanned_job",
                        kwargs={"value": 2},
                    )
                ]
            ) == [2]


class TestShutdown:
    def test_shutdown_idempotent_and_reusable(self):
        pool = WorkerPool(workers=2)
        assert pool.run(echo_jobs([1])) == [1]
        pool.shutdown()
        pool.shutdown()
        # Workers respawn lazily on the next run.
        assert pool.run(echo_jobs([2])) == [2]
        pool.shutdown()
