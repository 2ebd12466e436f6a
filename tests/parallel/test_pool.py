"""WorkerPool robustness: merge order, retries, crashes, spans.

Every parallel test here runs real spawn workers, so they share pools
where possible and keep job bodies tiny. The suite doubles as the
"never hang" contract: a pool that waits on a job no worker holds, or
respawns workers forever, would stall one of these tests, and the
repo's test runner treats that as failure.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.obs import InMemorySink, MetricsRegistry, get_tracer
from repro.parallel import (
    JobDispatchError,
    JobError,
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
            # Both workers up and idle before the batch.
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

    def test_worker_that_died_idle_is_replaced_without_a_charge(self, tmp_path):
        # A worker killed between batches held no job, so the next batch
        # must replace it without charging a crash to a healthy job.
        metrics = MetricsRegistry()
        with WorkerPool(workers=2, metrics=metrics) as pool:
            pids = pool.run([
                SearchJob(
                    job_id=i,
                    fn="repro.parallel.testing:rendezvous_job",
                    kwargs={"directory": str(tmp_path / "arrived"), "parties": 2},
                )
                for i in range(2)
            ])
            victim = next(p for p in pool_children() if p.pid == pids[0])
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            assert pool.run(echo_jobs([0, 1, 2, 3])) == [0, 1, 2, 3]
        assert "parallel.crashes" not in metrics.snapshot()["counters"]

    def test_workers_that_never_start_end_in_a_crash_error(self, tmp_path):
        # Spawn children re-run the parent's main script as __mp_main__;
        # this one exits there, so no worker ever serves a job. Each
        # attempt charges its job, and the batch must end in
        # WorkerCrashError instead of respawning workers forever.
        script = tmp_path / "unguarded_main.py"
        script.write_text(textwrap.dedent("""
            if __name__ != "__main__":
                raise SystemExit(3)
            from repro.parallel import SearchJob, WorkerCrashError, WorkerPool
            jobs = [
                SearchJob(job_id=i, fn="repro.parallel.testing:echo_job",
                          kwargs={"value": i})
                for i in range(3)
            ]
            with WorkerPool(workers=2) as pool:
                try:
                    pool.run(jobs)
                except WorkerCrashError as exc:
                    print(type(exc).__name__, exc)
        """))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        # Own session, so a hung pool and every worker it spawned die
        # together on timeout.
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            stdout, __ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("pool.run neither finished nor raised within 60 s")
        assert proc.returncode == 0
        assert stdout.startswith("WorkerCrashError")


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
