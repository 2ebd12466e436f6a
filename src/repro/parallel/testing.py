"""Job bodies for exercising the pool's failure modes.

Fault-injection tests need job functions that crash the worker
process or fail exactly once, and ordering
tests need jobs that log when they start — and spawn workers can only
run module-level importable functions, so they live here rather than
inline in the tests.

The ``flaky_*`` variants coordinate across worker processes through a
marker file (each attempt may land on a different process, so no
in-memory flag can express "fail the first attempt only").
"""

from __future__ import annotations

import os
import time

from repro import obs

__all__ = [
    "echo_job",
    "crash_job",
    "flaky_crash_job",
    "raise_job",
    "flaky_raise_job",
    "spanned_job",
    "rendezvous_job",
    "record_start_job",
]


def echo_job(value):
    """Return ``value`` unchanged (smoke-tests the round trip)."""
    return value


def crash_job(exitcode: int = 3):
    """Kill the worker process abruptly — no exception, no cleanup."""
    os._exit(exitcode)


def flaky_crash_job(marker_path: str, value):
    """Crash the worker on the first attempt, succeed on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as fh:
            fh.write("attempted\n")
        os._exit(3)
    return value


def raise_job(message: str = "injected failure"):
    """Raise inside the job body (exercises the JobError path)."""
    raise ValueError(message)


def flaky_raise_job(marker_path: str, value):
    """Raise on the first attempt, succeed on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as fh:
            fh.write("attempted\n")
        raise ValueError("injected first-attempt failure")
    return value


def spanned_job(value):
    """Open a nested span tree so tests can assert worker-span replay."""
    with obs.span("outer", kind="test"):
        with obs.span("inner", kind="test"):
            pass
    return value


def rendezvous_job(directory: str, parties: int):
    """Block until ``parties`` jobs have arrived; return this process id.

    Each job holds its worker until all have arrived, so a batch of
    ``parties`` of them returns only once that many workers are up
    and serving jobs. Gives up after 60 s.
    """
    os.makedirs(directory, exist_ok=True)
    open(os.path.join(directory, str(os.getpid())), "w").close()
    for __ in range(6000):
        if len(os.listdir(directory)) >= parties:
            return os.getpid()
        time.sleep(0.01)
    raise TimeoutError(f"fewer than {parties} jobs arrived in 60 s")


def record_start_job(log_path: str, value, delay_s: float = 0.0, hold_s: float = 0.0):
    """Sleep ``delay_s``, append ``value`` to ``log_path``, hold ``hold_s``.

    The log lists the jobs in the order they started; the two sleeps
    space the entries out so concurrent workers cannot swap them.
    """
    time.sleep(delay_s)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"{value}\n")
    time.sleep(hold_s)
    return value
