"""Per-kernel bytes-moved counters: recording on both kernel paths,
derived bandwidth, and the off-mode guarantee."""

import numpy as np
import pytest

from repro.autograd.kernels import (
    KernelCounters,
    count_kernels,
    get_kernel_counters,
    index_add,
    scatter_max,
    scatter_sum,
    set_kernel_counters,
)
from tests.naive_kernels import KERNEL_PATHS, kernel_path


class FakeClock:
    def __init__(self, step: float = 0.5):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture(params=KERNEL_PATHS)
def backend(request):
    with kernel_path(request.param):
        yield request.param


class TestRecording:
    def test_all_three_kernels_are_counted(self, backend):
        values = np.arange(12.0).reshape(6, 2)
        ids = np.array([0, 0, 1, 1, 2, 2])
        out = np.zeros((3, 2))
        with count_kernels() as counters:
            scatter_sum(values, ids, 3)
            scatter_max(values, ids, 3)
            index_add(out, np.array([0, 1, 1]), np.ones((3, 2)))
        snapshot = counters.snapshot()
        assert set(snapshot) == {"scatter_sum", "scatter_max", "index_add"}
        for entry in snapshot.values():
            assert entry["calls"] == 1
            assert entry["bytes_read"] > 0
            assert entry["bytes_written"] > 0
            assert entry["elements_reduced"] > 0
            assert entry["bytes_moved"] == (
                entry["bytes_read"] + entry["bytes_written"]
            )
            assert entry["effective_gbps"] is None  # no clock injected

    def test_counted_run_matches_uncounted(self, backend):
        values = np.arange(12.0).reshape(6, 2)
        ids = np.array([0, 1, 0, 1, 2, 2])
        plain = scatter_sum(values, ids, 3)
        with count_kernels():
            counted = scatter_sum(values, ids, 3)
        np.testing.assert_array_equal(plain, counted)

    def test_bytes_scale_with_workload(self, backend):
        ids = np.array([0, 1] * 8)
        small = KernelCounters()
        big = KernelCounters()
        with count_kernels(small):
            scatter_sum(np.ones((16, 2)), ids, 2)
        with count_kernels(big):
            scatter_sum(np.ones((16, 8)), ids, 2)
        assert (
            big.snapshot()["scatter_sum"]["bytes_moved"]
            > small.snapshot()["scatter_sum"]["bytes_moved"]
        )


class TestBandwidth:
    def test_injected_clock_yields_effective_gbps(self, backend):
        counters = KernelCounters(clock=FakeClock(step=0.5))
        with count_kernels(counters):
            scatter_sum(np.ones((8, 4)), np.zeros(8, dtype=np.int64), 1)
        entry = counters.snapshot()["scatter_sum"]
        assert entry["seconds"] == pytest.approx(0.5)
        assert entry["effective_gbps"] == pytest.approx(
            entry["bytes_moved"] / 0.5 / 1e9
        )

    def test_manual_record_accumulates(self):
        counters = KernelCounters()
        counters.record("k", bytes_read=10, bytes_written=5, elements=3)
        counters.record("k", bytes_read=10, bytes_written=5, elements=3, seconds=2.0)
        entry = counters.snapshot()["k"]
        assert entry["calls"] == 2
        assert entry["bytes_moved"] == 30
        assert entry["effective_gbps"] == pytest.approx(30 / 2.0 / 1e9)


class TestInstallation:
    def test_off_mode_records_nothing(self):
        assert get_kernel_counters() is None
        scatter_sum(np.ones((2, 2)), np.array([0, 1]), 2)
        assert get_kernel_counters() is None

    def test_context_restores_off_state(self):
        with count_kernels() as counters:
            assert get_kernel_counters() is counters
        assert get_kernel_counters() is None

    def test_conflicting_collectors_raise(self):
        first = KernelCounters()
        set_kernel_counters(first)
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                set_kernel_counters(KernelCounters())
            set_kernel_counters(first)  # re-setting the same one is fine
        finally:
            set_kernel_counters(None)
        assert get_kernel_counters() is None
