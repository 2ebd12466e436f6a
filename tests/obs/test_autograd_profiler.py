"""Autograd op profiler: one tape hook, no module patching, clean uninstall."""

import numpy as np
import pytest

from repro.autograd import functional, ops, scatter
from repro.autograd.scatter import segment_softmax
from repro.autograd.tensor import Tensor, get_tape_hook
from repro.obs import AutogradProfiler, profile_autograd

PROFILED_MODULES = (ops, scatter, functional)


class FakeClock:
    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def by_name(profiler):
    return {s["name"]: s for s in profiler.stats()}


def module_bindings():
    return {
        (module.__name__, name): value
        for module in PROFILED_MODULES
        for name, value in vars(module).items()
    }


class TestDisabledMode:
    def test_no_hook_installed_by_default(self):
        assert get_tape_hook() is None

    def test_ops_are_unwrapped_by_default(self):
        assert not hasattr(ops.matmul, "__wrapped__")
        assert not hasattr(scatter.segment_sum, "__wrapped__")


class TestInstallUninstall:
    def test_install_leaves_module_attributes_alone(self):
        before = module_bindings()
        with profile_autograd() as profiler:
            assert get_tape_hook() == (profiler._tape_hook,)
            inside = module_bindings()
        assert inside.keys() == before.keys()
        assert [key for key in before if inside[key] is not before[key]] == []
        assert get_tape_hook() is None

    def test_double_install_is_idempotent(self):
        profiler = AutogradProfiler()
        profiler.install()
        try:
            profiler.install()
        finally:
            profiler.uninstall()
        assert get_tape_hook() is None

    def test_context_manager_uninstalls_on_error(self):
        with pytest.raises(ValueError):
            with profile_autograd():
                raise ValueError("boom")
        assert get_tape_hook() is None


class TestStats:
    def test_counts_bytes_and_backward_calls(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        with profile_autograd() as profiler:
            out = ops.matmul(a, b)
            loss = ops.sum(out)
            loss.backward()
        stats = by_name(profiler)
        assert stats["matmul"]["tape_entries"] == 1
        assert stats["matmul"]["output_bytes"] == 4 * 2 * 8  # float64
        assert stats["matmul"]["backward_calls"] == 1
        assert stats["sum"]["backward_calls"] == 1

    def test_ops_bound_by_from_import_are_profiled(self):
        # A name imported before profiling starts is the same function
        # the tape hook observes: its backward is timed under its name.
        x = Tensor(np.arange(6.0), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 2, 2])
        with profile_autograd() as profiler:
            ops.sum(segment_softmax(x, ids, 3)).backward()
        stats = by_name(profiler)["segment_softmax"]
        assert stats["tape_entries"] == 1
        assert stats["backward_calls"] == 1

    def test_deterministic_timing_with_injected_clock(self):
        a = Tensor(np.ones(3), requires_grad=True)
        profiler = AutogradProfiler(clock=FakeClock())
        profiler.install()
        try:
            out = ops.mul(a, a)
            ops.sum(out).backward()
        finally:
            profiler.uninstall()
        stats = by_name(profiler)
        # Each timed backward reads the clock twice and the FakeClock
        # advances 1s per read, so each op's backward takes exactly 1s.
        assert stats["mul"]["backward_time"] == 1.0
        assert stats["sum"]["backward_time"] == 1.0

    def test_stats_sorted_by_backward_time(self):
        profiler = AutogradProfiler()
        profiler.stat("slow").backward_time = 5.0
        profiler.stat("fast").backward_time = 1.0
        profiler.stat("medium").backward_time = 3.0
        names = [s["name"] for s in profiler.stats()]
        assert names == ["slow", "medium", "fast"]

    def test_stats_survive_uninstall(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with profile_autograd() as profiler:
            ops.sum(a)
        assert by_name(profiler)["sum"]["tape_entries"] == 1
