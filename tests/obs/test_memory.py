"""Tape memory accounting: live set, retained buffers, report rendering."""

import gc

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.tensor import get_tape_hook
from repro.obs import ProfileSession
from repro.obs.memory import (
    MemoryTracker,
    render_memory_report,
    render_memory_report_file,
)
from repro.obs.sinks import read_records


def _retaining_op(x: Tensor, extra: np.ndarray) -> Tensor:
    """Pass-through op whose VJP closure retains ``extra``."""

    def retain_backward(grad):
        return (np.asarray(grad) + 0.0 * extra.sum(),)

    return Tensor._from_op(x.data + 0.0, (x,), retain_backward)


class TestLiveAccounting:
    def test_live_bytes_rise_and_release(self):
        with MemoryTracker() as mem:
            x = Tensor(np.ones((8, 8)), requires_grad=True)
            y = x * x
            z = ops.sum(y)
            assert mem.current_live > 0
            assert mem.peak_live >= mem.current_live
            del y, z
            gc.collect()
            assert mem.current_live == 0
        assert get_tape_hook() is None
        # Cumulative stats survive uninstall for post-run reporting.
        assert mem.peak_live > 0
        assert mem.per_op  # op table populated

    def test_no_grad_entries_are_transient(self):
        from repro.autograd.tensor import no_grad

        with MemoryTracker() as mem:
            x = Tensor(np.ones((16, 16)), requires_grad=True)
            with no_grad():
                _ = x * x
            gc.collect()
            # The closure was dropped before the Tensor was built, so the
            # entry was counted and immediately released.
            assert mem.current_live == 0
            assert mem.peak_live > 0

    def test_output_and_input_bytes_attributed_per_op(self):
        with MemoryTracker() as mem:
            x = Tensor(np.ones((4, 4)), requires_grad=True)  # 128 bytes
            y = x * x
        stats = mem.per_op["mul"]
        assert stats.entries == 1
        assert stats.output_bytes == y.data.nbytes == 128
        assert stats.input_bytes == 2 * 128  # both parents are x

    def test_retained_closure_buffers_counted(self):
        extra = np.ones((32, 32))  # 8192 bytes, captured by the VJP only
        with MemoryTracker() as mem:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            y = _retaining_op(x, extra)
        stats = mem.per_op["_retaining_op"]
        assert stats.retained_bytes == extra.nbytes
        # output + retained both count toward the live set
        assert mem.peak_live >= y.data.nbytes + extra.nbytes

    def test_epoch_peaks_follow_span_stack(self):
        from repro import obs

        with MemoryTracker() as mem:
            for epoch in range(2):
                with obs.span("epoch", index=epoch):
                    x = Tensor(np.ones((8, 8)), requires_grad=True)
                    _ = x * x
        stats = mem.stats()
        assert set(stats["epoch_peaks"]) == {"epoch:0", "epoch:1"}
        assert all(peak > 0 for peak in stats["epoch_peaks"].values())

    def test_search_and_retrain_epochs_of_one_index_stay_apart(self):
        from repro import obs

        with MemoryTracker() as mem:
            with obs.span("search"), obs.span("epoch", index=0):
                x = Tensor(np.ones((64, 64)), requires_grad=True)
                big = x * x
            with obs.span("train"), obs.span("epoch", index=0):
                y = Tensor(np.ones((2, 2)), requires_grad=True)
                small = y * y
        peaks = mem.stats()["epoch_peaks"]
        assert set(peaks) == {"search/epoch:0", "train/epoch:0"}
        assert peaks["search/epoch:0"] >= big.data.nbytes
        text = render_memory_report(mem.stats())
        assert "search/epoch:0" in text and "train/epoch:0" in text

    def test_site_table_keys_on_path_and_op(self):
        from repro import obs

        with MemoryTracker() as mem:
            with obs.span("forward"):
                x = Tensor(np.ones(4), requires_grad=True)
                _ = x * x
        sites = mem.stats()["sites"]
        assert {"path": "forward", "op": "mul"}.items() <= sites[0].items()


class TestTrackerLifecycle:
    def test_double_install_is_idempotent(self):
        tracker = MemoryTracker()
        tracker.install()
        tracker.install()
        tracker.uninstall()
        assert get_tape_hook() is None

    def test_composes_with_profiler_session(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path, memory=True) as session:
            x = Tensor(np.ones((8, 8)), requires_grad=True)
            ops.sum(x * x).backward()
        assert session.tracker is not None
        assert session.tracker.stats()["peak_live_bytes"] > 0
        assert "== Tape memory:" in session.report()
        records = read_records(path, kind="trace")
        memory_records = [r for r in records if r["type"] == "memory_stats"]
        assert len(memory_records) == 1
        assert memory_records[0]["data"]["peak_live_bytes"] > 0

    def test_session_without_memory_records_no_stats(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path) as session:
            x = Tensor(np.ones(4), requires_grad=True)
            _ = x * x
        assert session.tracker is None
        records = read_records(path, kind="trace")
        assert all(r["type"] != "memory_stats" for r in records)


class TestRendering:
    def _stats(self, epochs=3):
        return {
            "peak_live_bytes": 4096,
            "current_live_bytes": 0,
            "epoch_peaks": {str(e): 1024 * (e + 1) for e in range(epochs)},
            "per_op": {},
            "per_path": {
                "search/epoch/forward": {
                    "entries": 12,
                    "output_bytes": 2048,
                    "retained_bytes": 512,
                    "peak_live_bytes": 4096,
                }
            },
            "sites": [
                {
                    "path": "search/epoch/forward",
                    "op": "segment_attention_sum",
                    "entries": 4,
                    "retained_bytes": 512,
                    "peak_live_bytes": 1024,
                },
                {
                    "path": "search/epoch/forward",
                    "op": "matmul",
                    "entries": 8,
                    "retained_bytes": 0,
                    "peak_live_bytes": 2048,
                },
            ],
        }

    def test_all_sections_render(self):
        report = render_memory_report(self._stats(), top=10)
        assert "== Tape memory: peak live 4.0KB ==" in report
        assert "span paths by peak live bytes" in report
        assert "retained-buffer sites" in report
        assert "Peak tape memory per epoch" in report
        # Zero-retained sites are excluded from the retained table.
        assert "matmul" not in report.split("retained-buffer sites")[1].split("--")[0]

    def test_long_runs_cap_the_epoch_table(self):
        report = render_memory_report(self._stats(epochs=40), top=5)
        assert "(top 5 of 40)" in report
        # The heaviest epochs are kept, in epoch order.
        lines = report.split("Peak tape memory per epoch")[1].splitlines()
        shown = [l.split()[0] for l in lines if l.strip() and l.split()[0].isdigit()]
        assert shown == ["35", "36", "37", "38", "39"]

    def test_report_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path, memory=True):
            x = Tensor(np.ones((8, 8)), requires_grad=True)
            _ = x * x
        report = render_memory_report_file(path, top=5)
        assert "== Tape memory: peak live" in report

    def test_report_file_without_memory_record_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path):
            pass
        with pytest.raises(ValueError, match="repro profile --memory"):
            render_memory_report_file(path)
