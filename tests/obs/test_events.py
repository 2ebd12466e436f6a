"""Event log: recorder mechanics, no-op guarantee, file format."""

import json

import numpy as np
import pytest

from repro.obs import RECORD_VERSION, EventRecorder, read_records, record_events
from repro.obs.events import (
    emit,
    enabled,
    install,
    to_jsonable,
    uninstall,
)


class FakeClock:
    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestToJsonable:
    def test_numpy_containers_become_plain_python(self):
        payload = to_jsonable(
            {
                "matrix": np.arange(4.0).reshape(2, 2),
                "scalar": np.float64(1.5),
                "flag": np.bool_(True),
                "nested": [np.int64(3), (np.float32(0.5),)],
            }
        )
        assert payload == {
            "matrix": [[0.0, 1.0], [2.0, 3.0]],
            "scalar": 1.5,
            "flag": True,
            "nested": [3, [0.5]],
        }
        json.dumps(payload)  # round-trips without a custom encoder


class TestEventRecorder:
    def test_records_sequence_epoch_and_data(self):
        recorder = EventRecorder(label="t")
        recorder.emit("search_start", mode="transductive")
        recorder.emit("epoch_metrics", epoch=3, val_score=0.5)
        assert [r["seq"] for r in recorder.records] == [0, 1]
        assert recorder.records[0]["data"] == {"mode": "transductive"}
        assert recorder.records[1]["epoch"] == 3
        assert "t" not in recorder.records[0]  # no clock, no wall time

    def test_clock_stamps_wall_time(self):
        recorder = EventRecorder(clock=FakeClock(step=0.5))
        recorder.emit("a")
        recorder.emit("b")
        assert recorder.records[0]["t"] == 0.0
        assert recorder.records[1]["t"] == 0.5

    def test_events_filter_by_name(self):
        recorder = EventRecorder()
        recorder.emit("x")
        recorder.emit("y")
        recorder.emit("x")
        assert len(recorder.events("x")) == 2
        assert len(recorder.events()) == 3

    def test_emits_are_noops_until_installed(self):
        assert not enabled()
        emit("ghost", value=1)  # must not raise, must not record anywhere
        recorder = EventRecorder()
        with recorder:
            assert enabled()
            emit("real", value=2)
        assert not enabled()
        assert [r["event"] for r in recorder.records] == ["real"]

    def test_double_install_raises(self):
        first, second = EventRecorder(), EventRecorder()
        install(first)
        try:
            with pytest.raises(RuntimeError):
                install(second)
        finally:
            uninstall(first)

    def test_uninstall_of_other_recorder_is_noop(self):
        first, second = EventRecorder(), EventRecorder()
        install(first)
        uninstall(second)
        emit("kept")
        uninstall(first)
        assert not enabled()
        assert [r["event"] for r in first.records] == ["kept"]


class TestEventFiles:
    def test_file_is_a_v1_trace_with_event_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with record_events(path, label="demo") as recorder:
            recorder.emit("search_start", seed=7)
            recorder.emit("alpha_snapshot", epoch=0, probs=[[0.5, 0.5]])
        records = read_records(path, kind="trace")
        assert records[0]["label"] == "demo"
        assert records[0]["version"] == RECORD_VERSION
        events = [r for r in records if r["type"] == "event"]
        assert [r["event"] for r in events] == ["search_start", "alpha_snapshot"]

    def test_seeded_reruns_are_byte_identical_without_clock(self, tmp_path):
        payloads = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with record_events(path, label="same") as recorder:
                recorder.emit("epoch_metrics", epoch=0, val_score=0.25)
                recorder.emit("genotype", genotype={"node": ["gcn"]})
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_spans_interleave_when_requested(self, tmp_path):
        from repro import obs

        path = tmp_path / "mixed.jsonl"
        with record_events(path, label="mix", spans=True):
            with obs.span("phase"):
                emit("inside", epoch=0)
        types = {r["type"] for r in read_records(path, kind="trace")}
        assert {"meta", "event", "span"} <= types

    def test_spans_without_path_rejected(self):
        with pytest.raises(ValueError):
            with record_events(spans=True):
                pass  # pragma: no cover
