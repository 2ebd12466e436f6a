"""JSONL trace round-trip, sink behaviour, and the one record reader."""

import json

import pytest

from repro.obs import (
    RECORD_VERSION,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    MetricsSnapshotter,
    RecordWarning,
    RunLedger,
    Tracer,
    build_manifest,
    read_records,
)


def traced(tracer):
    with tracer.span("search", kind="search", dataset="cora"):
        with tracer.span("epoch", index=0):
            pass
        with tracer.span("epoch", index=1):
            pass


class TestInMemorySink:
    def test_records_and_clears(self):
        tracer = Tracer()
        sink = InMemorySink()
        tracer.add_sink(sink)
        traced(tracer)
        assert len(sink) == 3
        assert all(r["type"] == "span" for r in sink.records())
        sink.clear()
        assert len(sink) == 0


class TestJsonlRoundTrip:
    def test_trace_file_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        with JsonlSink(path, meta={"label": "unit"}) as sink:
            tracer.add_sink(sink)
            traced(tracer)
            registry = MetricsRegistry()
            registry.counter("epochs").inc(2)
            sink.write_metrics(registry)
            sink.write_op_stats([{"name": "matmul", "calls": 4}])
            tracer.remove_sink(sink)

        records = read_records(path, kind="trace")
        header = records[0]
        assert header["type"] == "meta" and header["kind"] == "trace"
        assert header["version"] == RECORD_VERSION
        assert header["label"] == "unit"

        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["epoch", "epoch", "search"]
        root = spans[-1]
        assert root["parent"] is None
        assert all(s["parent"] == root["id"] for s in spans[:-1])
        assert spans[0]["attrs"] == {"index": 0}

        metrics = [r for r in records if r["type"] == "metrics"]
        assert metrics[0]["data"]["counters"]["epochs"]["value"] == 2.0
        op_stats = [r for r in records if r["type"] == "op_stats"]
        assert op_stats[0]["data"] == [{"name": "matmul", "calls": 4}]

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        with JsonlSink(path) as sink:
            tracer.add_sink(sink)
            traced(tracer)
            tracer.remove_sink(sink)
        for line in path.read_text().splitlines():
            json.loads(line)


class TestReadTraceValidation:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "id": 0}\n')
        with pytest.raises(ValueError, match="meta"):
            read_records(path, kind="trace")

    def test_invalid_json_line_rejected(self, tmp_path):
        # A crashed writer's trace still renders: the bad line is
        # skipped with a typed warning instead of failing the read.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "kind": "trace", "version": 1}\nnot json\n'
            '{"type": "span", "id": 0}\n'
        )
        with pytest.warns(RecordWarning, match="bad.jsonl:2"):
            records = read_records(path, kind="trace")
        assert [r["type"] for r in records] == ["meta", "span"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_records(path, kind="trace")


def _trace_file(path):
    tracer = Tracer()
    with JsonlSink(path) as sink:
        tracer.add_sink(sink)
        traced(tracer)
        tracer.remove_sink(sink)


def _snapshot_file(path):
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc()
    snapshotter = MetricsSnapshotter(registry, path)
    for _ in range(3):
        snapshotter.flush()
    snapshotter.close()


def _ledger_file(path):
    ledger = RunLedger(path)
    for n in range(4):
        ledger.append(build_manifest("search", {"n": n}, clock=lambda: 1.0))


@pytest.mark.parametrize(
    "kind, write",
    [("trace", _trace_file), ("snapshots", _snapshot_file), (None, _ledger_file)],
    ids=["trace", "snapshots", "ledger"],
)
class TestOneReader:
    """Every record file this package writes reads back through
    :func:`read_records`, with one corruption and one header rule."""

    def test_truncated_last_line_is_skipped_with_warning(self, tmp_path, kind, write):
        path = tmp_path / "records.jsonl"
        write(path)
        whole = read_records(path, kind=kind)
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: raw.rstrip("\n").rfind("\n") + 9], encoding="utf-8")
        with pytest.warns(RecordWarning, match="skipping corrupt line"):
            torn = read_records(path, kind=kind)
        assert torn == whole[:-1]

    def test_wrong_kind_or_missing_header_is_rejected(self, tmp_path, kind, write):
        path = tmp_path / "records.jsonl"
        write(path)
        wrong = {"trace": "snapshots"}.get(kind, "trace")
        with pytest.raises(ValueError, match=f'"kind": "{wrong}"'):
            read_records(path, kind=wrong)
        if kind is not None:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[1:]), encoding="utf-8")
            with pytest.raises(ValueError, match="header"):
                read_records(path, kind=kind)
