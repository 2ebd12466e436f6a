"""Span and Tracer semantics: nesting, ids, sinks, detached stopwatches."""

import pytest

from repro.obs import InMemorySink, Tracer, get_tracer, span


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_tracer():
    tracer = Tracer(clock=FakeClock())
    sink = InMemorySink()
    tracer.add_sink(sink)
    return tracer, sink


class TestNesting:
    def test_children_get_parent_id_and_depth(self):
        tracer, sink = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2

    def test_siblings_share_a_parent(self):
        tracer, sink = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_sink_receives_children_before_parents(self):
        tracer, sink = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in sink.spans] == ["inner", "outer"]

    def test_current_tracks_innermost_open_span(self):
        tracer, _ = make_tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_position_names_path_and_innermost_epoch(self):
        tracer, _ = make_tracer()
        assert tracer.position() == ("", None)
        with tracer.span("search"):
            with tracer.span("epoch", index=3):
                with tracer.span("train"):
                    with tracer.span("epoch", index=7):
                        with tracer.span("forward"):
                            assert tracer.position() == (
                                "search/epoch/train/epoch/forward",
                                ("search/epoch/train/epoch", 7),
                            )
                assert tracer.position() == (
                    "search/epoch", ("search/epoch", 3)
                )
            with tracer.span("epoch"):
                assert tracer.position() == ("search/epoch", None)


class TestTiming:
    def test_duration_from_injected_clock(self):
        tracer, _ = make_tracer()
        with tracer.span("timed") as sp:
            pass
        # FakeClock advances 1s per read: start=0, end=1.
        assert sp.duration == pytest.approx(1.0)
        assert sp.t_end is not None

    def test_elapsed_reads_clock_while_open(self):
        tracer, _ = make_tracer()
        sp = tracer.span("open").start()
        first = sp.elapsed()
        second = sp.elapsed()
        assert second > first
        sp.finish()

    def test_exception_still_finishes_span(self):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing") as sp:
                raise RuntimeError("boom")
        assert sp.t_end is not None
        assert [s.name for s in sink.spans] == ["failing"]

    def test_out_of_order_finish_force_closes_children(self):
        tracer, sink = make_tracer()
        outer = tracer.span("outer").start()
        inner = tracer.span("inner").start()
        outer.finish()  # child abandoned open
        assert inner.t_end is not None
        assert {s.name for s in sink.spans} == {"outer", "inner"}
        assert tracer.current is None


class TestDetached:
    def test_detached_span_never_joins_the_tree(self):
        tracer, sink = make_tracer()
        stopwatch = tracer.span("lifetime", kind="lifetime").start_detached()
        with tracer.span("regular") as regular:
            pass
        assert regular.parent_id is None  # stopwatch did not parent it
        assert stopwatch.span_id == -1
        assert stopwatch.elapsed() > 0
        stopwatch.finish()
        assert [s.name for s in sink.spans] == ["regular"]  # never dispatched

    def test_detached_finish_is_idempotent(self):
        tracer, _ = make_tracer()
        stopwatch = tracer.span("lifetime").start_detached()
        stopwatch.finish()
        end = stopwatch.t_end
        stopwatch.finish()
        assert stopwatch.t_end == end


class TestSinksAndModuleApi:
    def test_no_sink_no_record_but_still_timed(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("quiet") as sp:
            pass
        assert sp.duration == pytest.approx(1.0)

    def test_collect_attaches_and_detaches(self):
        tracer = Tracer(clock=FakeClock())
        sink = InMemorySink()
        with tracer.collect(sink):
            with tracer.span("inside"):
                pass
        with tracer.span("outside"):
            pass
        assert [s.name for s in sink.spans] == ["inside"]

    def test_module_span_uses_process_tracer(self):
        sink = InMemorySink()
        with get_tracer().collect(sink):
            with span("module-level", kind="test", tag=7) as sp:
                pass
        assert sp in sink.spans
        assert sp.attrs == {"tag": 7}

    def test_to_dict_record_shape(self):
        tracer, _ = make_tracer()
        with tracer.span("epoch", index=3) as sp:
            pass
        record = sp.to_dict()
        assert record["type"] == "span"
        assert record["name"] == "epoch"
        assert record["attrs"] == {"index": 3}
        assert record["dur"] == pytest.approx(record["end"] - record["start"])
