"""Metrics snapshotter, text exposition, and the HTTP scrape endpoint."""

import json
import types
import urllib.request

import pytest

from repro.obs import (
    MetricsExporter,
    MetricsRegistry,
    MetricsSnapshotter,
    RECORD_VERSION,
    parse_exposition,
    read_records,
    render_exposition,
)
from repro.obs.exporter import _ScrapeHandler, prom_name


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(7)
    registry.gauge("serve.latency.p99_s").set(0.25)
    registry.histogram("serve.batch_size").observe(4)
    registry.histogram("serve.batch_size").observe(8)
    return registry


def registry_exporter(registry: MetricsRegistry) -> MetricsExporter:
    """Exporter over a bare registry (no exemplars) on an ephemeral port."""
    return MetricsExporter(lambda: (registry.snapshot(), None), port=0)


class TestSnapshotter:
    def test_flush_writes_versioned_jsonl(self, tmp_path):
        registry = make_registry()
        path = tmp_path / "snapshots.jsonl"
        snapshotter = MetricsSnapshotter(registry, path)
        snapshotter.flush()
        registry.counter("serve.requests").inc()
        snapshotter.flush()
        snapshotter.close()

        records = read_records(path, kind="snapshots")
        assert records[0] == {
            "type": "meta", "kind": "snapshots", "version": RECORD_VERSION,
        }
        snaps = [r for r in records if r["type"] == "metrics-snapshot"]
        assert [snap["seq"] for snap in snaps] == [0, 1]
        assert snaps[0]["data"]["counters"]["serve.requests"]["value"] == 7.0
        assert snaps[1]["data"]["counters"]["serve.requests"]["value"] == 8.0

    def test_no_clock_means_byte_identical_files(self, tmp_path):
        payloads = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            snapshotter = MetricsSnapshotter(make_registry(), path)
            snapshotter.flush()
            snapshotter.close()
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_background_thread_flushes_and_stops(self, tmp_path):
        registry = make_registry()
        path = tmp_path / "live.jsonl"
        with MetricsSnapshotter(registry, path, interval_s=0.01) as snapshotter:
            snapshotter._stop.wait(0.1)
        snapshotter.close()
        snaps = [
            r for r in read_records(path, kind="snapshots")
            if r["type"] == "metrics-snapshot"
        ]
        assert snaps  # at least the stop() final flush
        assert snapshotter.flushes == len(snaps)

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            MetricsSnapshotter(make_registry(), tmp_path / "x", interval_s=0)

    def test_read_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "metrics-snapshot"}) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_records(path, kind="snapshots")


class TestExposition:
    def test_names_are_sanitised(self):
        assert prom_name("serve.stage.queue_wait.p99_s") == (
            "serve_stage_queue_wait_p99_s"
        )
        assert prom_name("kernel.scatter-add.bytes") == (
            "kernel_scatter_add_bytes"
        )
        assert prom_name("0weird") == "_0weird"

    def test_render_parse_round_trip(self):
        text = render_exposition(make_registry().snapshot())
        samples = parse_exposition(text)
        assert samples["serve_requests"] == 7.0
        assert samples["serve_latency_p99_s"] == 0.25
        assert samples["serve_batch_size_count"] == 2.0
        assert samples["serve_batch_size_sum"] == 12.0
        assert samples["serve_batch_size_min"] == 4.0
        assert samples["serve_batch_size_max"] == 8.0

    def test_exemplar_renders_and_parses(self):
        snapshot = make_registry().snapshot()
        text = render_exposition(
            snapshot, exemplars={"serve.latency.p99_s": "t-0000002a"}
        )
        line = next(
            l for l in text.splitlines()
            if l.startswith("serve_latency_p99_s ")
        )
        assert '# {trace_id="t-0000002a"}' in line
        # The strict parser strips the exemplar suffix.
        assert parse_exposition(text)["serve_latency_p99_s"] == 0.25

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="no samples"):
            parse_exposition("")
        with pytest.raises(ValueError, match="name value"):
            parse_exposition("a b c\n")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_exposition("metric abc\n")
        with pytest.raises(ValueError, match="invalid sample name"):
            parse_exposition("bad.name 1.0\n")
        with pytest.raises(ValueError, match="unknown comment"):
            parse_exposition("# HELLO there\nmetric 1.0\n")


class TestExporterEndpoint:
    def test_scrape_serves_live_exposition(self):
        registry = make_registry()
        with registry_exporter(registry) as exporter:
            body = urllib.request.urlopen(exporter.url, timeout=5).read()
            samples = parse_exposition(body.decode("utf-8"))
            assert samples["serve_requests"] == 7.0
            # Live: a second scrape sees the updated counter.
            registry.counter("serve.requests").inc(3)
            body = urllib.request.urlopen(exporter.url, timeout=5).read()
            assert parse_exposition(body.decode())["serve_requests"] == 10.0
            assert exporter.scrapes == 2

    def test_scrape_is_counted_before_the_body_is_written(self):
        # A client may read the whole body and check ``scrapes`` before
        # the server thread runs another line, so the count must already
        # include this scrape when the body goes out.
        exporter = registry_exporter(make_registry())
        writes = []
        handler = _ScrapeHandler.__new__(_ScrapeHandler)
        handler.server = types.SimpleNamespace(exporter=exporter)
        handler.path = "/metrics"
        handler.command = "GET"
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /metrics HTTP/1.1"
        handler.wfile = types.SimpleNamespace(
            write=lambda data: writes.append((bytes(data), exporter.scrapes))
        )
        handler.do_GET()
        body = exporter.exposition().encode("utf-8")
        assert writes[-1] == (body, 1)

    def test_healthz_and_404(self):
        with registry_exporter(make_registry()) as exporter:
            base = f"http://{exporter.host}:{exporter.port}"
            assert urllib.request.urlopen(
                f"{base}/healthz", timeout=5
            ).read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert exporter.scrapes == 0  # only /metrics counts

    def test_exemplars_from_provider(self):
        registry = make_registry()
        provider = lambda: (
            registry.snapshot(), {"serve.latency.p99_s": "t-00000001"}
        )
        with MetricsExporter(provider, port=0) as exporter:
            text = urllib.request.urlopen(exporter.url, timeout=5).read()
            assert b'trace_id="t-00000001"' in text

    def test_wait_for_scrape(self):
        with registry_exporter(make_registry()) as exporter:
            assert not exporter.wait_for_scrape(timeout_s=0.05, poll_s=0.01)
            urllib.request.urlopen(exporter.url, timeout=5).read()
            assert exporter.wait_for_scrape(timeout_s=1.0, poll_s=0.01)
