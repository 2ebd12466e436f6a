"""Live metrics export: periodic JSONL snapshots + a scrape endpoint.

Everything in ``repro.obs`` so far is *post-hoc*: metrics are
snapshotted once, when a run finishes. A serving process is never
finished, so this module adds the two live surfaces:

* :class:`MetricsSnapshotter` — a dependency-free background thread
  that periodically flushes a :class:`~repro.obs.metrics.
  MetricsRegistry` snapshot as one JSONL record (through a
  :class:`~repro.obs.sinks.JsonlSink`, like every trace), giving a
  soak run a time series of every counter/gauge/histogram without any
  external collector;
* :func:`render_exposition` / :func:`parse_exposition` — a
  Prometheus-style text exposition of one snapshot (names sanitised to
  ``[a-zA-Z_:][a-zA-Z0-9_:]*``, one ``# TYPE`` comment per metric,
  OpenMetrics-style ``# {trace_id="..."}`` exemplars on gauges that
  have one), plus the strict parser CI uses to validate a scrape;
* :class:`MetricsExporter` — a stdlib ``http.server`` endpoint serving
  ``/metrics`` (the exposition) and ``/healthz``, the first
  process-boundary surface of the serving stack (``repro serve
  --export-port``).

Snapshot JSONL schema (one object per line, read back with
:func:`~repro.obs.sinks.read_records` and ``kind="snapshots"``)::

    {"type": "meta", "kind": "snapshots", "version": 1, ...}  — first line
    {"type": "metrics-snapshot", "seq": 0, "t": 1.2?,
     "data": {"counters": ..., "gauges": ..., "histograms": ...}}

The exporter never touches library state: it reads whatever snapshot
the provided callable returns, so a scrape cannot perturb a seeded
run (and the traced-vs-untraced bit-identity guarantee extends to
"scraped vs unscraped").
"""

from __future__ import annotations

import http.server
import re
import threading
from pathlib import Path
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink

__all__ = [
    "MetricsSnapshotter",
    "prom_name",
    "render_exposition",
    "parse_exposition",
    "MetricsExporter",
]

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_VALID = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_EXEMPLAR = re.compile(r"\s+#\s+\{[^}]*\}\s+\S+$")


class MetricsSnapshotter:
    """Background thread flushing registry snapshots to JSONL.

    ``interval_s`` paces the flush loop (a ``threading.Event`` wait, so
    :meth:`stop` returns promptly); ``clock`` stamps each record's
    ``t`` field and is injectable like every clock in ``repro.obs`` —
    pass ``None`` for byte-identical snapshot files across runs.
    :meth:`flush` is public so callers can force a final snapshot at
    shutdown, and the class is usable without a thread at all (call
    ``flush`` manually) for deterministic tests.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        interval_s: float = 0.5,
        clock: Callable[[], float] | None = None,
        meta: dict | None = None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.path = Path(path)
        self.interval_s = float(interval_s)
        self.clock = clock
        self.flushes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._sink = JsonlSink(
            self.path, meta={"kind": "snapshots", **(meta or {})}
        )

    # ------------------------------------------------------------------
    def flush(self) -> dict:
        """Write one snapshot record now; returns the record."""
        record: dict = {
            "type": "metrics-snapshot",
            "seq": self.flushes,
            "data": self.registry.snapshot(),
        }
        if self.clock is not None:
            record["t"] = float(self.clock())
        self.flushes += 1
        self._sink.write_record(record)
        self._sink.flush()
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.flush()

    def start(self) -> "MetricsSnapshotter":
        if self._thread is not None:
            raise RuntimeError("snapshotter already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-snapshotter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_flush: bool = True) -> None:
        """Stop the flush loop (and by default write one last snapshot)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        if final_flush and not self._sink.closed:
            self.flush()

    def close(self) -> None:
        self.stop(final_flush=False)
        self._sink.close()

    def __enter__(self) -> "MetricsSnapshotter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        self.close()
        return False


# ---------------------------------------------------------------------
# Prometheus-style text exposition
# ---------------------------------------------------------------------
def prom_name(name: str) -> str:
    """Sanitise a registry metric name for the text exposition."""
    cleaned = _NAME_SANITISE.sub("_", name)
    if not cleaned or not _NAME_VALID.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_exposition(
    snapshot: dict, exemplars: dict[str, str] | None = None
) -> str:
    """One registry snapshot as Prometheus-style text.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output.
    ``exemplars`` maps registry metric names to trace ids; a gauge with
    an exemplar gets the OpenMetrics ``# {trace_id="..."} <value>``
    suffix, which is how a p99 stage gauge links to the concrete trace
    that produced the tail sample.
    """
    exemplars = exemplars or {}
    lines: list[str] = []
    for name, record in (snapshot.get("counters") or {}).items():
        exposed = prom_name(name)
        lines.append(f"# TYPE {exposed} counter")
        lines.append(f"{exposed} {_format_value(record.get('value', 0.0))}")
    for name, record in (snapshot.get("gauges") or {}).items():
        exposed = prom_name(name)
        lines.append(f"# TYPE {exposed} gauge")
        value = _format_value(record.get("value"))
        trace = exemplars.get(name)
        if trace is not None:
            lines.append(f'{exposed} {value} # {{trace_id="{trace}"}} {value}')
        else:
            lines.append(f"{exposed} {value}")
    for name, record in (snapshot.get("histograms") or {}).items():
        exposed = prom_name(name)
        lines.append(f"# TYPE {exposed} summary")
        lines.append(f"{exposed}_count {_format_value(record.get('count', 0))}")
        lines.append(f"{exposed}_sum {_format_value(record.get('total', 0.0))}")
        for field in ("min", "max", "last"):
            if record.get(field) is not None:
                lines.append(
                    f"{exposed}_{field} {_format_value(record[field])}"
                )
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, float]:
    """Strictly parse an exposition back to ``{sample name: value}``.

    Raises :class:`ValueError` on any malformed line — this is the CI
    validation that a scraped payload is well-formed, not a lenient
    consumer. ``# TYPE`` comments must name a valid metric; exemplar
    suffixes are validated and stripped.
    """
    samples: dict[str, float] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                if not _NAME_VALID.match(parts[2]):
                    raise ValueError(
                        f"exposition line {line_number}: invalid metric name "
                        f"{parts[2]!r} in TYPE comment"
                    )
                continue
            raise ValueError(
                f"exposition line {line_number}: unknown comment {line!r}"
            )
        body = _EXEMPLAR.sub("", line)
        parts = body.split()
        if len(parts) != 2:
            raise ValueError(
                f"exposition line {line_number}: expected 'name value', "
                f"got {line!r}"
            )
        name, value = parts
        if not _NAME_VALID.match(name):
            raise ValueError(
                f"exposition line {line_number}: invalid sample name {name!r}"
            )
        try:
            samples[name] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"exposition line {line_number}: non-numeric value "
                f"{value!r}"
            ) from exc
    if not samples:
        raise ValueError("exposition contains no samples")
    return samples


# ---------------------------------------------------------------------
# scrape endpoint
# ---------------------------------------------------------------------
class _ScrapeHandler(http.server.BaseHTTPRequestHandler):
    # The exporter injects itself on the server object; instances read
    # it back via self.server.
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        exporter: "MetricsExporter" = self.server.exporter  # type: ignore[attr-defined]
        if self.path in ("/metrics", "/"):
            try:
                body = exporter.exposition().encode("utf-8")
            except Exception as exc:  # surface provider bugs to the scraper
                self.send_error(500, explain=str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            # Counted before the body goes out: a scraper that has read
            # the whole response must find itself counted.
            exporter._count_scrape()
            self.wfile.write(body)
        elif self.path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr access log."""


class MetricsExporter:
    """Serve live metrics over HTTP from a background thread.

    ``provider`` returns ``(snapshot, exemplars)`` on every scrape —
    typically a closure over a live registry, so the endpoint always
    reflects current values. ``port=0`` binds an ephemeral port;
    read :attr:`port` after :meth:`start` for the bound one.
    ``scrapes`` counts served ``/metrics`` responses, which is how the
    CLI's ``--export-linger`` knows a scraper has been by.
    """

    def __init__(
        self,
        provider: Callable[[], tuple[dict, dict[str, str] | None]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.provider = provider
        self.host = host
        self._requested_port = port
        self._httpd: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._scrape_lock = threading.Lock()
        self.scrapes = 0

    # ------------------------------------------------------------------
    def exposition(self) -> str:
        snapshot, exemplars = self.provider()
        return render_exposition(snapshot, exemplars=exemplars)

    def _count_scrape(self) -> None:
        with self._scrape_lock:
            self.scrapes += 1

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    # ------------------------------------------------------------------
    def start(self) -> "MetricsExporter":
        if self._httpd is not None:
            raise RuntimeError("exporter already started")
        self._httpd = http.server.ThreadingHTTPServer(
            (self.host, self._requested_port), _ScrapeHandler
        )
        self._httpd.daemon_threads = True
        self._httpd.exporter = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._httpd = None
        self._thread = None

    def wait_for_scrape(self, timeout_s: float, poll_s: float = 0.05) -> bool:
        """Block until ≥1 scrape was served or ``timeout_s`` elapsed."""
        waited = 0.0
        event = threading.Event()
        while self.scrapes == 0 and waited < timeout_s:
            event.wait(poll_s)
            waited += poll_s
        return self.scrapes > 0

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
