"""Benchmark regression gate (``repro report bench``) and the one
regression classifier behind it and the run-ledger trend gate.

Compares freshly emitted ``BENCH_<name>.json`` summaries (written by
:func:`write_bench`, which ``benchmarks/common.py::tracked_run`` and
``repro serve --bench`` call) against committed baselines and
flags metrics that degraded beyond a relative tolerance. Direction is
inferred from the metric name — ``*time*``/``*loss*``/``*latency*``
tokens and failure counts (``*errors*``, ``*deadline_exceeded*``) are
lower-is-better, ``*score*``/``*speedup*``/``*rps*`` higher-is-better;
metrics with no recognised token are reported but never gate.

Wall-clock metrics are machine-dependent, so they get their own
(looser) tolerance — including ``speedup`` ratios, which are
higher-is-better but derived from wall-clock and exactly as noisy.
Span timings are not compared at all.

Relative tolerance alone is not enough for seconds-valued metrics:
a p99 of 30 µs doubling to 60 µs is +100% yet indistinguishable from
scheduler/timer noise, while the same +100% on a 2 s search time is a
real regression. ``abs_floor_s`` forgives deltas where *both* sides of
a seconds metric sit below the floor — the change is below the
measurement noise floor, so neither ``regression`` nor ``improved``
is a defensible verdict there. A metric that climbs from under the
floor to above it still gates normally.

Tail percentiles (``p95``/``p99`` tokens) are reported but never
gate. A p99 over a few hundred samples is a max-like statistic — one
scheduler burst from a co-tenant process moves it several hundred
percent while every median and throughput number stays put — so
out-of-tolerance tail moves are labelled ``noisy`` rather than
``regression``. Medians, throughput, and deterministic byte counters
carry the hard gate.

:func:`classify` is the direction × tolerance × noise-floor rule and
:class:`Verdict` its result; :func:`compare_bench` applies it to one
payload pair, :func:`repro.obs.runs_report.evaluate_trend` to each
trailing window of the ledger history.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import aggregate_spans, change_pct, format_table
from repro.obs.sinks import RECORD_VERSION

__all__ = [
    "Verdict",
    "classify",
    "metric_direction",
    "is_wall_clock",
    "is_seconds",
    "is_tail_percentile",
    "load_bench",
    "write_bench",
    "scalar_metrics",
    "compare_bench",
    "render_bench_diff",
]

_TOKEN_RE = re.compile(r"[._\-/\s]+")
_LOWER_BETTER = frozenset(
    {"time", "loss", "seconds", "latency", "duration", "bytes", "memory",
     # Millisecond-suffixed metrics (the run ledger's search.epoch_ms)
     # are durations like any other.
     "ms",
     # Percentile tokens: the serve stage gauges (serve.stage.<name>.p50_s)
     # name no other lower-is-better token, and a pNN of anything we
     # record is a duration.
     "p50", "p95", "p99"}
)
_HIGHER_BETTER = frozenset(
    {"score", "scores", "speedup", "accuracy", "acc", "f1", "auc", "hits",
     "mrr", "rps", "throughput",
     # Achieved kernel bandwidth (kernel.<name>.effective_gbps): higher
     # is better, but it is bytes over wall-clock, so it takes the
     # loose time tolerance below.
     "gbps"}
)
# Failure counts (serve.errors, serve.deadline_exceeded,
# parallel.crashes): lower is better, and they are counts, not
# wall-clock measurements, so they take the strict tolerance — any
# failure against a zero baseline gates.
_FAILURE_COUNTS = frozenset({"errors", "exceeded", "crashes"})
# Higher-is-better metrics that are nevertheless ratios of wall-clock
# measurements, so they inherit wall-clock noise and the looser
# time tolerance. Requests/s from the serve bench is the same kind of
# number as a speedup: direction is meaningful, magnitude is machine-
# dependent.
_WALL_CLOCK_RATIO = frozenset({"speedup", "rps", "throughput", "gbps"})


def metric_direction(name: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 unknown (never gates)."""
    tokens = set(_TOKEN_RE.split(name.lower()))
    if tokens & (_LOWER_BETTER | _FAILURE_COUNTS):
        return -1
    if tokens & _HIGHER_BETTER:
        return 1
    return 0


def is_wall_clock(name: str) -> bool:
    """True when a metric measures (or is a ratio of) wall-clock time."""
    tokens = set(_TOKEN_RE.split(name.lower()))
    return bool(tokens & (_LOWER_BETTER | _WALL_CLOCK_RATIO))


# Every duration this repo emits carries a unit suffix that tokenises
# to "s" (``latency_s``, ``p99_s``, ``search_time_s.cora``) — bytes
# and ratio metrics never do, so the absolute floor cannot touch them.
_SECONDS_TOKENS = frozenset({"s", "seconds"})

# Upper-tail percentiles: max-like statistics whose run-to-run spread
# dwarfs any workable relative tolerance. p50 is deliberately absent —
# medians are burst-robust and stay hard-gated.
_TAIL_TOKENS = frozenset({"p95", "p99"})


def is_seconds(name: str) -> bool:
    """True when a metric's value is a duration in seconds."""
    tokens = set(_TOKEN_RE.split(name.lower()))
    return bool(tokens & _SECONDS_TOKENS)


def is_tail_percentile(name: str) -> bool:
    """True when a metric is an upper-tail percentile (p95/p99)."""
    tokens = set(_TOKEN_RE.split(name.lower()))
    return bool(tokens & _TAIL_TOKENS)


def load_bench(path: str | Path) -> dict:
    """Parse one ``BENCH_<name>.json`` payload."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if "bench" not in payload or "metrics" not in payload:
        raise ValueError(f"{path}: not a BENCH summary (missing bench/metrics)")
    return payload


def write_bench(
    name: str, spans, registry: MetricsRegistry, extra: dict | None
) -> Path:
    """Write ``BENCH_<name>.json`` into ``REPRO_BENCH_DIR`` (default ``.``).

    The payload carries the per-path span aggregates (count / cumulative
    / self time), the registry snapshot and free-form extras, under the
    record version of the trace files; :func:`load_bench` reads it back.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": name,
        "version": RECORD_VERSION,
        "scale": os.environ.get("REPRO_SCALE", "default"),
        "spans": [agg.to_dict() for agg in aggregate_spans(spans)],
        "metrics": registry.snapshot(),
        "extra": dict(extra or {}),
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def scalar_metrics(payload: dict) -> dict[str, float]:
    """Flatten a BENCH payload's metrics to name -> scalar.

    Gauges and counters contribute their value, histograms their mean;
    instrument names are unique across kinds (the registry enforces it).
    """
    out: dict[str, float] = {}
    metrics = payload.get("metrics") or {}
    for kind, field in (("gauges", "value"), ("counters", "value"),
                        ("histograms", "mean")):
        for name, record in (metrics.get(kind) or {}).items():
            value = record.get(field)
            if value is not None:
                out[name] = float(value)
    return out


@dataclasses.dataclass
class Verdict:
    """One metric judged against its baseline.

    The baseline is a committed bench payload's value
    (:func:`compare_bench`) or the median of the older ledger history
    (:func:`~repro.obs.runs_report.evaluate_trend`, which also keeps
    the series in ``values`` and the deciding trailing ``window``).
    """

    name: str
    status: str  # ok | regression | improved | noisy | info | missing | new
    # (trend only: insufficient | no-data | untracked)
    direction: int
    baseline: float | None = None
    current: float | None = None
    change: float | None = None  # (current - baseline) / |baseline|
    values: list[float] = dataclasses.field(default_factory=list)
    window: int | None = None

    @property
    def points(self) -> int:
        return len(self.values)

    @property
    def gates(self) -> bool:
        return self.status in ("regression", "missing", "no-data")


def classify(
    name: str,
    baseline: float | None,
    current: float | None,
    direction: int,
    tolerance: float,
    abs_floor: float = 0.0,
) -> Verdict:
    """The regression rule: ``current`` against ``baseline``.

    A move in the bad ``direction`` beyond the relative ``tolerance``
    is a ``regression``, one in the good direction ``improved``;
    ``info`` when the direction is unknown, and ``ok`` when both
    sides sit below ``abs_floor`` (timer jitter, not the code).
    """
    if baseline is None:
        return Verdict(name, "new", direction, current=current)
    if current is None:
        return Verdict(name, "missing", direction, baseline=baseline)
    if abs(baseline) > 1e-12:
        rel = (current - baseline) / abs(baseline)
    else:
        rel = 0.0 if current == baseline else float("inf")
    if direction == 0:
        status = "info"
    elif max(abs(baseline), abs(current)) < abs_floor:
        status = "ok"
    elif rel * direction < -tolerance:
        status = "regression"
    elif rel * direction > tolerance:
        status = "improved"
    else:
        status = "ok"
    return Verdict(name, status, direction, baseline, current, rel)


def compare_bench(
    baseline: dict,
    current: dict,
    tolerance: float = 0.1,
    time_tolerance: float = 0.5,
    abs_floor_s: float = 0.0,
) -> list[Verdict]:
    """Per-metric verdicts of one bench against its baseline.

    ``abs_floor_s`` applies only to seconds-valued metrics (see
    :func:`is_seconds`): when both sides of such a metric are below
    the floor, the delta is reported ``ok`` regardless of its
    relative size. Out-of-tolerance moves of p95/p99 metrics are
    labelled ``noisy`` and never gate (a vanished tail metric still
    reports ``missing`` and gates).
    """
    base_metrics = scalar_metrics(baseline)
    cur_metrics = scalar_metrics(current)
    deltas: list[Verdict] = []
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        delta = classify(
            name, base_metrics.get(name), cur_metrics.get(name),
            metric_direction(name),
            time_tolerance if is_wall_clock(name) else tolerance,
            abs_floor=abs_floor_s if is_seconds(name) else 0.0,
        )
        if delta.status in ("regression", "improved") and is_tail_percentile(
            name
        ):
            delta.status = "noisy"
        deltas.append(delta)
    return deltas


_ARROW = {1: "↑", -1: "↓", 0: "·"}


def render_bench_diff(
    name: str, deltas: list[Verdict], notes: list[str] = ()
) -> str:
    """One bench's comparison table plus its verdict line."""
    rows = []
    for delta in deltas:
        rows.append(
            [
                delta.name,
                _ARROW[delta.direction],
                "-" if delta.baseline is None else f"{delta.baseline:.6g}",
                "-" if delta.current is None else f"{delta.current:.6g}",
                change_pct(delta.change),
                delta.status,
            ]
        )
    regressions = sum(1 for d in deltas if d.gates)
    verdict = "REGRESSION" if regressions else "ok"
    lines = [f"== Bench {name}: {verdict} ({regressions} gated metric(s)) =="]
    for note in notes:
        lines.append(f"note: {note}")
    if rows:
        lines.extend(
            format_table(
                ["metric", "dir", "baseline", "current", "change", "status"],
                rows,
            )
        )
    else:
        lines.append("(no comparable metrics)")
    return "\n".join(lines)
