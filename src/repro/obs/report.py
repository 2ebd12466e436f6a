"""Human-readable hotspot report over a finished trace.

Input is the list of finished spans (live :class:`Span` objects or the
dicts a JSONL trace round-trips to — both are accepted everywhere), and
optionally the autograd op stats and a metrics snapshot. Output is the
report ``repro profile`` prints:

* **phase breakdown** — spans aggregated by their path in the span tree
  (``search/epoch/weight_step``), with cumulative, self (cumulative
  minus time attributed to child spans) and mean durations;
* **hotspot table** — top-K autograd ops ranked by backward time,
  with tape entries, backward calls and output bytes (forward time is
  in the phase breakdown, under the supernet's ``op`` spans);
* **metrics** — counters/gauges/histograms, if any were recorded.

It is also the one home of the text pieces every ``repro.obs`` view
shares: :func:`format_table`, :func:`num`, :func:`bytes_human`,
:func:`signed_bytes`, :func:`change_pct`, :func:`sparkline`,
:func:`elide_rows`, :func:`nearest_rank` and :func:`last_record`.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "SpanAggregate",
    "aggregate_spans",
    "format_table",
    "num",
    "bytes_human",
    "signed_bytes",
    "change_pct",
    "sparkline",
    "elide_rows",
    "nearest_rank",
    "last_record",
    "hotspot_report",
]


def _as_record(span) -> dict:
    return span if isinstance(span, dict) else span.to_dict()


@dataclasses.dataclass
class SpanAggregate:
    """Accumulated timings of every span sharing one tree path."""

    path: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    minimum: float = float("inf")
    maximum: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """The ``spans`` entry of a ``BENCH_<name>.json`` payload."""
        return {
            "path": self.path,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_time,
            "mean_s": self.mean,
            "min_s": self.minimum,
            "max_s": self.maximum,
        }


def aggregate_spans(spans) -> list[SpanAggregate]:
    """Group spans by tree path; sorted by cumulative time, descending.

    Self time is each span's duration minus its direct children's, so
    summing ``self`` over the whole table reproduces the root wall time
    (no double counting, unlike the ``total`` column which is
    cumulative).
    """
    records = [_as_record(span) for span in spans]
    by_id = {record["id"]: record for record in records}
    child_time: dict[int, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + record["dur"]

    def path_of(record: dict) -> str:
        parts = [record["name"]]
        seen = {record["id"]}
        parent = record.get("parent")
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            parent_record = by_id[parent]
            parts.append(parent_record["name"])
            parent = parent_record.get("parent")
        return "/".join(reversed(parts))

    aggregates: dict[str, SpanAggregate] = {}
    for record in records:
        path = path_of(record)
        aggregate = aggregates.get(path)
        if aggregate is None:
            aggregate = aggregates[path] = SpanAggregate(path)
        duration = record["dur"]
        aggregate.count += 1
        aggregate.total += duration
        aggregate.self_time += duration - child_time.get(record["id"], 0.0)
        aggregate.minimum = min(aggregate.minimum, duration)
        aggregate.maximum = max(aggregate.maximum, duration)
    return sorted(aggregates.values(), key=lambda a: (-a.total, a.path))


def format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Right-align numbers under left-aligned first column."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header = "  ".join(
        h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
        for i, h in enumerate(headers)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return lines


def elide_rows(rows: list[list[str]], max_rows: int) -> list[list[str]]:
    """Keep the first and last rows of a long table, ``...`` between."""
    if len(rows) <= max_rows:
        return rows
    head = max_rows // 2
    marker = ["..."] + [""] * (len(rows[0]) - 1)
    return [*rows[:head], marker, *rows[-(max_rows - head):]]


def num(value, digits: int = 4) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def bytes_human(value: float) -> str:
    """Human byte count; negative deltas keep their sign."""
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0 or unit == "GB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GB"


def signed_bytes(before: float, after: float) -> str:
    """``after - before`` as a human byte count with its sign."""
    return f"{'+' if after >= before else '-'}{bytes_human(abs(after - before))}"


def change_pct(change: float | None, missing: str = "-") -> str:
    """A relative change as ``+x.x%``; ``missing`` when there is none."""
    return missing if change is None else f"{100.0 * change:+.1f}%"


_SPARK = "▁▂▃▄▅▆▇█"
SPARK_WIDTH = 32


def sparkline(values: list[float], low: float | None = None) -> str:
    """Unicode trend line, at most ``SPARK_WIDTH`` cells.

    Cells scale from ``low`` (the series minimum when None) to the
    maximum; a flat series draws the lowest cell throughout.
    """
    if not values:
        return ""
    if len(values) > SPARK_WIDTH:
        step = (len(values) - 1) / (SPARK_WIDTH - 1)
        values = [values[round(i * step)] for i in range(SPARK_WIDTH)]
    low = min(values) if low is None else low
    high = max(values)
    if high - low < 1e-12:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (high - low)
    return "".join(_SPARK[int((v - low) * scale)] for v in values)


def nearest_rank(ordered, q: float):
    """The nearest-rank ``q``-th percentile (0..100) of a sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def last_record(records: list[dict], record_type: str) -> dict | None:
    """``data`` of the last record of ``record_type``; None when absent."""
    data = None
    for record in records:
        if record.get("type") == record_type:
            data = record.get("data")
    return data


def hotspot_report(
    spans,
    op_stats: list[dict] | None = None,
    metrics: dict | None = None,
    top: int = 10,
) -> str:
    """Render the full report; every section is skipped when empty."""
    sections: list[str] = []

    aggregates = aggregate_spans(spans)
    if aggregates:
        rows = [
            [a.path, str(a.count), num(a.total), num(a.self_time), num(a.mean)]
            for a in aggregates
        ]
        lines = ["== Phase breakdown (spans) =="]
        lines.extend(
            format_table(["phase", "count", "cum s", "self s", "mean s"], rows)
        )
        sections.append("\n".join(lines))

    if op_stats:
        ranked = sorted(
            op_stats, key=lambda s: -s.get("backward_time", 0.0)
        )[: max(top, 1)]
        rows = [
            [
                stat["name"],
                str(stat.get("tape_entries", 0)),
                str(stat.get("backward_calls", 0)),
                num(stat.get("backward_time", 0.0)),
                bytes_human(stat.get("output_bytes", 0)),
            ]
            for stat in ranked
        ]
        lines = [f"== Top {len(ranked)} autograd ops (by backward time) =="]
        lines.extend(
            format_table(["op", "tape", "bwd calls", "bwd s", "out bytes"], rows)
        )
        sections.append("\n".join(lines))

    if metrics:
        lines = ["== Metrics =="]
        for kind in ("counters", "gauges", "histograms"):
            for name, payload in (metrics.get(kind) or {}).items():
                if kind == "histograms":
                    mean = payload.get("mean")
                    mean_text = "n/a" if mean is None else f"{mean:.6g}"
                    lines.append(
                        f"{name}: count={payload.get('count')} "
                        f"mean={mean_text} min={payload.get('min')} "
                        f"max={payload.get('max')}"
                    )
                else:
                    lines.append(f"{name}: {payload.get('value')}")
        if len(lines) > 1:
            sections.append("\n".join(lines))

    if not sections:
        return "(empty trace: no spans, op stats, or metrics recorded)"
    return "\n\n".join(sections)
