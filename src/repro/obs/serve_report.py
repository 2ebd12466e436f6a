"""``repro report serve`` — the offline serving-trace dashboard.

Input is a JSONL trace recorded by ``repro serve --trace`` (or any
sink fed by :mod:`repro.obs.context` request spans): one
``serve.request`` root per request plus ``stage`` spans linked to it
by parent id. The dashboard answers the question aggregate counters
cannot — *where* a slow p99 went — with three sections:

* **per-stage breakdown** — count/mean/p50/p99/total seconds per stage
  across every request, stages in pipeline order, plus each stage's
  share of summed request time (this is the table whose stage sums
  must be consistent with end-to-end latency);
* **queue-depth timeline** — a sparkline, scaled from zero, of how
  many requests sat in ``queue_wait`` over the run (overlap-count of
  the queue_wait span intervals, bucketed);
* **slowest traces** — a drilldown of the worst requests by
  end-to-end duration, one stage-by-stage line each, with the
  stage-sum coverage of the root span.

A tree is *complete* when it recorded every stage of its own path
(``PATH_STAGES``, keyed by the root's ``path`` attribute): all six for
a queued request that needed a forward, ``slice`` and ``resolve`` for
one answered from the engine's memo. If the trace file carries a
``metrics`` record (the CLI appends the final registry snapshot), the
SLO counters are summarised too.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.context import PATH_STAGES, REQUEST_SPAN, REQUEST_STAGES
from repro.obs.report import (
    SPARK_WIDTH,
    format_table,
    last_record,
    nearest_rank,
    sparkline,
)
from repro.obs.sinks import read_records

__all__ = ["load_request_trees", "render_serve_report"]


class RequestTree:
    """One request's reassembled span tree: root + named stages."""

    __slots__ = ("trace_id", "root", "stages")

    def __init__(self, trace_id: str, root: dict):
        self.trace_id = trace_id
        self.root = root
        self.stages: list[dict] = []

    @property
    def duration(self) -> float:
        return float(self.root["dur"])

    @property
    def status(self) -> str:
        return (self.root.get("attrs") or {}).get("status", "?")

    @property
    def path(self) -> str:
        """``memo`` or ``forward``; traces that predate the attribute
        queued every request, so they read as ``forward``."""
        return (self.root.get("attrs") or {}).get("path", "forward")

    def complete(self) -> bool:
        """Every stage of this tree's path was recorded."""
        names = {span["name"] for span in self.stages}
        return names >= set(PATH_STAGES.get(self.path, REQUEST_STAGES))

    def stage_sum(self) -> float:
        return sum(float(span["dur"]) for span in self.stages)

    def coverage(self) -> float | None:
        """Stage seconds per root second (≤ ~1 for a well-formed tree;
        ``forward`` windows are shared, never double-counted within
        one tree)."""
        if self.duration <= 0:
            return None
        return self.stage_sum() / self.duration


def load_request_trees(records: list[dict]) -> list[RequestTree]:
    """Reassemble request span trees from raw trace records."""
    roots: dict[int, RequestTree] = {}
    stages: list[dict] = []
    for record in records:
        if record.get("type") != "span":
            continue
        attrs = record.get("attrs") or {}
        if record.get("kind") == "request" and record.get("name") == REQUEST_SPAN:
            trace_id = attrs.get("trace", f"span-{record['id']}")
            roots[record["id"]] = RequestTree(trace_id, record)
        elif record.get("kind") == "stage":
            stages.append(record)
    for span in stages:
        tree = roots.get(span.get("parent"))
        if tree is not None:
            tree.stages.append(span)
    return sorted(roots.values(), key=lambda tree: tree.root["id"])


def _stage_order(name: str) -> tuple[int, str]:
    try:
        return (REQUEST_STAGES.index(name), name)
    except ValueError:
        return (len(REQUEST_STAGES), name)


def _render_stage_breakdown(trees: list[RequestTree]) -> list[str]:
    by_stage: dict[str, list[float]] = {}
    for tree in trees:
        for span in tree.stages:
            by_stage.setdefault(span["name"], []).append(float(span["dur"]))
    total_stage_s = sum(sum(durs) for durs in by_stage.values())
    rows = []
    for name in sorted(by_stage, key=_stage_order):
        durs = sorted(by_stage[name])
        total = sum(durs)
        share = 100.0 * total / total_stage_s if total_stage_s > 0 else 0.0
        rows.append([
            name,
            str(len(durs)),
            f"{1e3 * total / len(durs):.3f}",
            f"{1e3 * nearest_rank(durs, 50.0):.3f}",
            f"{1e3 * nearest_rank(durs, 99.0):.3f}",
            f"{total:.3f}",
            f"{share:.1f}%",
        ])
    lines = ["== Per-stage latency breakdown =="]
    lines += format_table(
        ["stage", "count", "mean_ms", "p50_ms", "p99_ms", "total_s", "share"],
        rows,
    )
    request_s = sum(tree.duration for tree in trees)
    coverage = 100.0 * total_stage_s / request_s if request_s > 0 else 0.0
    lines.append(
        f"stage seconds {total_stage_s:.3f} / request seconds "
        f"{request_s:.3f} ({coverage:.1f}% coverage)"
    )
    return lines


def _render_queue_timeline(trees: list[RequestTree]) -> list[str]:
    intervals = [
        (float(span["start"]), float(span["end"]))
        for tree in trees
        for span in tree.stages
        if span["name"] == "queue_wait" and span.get("end") is not None
    ]
    lines = ["== Queue-depth timeline =="]
    if not intervals:
        lines.append("(no queue_wait spans in trace)")
        return lines
    t0 = min(start for start, _ in intervals)
    t1 = max(end for _, end in intervals)
    if t1 <= t0:
        lines.append("(zero-length run)")
        return lines
    # Sweep the +1/-1 endpoint events; track the max depth per bucket.
    # The depth before an event holds in every bucket since the last
    # one, the event's own bucket included.
    events = sorted(
        [(start, 1) for start, _ in intervals]
        + [(end, -1) for _, end in intervals]
    )
    buckets = [0.0] * SPARK_WIDTH
    depth = 0
    last = 0
    scale = SPARK_WIDTH / (t1 - t0)
    for at, delta in events:
        index = min(SPARK_WIDTH - 1, int((at - t0) * scale))
        for held in range(last, index + 1):
            buckets[held] = max(buckets[held], depth)
        depth += delta
        buckets[index] = max(buckets[index], depth)
        last = index
    peak = max(buckets)
    lines.append(f"waiting {sparkline(buckets, low=0.0)} (peak {int(peak)})")
    lines.append(
        f"window  {t1 - t0:.3f}s, {len(intervals)} requests queued"
    )
    return lines


def _render_slowest(trees: list[RequestTree], top: int) -> list[str]:
    lines = [f"== Slowest traces (top {top}) =="]
    ranked = sorted(trees, key=lambda tree: -tree.duration)[:top]
    for tree in ranked:
        coverage = tree.coverage()
        cov = f"{100.0 * coverage:.1f}%" if coverage is not None else "-"
        lines.append(
            f"{tree.trace_id}  total {1e3 * tree.duration:.3f} ms  "
            f"status={tree.status}  stage coverage {cov}"
        )
        for span in sorted(tree.stages, key=lambda s: _stage_order(s["name"])):
            dur = float(span["dur"])
            share = 100.0 * dur / tree.duration if tree.duration > 0 else 0.0
            shared = (span.get("attrs") or {}).get("shared")
            note = f"  (shared x{shared})" if shared else ""
            lines.append(
                f"  {span['name']:<16}{1e3 * dur:>10.3f} ms  "
                f"{share:>5.1f}%{note}"
            )
    return lines


def _render_slo(records: list[dict]) -> list[str]:
    snapshot = last_record(records, "metrics")
    if snapshot is None:
        return []
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}

    def value(group, name):
        entry = group.get(name)
        return entry.get("value") if entry else None

    requests = value(counters, "serve.requests")
    if requests is None:
        return []
    lines = ["== SLO =="]
    errors = value(counters, "serve.errors") or 0.0
    deadline = value(counters, "serve.deadline_exceeded") or 0.0
    lines.append(
        f"requests {int(requests)}, errors {int(errors)}, "
        f"deadline_exceeded {int(deadline)}"
    )
    availability = value(gauges, "serve.slo.availability")
    if availability is not None:
        lines.append(f"availability {availability:.6f}")
    return lines


def render_serve_report(path: str | Path, top: int = 5) -> str:
    """The full ``repro report serve`` dashboard for one trace file."""
    records = read_records(path, kind="trace")
    trees = load_request_trees(records)
    if not trees:
        raise ValueError(f"{path}: no serve.request spans in trace")
    complete = sum(1 for tree in trees if tree.complete())
    memo = sum(1 for tree in trees if tree.path == "memo")
    lines = [
        f"Serve trace: {path}",
        f"requests: {len(trees)} ({complete} with every stage of their "
        f"path; {len(trees) - memo} forward, {memo} memo)",
        "",
    ]
    lines += _render_stage_breakdown(trees)
    lines.append("")
    lines += _render_queue_timeline(trees)
    lines.append("")
    lines += _render_slowest(trees, top)
    slo = _render_slo(records)
    if slo:
        lines.append("")
        lines += slo
    return "\n".join(lines)
