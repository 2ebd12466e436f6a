"""Text dashboards over a recorded event log (``repro report run/diff``).

Input is an events JSONL file (a v1 trace whose lines carry
``"type": "event"`` records, optionally interleaved with spans — see
:mod:`repro.obs.events`). Output is deterministic plain text: with a
fake clock on the recorder, two seeded runs render byte-identical
dashboards, which the tier-1 telemetry test locks down.

* :func:`render_run` — one run's dashboard: per-edge entropy sparkline
  table, genotype-flip timeline, convergence summary, metric curves;
* :func:`render_diff` — two runs compared: final genotype, convergence
  epoch, score curves, and (when span records are present in both
  files) hotspot deltas via the PR-2 span aggregation.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from repro.obs.report import (
    aggregate_spans,
    bytes_human,
    change_pct,
    elide_rows,
    format_table,
    last_record,
    num,
    signed_bytes,
    sparkline,
)
from repro.obs.sinks import read_records

__all__ = ["SearchRun", "load_run_records", "split_searches", "render_run", "render_diff"]


@dataclasses.dataclass
class SearchRun:
    """One ``search_start`` .. ``search_end`` block of an event log."""

    meta: dict = dataclasses.field(default_factory=dict)
    start_t: float | None = None
    end_t: float | None = None
    epochs: dict[int, dict] = dataclasses.field(default_factory=dict)
    entropy: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    num_ops: dict[str, int] = dataclasses.field(default_factory=dict)
    flips: list[dict] = dataclasses.field(default_factory=list)
    grad_health: dict[int, dict] = dataclasses.field(default_factory=dict)
    dead_ops: list[dict] = dataclasses.field(default_factory=list)
    initial_genotype: dict | None = None
    last_genotype: dict | None = None
    final_architecture: dict | None = None

    # ------------------------------------------------------------------
    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def convergence_epoch(self) -> int | None:
        """Epoch of the last argmax genotype flip (0 when it never flips)."""
        if not self.epochs:
            return None
        if not self.flips:
            return 0
        return max(flip["epoch"] for flip in self.flips)

    @property
    def wall_time(self) -> float | None:
        if self.start_t is None or self.end_t is None:
            return None
        return self.end_t - self.start_t

    def metric_series(self, name: str) -> list[tuple[int, float]]:
        return [
            (epoch, payload[name])
            for epoch, payload in sorted(self.epochs.items())
            if name in payload
        ]

    def final_metric(self, name: str):
        series = self.metric_series(name)
        return series[-1][1] if series else None

    def final_genotype(self) -> dict | None:
        if self.final_architecture is not None:
            return self.final_architecture
        return self.last_genotype


def _describe(genotype: dict | None) -> str:
    if genotype is None:
        return "(unknown)"
    aggs = " -> ".join(genotype["node"])
    skips = "".join("I" if s == "identity" else "Z" for s in genotype["skip"])
    return f"{aggs} | skips={skips} | jk={genotype['layer']}"


def load_run_records(path: str | Path) -> tuple[list[dict], list[dict]]:
    """(event records, all records) of one events/trace JSONL file."""
    records = read_records(path, kind="trace")
    return [r for r in records if r.get("type") == "event"], records


def split_searches(event_records: list[dict]) -> list[SearchRun]:
    """Group a flat event stream into per-search runs.

    Events outside any ``search_start``..``search_end`` block (training
    runs, candidate probes) are ignored here; callers summarise them
    separately.
    """
    runs: list[SearchRun] = []
    current: SearchRun | None = None
    for record in event_records:
        name = record["event"]
        data = record.get("data", {})
        if name == "search_start":
            current = SearchRun(meta=data, start_t=record.get("t"))
            runs.append(current)
            continue
        if current is None:
            continue
        epoch = record.get("epoch")
        if name == "alpha_snapshot" and epoch is not None:
            for kind, rows in (data.get("entropy") or {}).items():
                for index, value in enumerate(rows):
                    series = current.entropy.setdefault(f"{kind}/{index}", [])
                    series.append(float(value))
            for kind, rows in (data.get("probs") or {}).items():
                for index, row in enumerate(rows):
                    current.num_ops[f"{kind}/{index}"] = len(row)
            current.epochs.setdefault(epoch, {})
        elif name == "epoch_metrics" and epoch is not None:
            current.epochs.setdefault(epoch, {}).update(data)
        elif name == "genotype":
            current.initial_genotype = data.get("genotype")
            current.last_genotype = data.get("genotype")
        elif name == "genotype_flip":
            for flip in data.get("flips", []):
                current.flips.append({"epoch": epoch, **flip})
            current.last_genotype = data.get("genotype", current.last_genotype)
        elif name == "grad_health" and epoch is not None:
            current.grad_health[epoch] = data
        elif name == "dead_op":
            current.dead_ops.append({"epoch": epoch, **data})
        elif name == "search_end":
            current.final_architecture = data.get("architecture")
            current.end_t = record.get("t")
            current = None
    return runs


# ---------------------------------------------------------------------
# report run
# ---------------------------------------------------------------------
def _render_search_section(run: SearchRun, index: int) -> list[str]:
    meta = run.meta
    header = (
        f"-- search {index}: mode={meta.get('mode', '?')} "
        f"seed={meta.get('seed', '?')} epochs={run.num_epochs}"
    )
    if run.wall_time is not None:
        header += f" wall={run.wall_time:.2f}s"
    header += " --"
    lines = [header]
    lines.append(f"final genotype: {_describe(run.final_genotype())}")
    convergence = run.convergence_epoch
    if convergence is not None and run.num_epochs:
        last_epoch = max(run.epochs)
        stable_for = last_epoch - convergence
        lines.append(
            f"genotype flips: {len(run.flips)} "
            f"(argmax stable since epoch {convergence}, "
            f"{stable_for} epoch(s) unchanged)"
        )

    if run.entropy:
        rows = []
        for edge in sorted(run.entropy, key=_edge_sort_key):
            series = run.entropy[edge]
            rows.append(
                [edge, num(series[0]), num(series[-1]), sparkline(series)]
            )
        lines.append("")
        lines.append("per-edge entropy (nats):")
        lines.extend(format_table(["edge", "first", "last", "trend"], rows))
        collapse_lines = _entropy_collapse_lines(run)
        if collapse_lines:
            lines += ["", *collapse_lines]

    lines.append("")
    if run.flips:
        lines.append("genotype flip timeline:")
        rows = [
            [f"epoch {flip['epoch']}", flip["edge"], f"{flip['from']} -> {flip['to']}"]
            for flip in run.flips
        ]
        lines.extend(format_table(["when", "edge", "change"], rows))
    else:
        lines.append("genotype flip timeline: (no flips; argmax stable from epoch 0)")

    curve_rows = _curve_rows(run)
    if curve_rows:
        lines.append("")
        lines.append("curves:")
        lines.extend(
            format_table(
                ["epoch", "train_loss", "val_loss", "val_score",
                 "|g_alpha|", "|g_w|"],
                curve_rows,
            )
        )

    # PR-5 tape-health streams: only rendered when the run was recorded
    # with a HealthMonitor installed, so plain event logs keep their
    # byte-identical dashboards.
    grad_lines = _grad_health_lines(run)
    if grad_lines:
        lines += ["", *grad_lines]
    return lines


# Entropy-collapse detection (the DARTS failure mode): an edge whose
# alpha entropy drops to (and stays at) near-zero in the first half of
# the search has frozen its argmax long before the supernet weights
# converged — exactly the premature-commitment pathology SANE's
# smoother mixture dynamics are supposed to avoid. An edge counts as
# collapsed once its entropy sits at or below
# max(_COLLAPSE_FLOOR, _COLLAPSE_FRAC * initial) for the rest of the
# run; "early" means that happened before _EARLY_FRAC of the snapshots.
_COLLAPSE_FLOOR = 0.05
_COLLAPSE_FRAC = 0.1
_EARLY_FRAC = 0.5
# No selection, the opposite failure: an edge whose final entropy is
# still above _NO_SELECTION_FRAC of ln(#ops), the entropy of the uniform
# mixture, has not picked an op. When every edge ends there, the argmax
# genotype is decided by near-ties, not by the search.
_NO_SELECTION_FRAC = 0.95


def _collapse_index(series: list[float]) -> int | None:
    """First snapshot index from which entropy stays saturated, if any."""
    if len(series) < 2:
        return None
    threshold = max(_COLLAPSE_FLOOR, _COLLAPSE_FRAC * series[0])
    index = None
    for position, value in enumerate(series):
        if value <= threshold:
            if index is None:
                index = position
        else:
            index = None
    return index


def _entropy_collapse_lines(run: SearchRun) -> list[str]:
    """The entropy-collapse section of one search's dashboard."""
    rows = []
    tracked = 0
    for edge in sorted(run.entropy, key=_edge_sort_key):
        series = run.entropy[edge]
        if len(series) < 2:
            continue
        tracked += 1
        index = _collapse_index(series)
        if index is None:
            continue
        frac = index / (len(series) - 1)
        if frac >= _EARLY_FRAC:
            continue
        rows.append(
            [
                edge,
                f"{index}/{len(series) - 1}",
                f"{100.0 * frac:.0f}%",
                num(series[0]),
                num(series[-1]),
            ]
        )
    if not tracked:
        return []
    if not rows:
        share = _lowest_uniform_share(run)
        if share is not None and share > _NO_SELECTION_FRAC:
            return [
                "entropy collapse: none before 50% of the search",
                f"no selection: every edge ended above {_NO_SELECTION_FRAC} "
                f"x ln(#ops), the uniform mixture's entropy (lowest ratio "
                f"{share:.6f}) — the alphas stayed near uniform, so no op "
                "was selected",
            ]
        return [
            "entropy collapse: none before 50% of the search (mixtures "
            "stayed soft — SANE-like dynamics, not the DARTS failure mode)"
        ]
    lines = [
        f"entropy collapse: {len(rows)}/{tracked} edge(s) saturated before "
        "50% of the search (DARTS-style premature argmax; SANE expects "
        "soft mixtures until late)"
    ]
    lines.extend(
        format_table(["edge", "collapse@", "frac", "first", "last"], rows)
    )
    return lines


def _lowest_uniform_share(run: SearchRun) -> float | None:
    """Smallest final entropy / ln(#ops) over the edges with 2+ ops."""
    shares = [
        run.entropy[edge][-1] / math.log(count)
        for edge, count in run.num_ops.items()
        if count > 1 and run.entropy.get(edge)
    ]
    return min(shares) if shares else None


def _grad_health_lines(run: SearchRun) -> list[str]:
    """Gradient-health section: ratio trend table + dead-op sightings."""
    lines: list[str] = []
    if run.grad_health:
        health = sorted(run.grad_health.items())
        ratios = [float(payload.get("grad_ratio") or 0.0) for _, payload in health]
        lines.append(
            f"gradient health (|g_alpha|/|g_w| trend {sparkline(ratios)}):"
        )
        rows = [
            [
                str(epoch),
                num(payload.get("arch_grad_norm")),
                num(payload.get("weight_grad_norm")),
                num(payload.get("grad_ratio")),
                num(payload.get("arch_update_scale"), 6),
                num(payload.get("weight_update_scale"), 6),
            ]
            for epoch, payload in health
        ]
        lines.extend(
            format_table(
                ["epoch", "|g_alpha|", "|g_w|", "ratio",
                 "alpha_step", "w_step"],
                elide_rows(rows, 12),
            )
        )
    if run.dead_ops:
        if lines:
            lines.append("")
        lines.append(f"dead-op sightings: {len(run.dead_ops)}")
        rows = [
            [
                f"epoch {sighting.get('epoch', '?')}",
                str(sighting.get("edge", "?")),
                str(sighting.get("layer", "?")),
                str(sighting.get("op", "?")),
                num(sighting.get("weight"), 6),
            ]
            for sighting in run.dead_ops
        ]
        lines.extend(
            format_table(["when", "edge", "layer", "op", "weight"], rows)
        )
    return lines


def _edge_sort_key(edge: str) -> tuple[int, int]:
    kind, __, index = edge.partition("/")
    order = {"node": 0, "skip": 1, "layer": 2}
    return (order.get(kind, 3), int(index or 0))


def _curve_rows(run: SearchRun) -> list[list[str]]:
    rows = [
        [
            str(epoch),
            num(payload.get("train_loss")),
            num(payload.get("val_loss")),
            num(payload.get("val_score")),
            num(payload.get("arch_grad_norm")),
            num(payload.get("weight_grad_norm")),
        ]
        for epoch, payload in sorted(run.epochs.items())
    ]
    return elide_rows(rows, 20)


def render_run(path: str | Path) -> str:
    """The ``repro report run`` dashboard for one events file."""
    event_records, all_records = load_run_records(path)
    label = all_records[0].get("label", "run")
    runs = split_searches(event_records)
    train_runs = sum(1 for r in event_records if r["event"] == "train_start")
    span_count = sum(1 for r in all_records if r.get("type") == "span")

    lines = [f"== Search telemetry: {label} =="]
    summary = (
        f"searches: {len(runs)}, training runs: {train_runs}, "
        f"events: {len(event_records)}"
    )
    if span_count:
        summary += f", spans: {span_count}"
    lines.append(summary)
    if not runs:
        lines.append("(no search_start events recorded)")
        return "\n".join(lines)
    for index, run in enumerate(runs, start=1):
        lines += ["", *_render_search_section(run, index)]
    pool_lines = _pool_utilization_lines(event_records)
    if pool_lines:
        lines += ["", *pool_lines]
    return "\n".join(lines)


def _pool_utilization_lines(event_records: list[dict]) -> list[str]:
    """Per-worker utilization table from ``pool_utilization`` events.

    The pool emits one event per job wave; this aggregates across
    waves — tasks summed, busy fraction averaged — so sweeps and
    multi-wave searches render one table. Only constants are emitted
    on the in-process path, so recorded seeded dashboards stay
    byte-identical.
    """
    waves = [
        r.get("data", {})
        for r in event_records
        if r["event"] == "pool_utilization"
    ]
    if not waves:
        return []
    busy: dict[str, float] = {}
    seen: dict[str, int] = {}
    tasks: dict[str, int] = {}
    for wave in waves:
        for wid, stats in (wave.get("per_worker") or {}).items():
            busy[wid] = busy.get(wid, 0.0) + float(stats.get("busy_frac", 0.0))
            seen[wid] = seen.get(wid, 0) + 1
            tasks[wid] = tasks.get(wid, 0) + int(stats.get("tasks", 0))
    utilizations = [float(w.get("utilization", 0.0)) for w in waves]
    overall = sum(utilizations) / len(utilizations)
    lines = [
        f"worker pool utilization: {len(waves)} wave(s), "
        f"mean utilization {overall:.2f}"
    ]
    rows = [
        [
            f"worker-{wid}",
            str(tasks.get(wid, 0)),
            f"{busy[wid] / max(1, seen[wid]):.2f}",
        ]
        for wid in sorted(busy, key=lambda w: int(w) if w.isdigit() else 0)
    ]
    if rows:
        lines.extend(format_table(["worker", "tasks", "busy_frac"], rows))
    return lines


# ---------------------------------------------------------------------
# report diff
# ---------------------------------------------------------------------
def render_diff(path_a: str | Path, path_b: str | Path) -> str:
    """Compare two recorded runs (first search block of each file)."""
    events_a, records_a = load_run_records(path_a)
    events_b, records_b = load_run_records(path_b)
    label_a = records_a[0].get("label", "a")
    label_b = records_b[0].get("label", "b")
    if label_a == label_b:
        label_a, label_b = f"{label_a} (a)", f"{label_b} (b)"
    runs_a = split_searches(events_a)
    runs_b = split_searches(events_b)

    lines = [f"== Run diff: {label_a} vs {label_b} =="]
    if not runs_a or not runs_b:
        missing = label_a if not runs_a else label_b
        lines.append(f"(no search events recorded in {missing})")
        return "\n".join(lines)
    a, b = runs_a[0], runs_b[0]

    genotype_a, genotype_b = a.final_genotype(), b.final_genotype()
    if genotype_a == genotype_b:
        lines.append(f"final genotype: identical — {_describe(genotype_a)}")
    else:
        lines.append("final genotype: DIFFERS")
        lines.append(f"  {label_a}: {_describe(genotype_a)}")
        lines.append(f"  {label_b}: {_describe(genotype_b)}")
        if genotype_a is not None and genotype_b is not None:
            from repro.obs.search_telemetry import genotype_flips

            for flip in genotype_flips(genotype_a, genotype_b):
                lines.append(
                    f"  {flip['edge']}: {flip['from']} -> {flip['to']}"
                )

    rows = []
    for name, getter in (
        ("epochs", lambda r: r.num_epochs),
        ("convergence epoch", lambda r: r.convergence_epoch),
        ("genotype flips", lambda r: len(r.flips)),
        ("final val_score", lambda r: num(r.final_metric("val_score"))),
        ("final train_loss", lambda r: num(r.final_metric("train_loss"))),
        ("final val_loss", lambda r: num(r.final_metric("val_loss"))),
        ("mean final entropy", lambda r: num(_mean_final_entropy(r))),
    ):
        rows.append([name, str(getter(a)), str(getter(b))])
    lines.append("")
    lines.extend(format_table(["quantity", label_a, label_b], rows))

    for section in (
        _score_curve_diff(a, b, label_a, label_b),
        _hotspot_deltas(records_a, records_b, label_a, label_b),
        _memory_deltas(records_a, records_b, label_a, label_b),
    ):
        if section:
            lines += ["", *section]
    return "\n".join(lines)


def _mean_final_entropy(run: SearchRun) -> float | None:
    finals = [series[-1] for series in run.entropy.values() if series]
    if not finals:
        return None
    return sum(finals) / len(finals)


def _score_curve_diff(
    a: SearchRun, b: SearchRun, label_a: str, label_b: str
) -> list[str]:
    series_a = dict(a.metric_series("val_score"))
    series_b = dict(b.metric_series("val_score"))
    shared = sorted(set(series_a) & set(series_b))
    if not shared:
        return []
    picks = sorted({shared[0], shared[len(shared) // 2], shared[-1]})
    rows = []
    for epoch in picks:
        delta = series_b[epoch] - series_a[epoch]
        rows.append(
            [str(epoch), num(series_a[epoch]), num(series_b[epoch]),
             f"{delta:+.4f}"]
        )
    lines = ["val_score curve (first/mid/last shared epoch):"]
    lines.extend(format_table(["epoch", label_a, label_b, "delta"], rows))
    return lines


def _hotspot_deltas(
    records_a: list[dict],
    records_b: list[dict],
    label_a: str,
    label_b: str,
    top: int = 8,
) -> list[str]:
    spans_a = [r for r in records_a if r.get("type") == "span"]
    spans_b = [r for r in records_b if r.get("type") == "span"]
    if not spans_a or not spans_b:
        return []
    totals_a = {agg.path: agg.total for agg in aggregate_spans(spans_a)}
    totals_b = {agg.path: agg.total for agg in aggregate_spans(spans_b)}
    shared = set(totals_a) & set(totals_b)
    if not shared:
        return []
    # A delta that prints as zero is float summation noise, not a move;
    # listing it would push real moves out of the table. Ties (equal
    # deltas) keep name order, not set order, so the table does not
    # change with the interpreter's string hash seed.
    moved = sorted(
        sorted(
            path for path in shared
            if float(f"{totals_b[path] - totals_a[path]:.4f}") != 0.0
        ),
        key=lambda path: -abs(totals_b[path] - totals_a[path]),
    )
    lines = [f"hotspot deltas (cumulative seconds, {label_b} - {label_a}):"]
    if not moved:
        return [*lines, "(no phase moved at 4-decimal precision)"]
    rows = []
    for path in moved[:top]:
        base = totals_a[path]
        delta = totals_b[path] - base
        rows.append(
            [path, num(base), num(totals_b[path]), f"{delta:+.4f}",
             change_pct(delta / base if base > 1e-12 else None, "n/a")]
        )
    lines.extend(
        format_table(["phase", label_a, label_b, "delta", "pct"], rows)
    )
    return lines


def _memory_deltas(
    records_a: list[dict],
    records_b: list[dict],
    label_a: str,
    label_b: str,
    top: int = 8,
) -> list[str]:
    """Per-op retained/peak tape-memory deltas between two recorded runs.

    Only rendered when both traces carry a ``memory_stats`` record
    (i.e. both were captured with ``repro profile --memory``), so
    plain event logs keep their byte-identical dashboards.
    """
    stats_a = last_record(records_a, "memory_stats")
    stats_b = last_record(records_b, "memory_stats")
    if stats_a is None or stats_b is None:
        return []

    peak_a = stats_a.get("peak_live_bytes", 0)
    peak_b = stats_b.get("peak_live_bytes", 0)
    lines = [
        f"tape memory deltas ({label_b} - {label_a}):",
        f"overall peak live: {bytes_human(peak_a)} -> {bytes_human(peak_b)} "
        f"({signed_bytes(peak_a, peak_b)})",
    ]
    ops_a = stats_a.get("per_op") or {}
    ops_b = stats_b.get("per_op") or {}

    def sizes(op: str) -> list[tuple[int, int]]:
        """(a, b) retained bytes, then (a, b) peak live bytes."""
        entry_a, entry_b = ops_a.get(op) or {}, ops_b.get(op) or {}
        return [
            (entry_a.get(field, 0), entry_b.get(field, 0))
            for field in ("retained_bytes", "peak_live_bytes")
        ]

    ranked = sorted(
        sorted(set(ops_a) | set(ops_b)),
        key=lambda op: -sum(abs(b - a) for a, b in sizes(op)),
    )
    rows = []
    for op in ranked[:top]:
        row = [op]
        for a, b in sizes(op):
            row += [bytes_human(a), bytes_human(b), signed_bytes(a, b)]
        rows.append(row)
    if rows:
        lines.extend(
            format_table(
                ["op", f"retained {label_a}", f"retained {label_b}", "Δret",
                 f"peak {label_a}", f"peak {label_b}", "Δpeak"],
                rows,
            )
        )
    return lines
