"""Renderers and the trend gate for the run ledger (``repro runs``).

The ``repro report bench`` gate is point-in-time: one fresh payload
against one committed baseline. The trend gate here is its
complement over *history*: for each watched metric it compares the
trailing window of runs against the median of the older runs and
flags drift in the bad direction — a single +50% spike gates through
the window-of-1 check, a slow +10%-per-run creep gates through the
wider windows that a point gate never sees. Each window is judged by
the bench gate's own rule (:func:`repro.obs.bench_gate.classify`,
with direction from :func:`~repro.obs.bench_gate.metric_direction`),
so ``*time*``/``p99``-style metrics gate on increases and
``*score*``/``*gbps*`` metrics on decreases; unrecognised names
render but never gate.

All functions here return strings — printing stays in the CLI (the
``naked-print`` rule's contract).
"""

from __future__ import annotations

import statistics
from datetime import datetime, timezone

from repro.obs.bench_gate import Verdict, classify, metric_direction
from repro.obs.report import change_pct, format_table, num, sparkline
from repro.obs.runs import RunManifest

__all__ = [
    "metric_series",
    "evaluate_trend",
    "render_trend",
    "render_runs_list",
    "render_run_show",
    "render_runs_diff",
]

# Relative drift tolerated before the trailing window counts as
# regressed/improved; wall-clock noise at smoke scale sits well below.
DEFAULT_TOLERANCE = 0.25
# Longest trailing window compared against the older history.
DEFAULT_WINDOW = 3
# Fewer points than this and drift is indistinguishable from noise.
MIN_POINTS = 3


def _when(t_wall: float | None) -> str:
    if t_wall is None:
        return "-"
    stamp = datetime.fromtimestamp(float(t_wall), tz=timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M")


def metric_series(
    manifests: list[RunManifest],
    metric: str,
    command: str | None = None,
) -> list[float]:
    """The metric's values in append order, skipping runs without it."""
    return [
        float(m.metrics[metric])
        for m in manifests
        if metric in m.metrics and (command is None or m.command == command)
    ]


def evaluate_trend(
    values: list[float],
    metric: str,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
) -> Verdict:
    """Compare trailing windows against the median of the older runs.

    For each window size ``w`` in ``1..window`` the mean of the last
    ``w`` values is classified against the median of everything
    before them; the verdict is the worst window, or the best when
    none regressed but one improved. ``w=1`` catches a fresh spike,
    the larger windows catch sustained creep that no single point
    trips.
    """
    direction = metric_direction(metric)
    windows: list[Verdict] = []
    if direction != 0 and len(values) >= MIN_POINTS:
        for w in range(1, min(window, len(values) - 2) + 1):
            baseline = statistics.median(values[:-w])
            if abs(baseline) < 1e-12:
                continue
            verdict = classify(
                metric, baseline, sum(values[-w:]) / w, direction, tolerance
            )
            verdict.window = w
            windows.append(verdict)
    if not windows:
        status = (
            "no-data" if not values
            else "untracked" if direction == 0
            else "insufficient"
        )
        return Verdict(metric, status, direction, values=list(values))
    verdict = min(windows, key=lambda v: v.change * direction)
    if verdict.status != "regression":
        best = max(windows, key=lambda v: v.change * direction)
        if best.status == "improved":
            verdict = best
    verdict.values = list(values)
    return verdict


def render_trend(
    manifests: list[RunManifest],
    metrics: list[str],
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
    last: int | None = None,
    command: str | None = None,
) -> tuple[str, bool]:
    """The ``repro runs trend`` table; returns ``(text, gate_failed)``."""
    rows = []
    failed = False
    for metric in metrics:
        values = metric_series(manifests, metric, command=command)
        if last:
            values = values[-last:]
        verdict = evaluate_trend(
            values, metric, tolerance=tolerance, window=window
        )
        failed = failed or verdict.gates
        arrow = {1: "up", -1: "down", 0: "?"}[verdict.direction]
        rows.append(
            [
                metric,
                str(verdict.points),
                arrow,
                sparkline(verdict.values) or "-",
                num(verdict.baseline),
                num(verdict.values[-1] if verdict.values else None),
                change_pct(verdict.change),
                verdict.status.upper()
                if verdict.status == "regression" else verdict.status,
            ]
        )
    header = f"== Run trends (tolerance {tolerance:.0%}, window {window}) =="
    lines = [header]
    lines.extend(
        format_table(
            ["metric", "n", "good", "trend", "baseline", "last", "drift",
             "status"],
            rows,
        )
    )
    if failed:
        lines.append("")
        lines.append(
            "GATE: sustained drift beyond tolerance (or a gated metric "
            "with no history)"
        )
    return "\n".join(lines), failed


# ---------------------------------------------------------------------
# list / show / diff
# ---------------------------------------------------------------------
def render_runs_list(
    manifests: list[RunManifest],
    last: int | None = None,
    command: str | None = None,
) -> str:
    """The ``repro runs list`` history table."""
    entries = list(enumerate(manifests))
    if command is not None:
        entries = [(seq, m) for seq, m in entries if m.command == command]
    total = len(entries)
    if last:
        entries = entries[-last:]
    lines = [f"== Run ledger: {total} run(s) =="]
    if not entries:
        lines.append("(empty — run any repro command to record a manifest)")
        return "\n".join(lines)
    rows = [
        [
            str(seq),
            manifest.run_id,
            manifest.command,
            str(manifest.env.get("scale") or "-"),
            str(manifest.env.get("seed")
                if manifest.env.get("seed") is not None else "-"),
            str(manifest.env.get("git_rev") or "-"),
            _when(manifest.t_wall),
            str(len(manifest.metrics)),
        ]
        for seq, manifest in entries
    ]
    lines.extend(
        format_table(
            ["seq", "run_id", "command", "scale", "seed", "git", "when",
             "metrics"],
            rows,
        )
    )
    return "\n".join(lines)


def render_run_show(
    manifest: RunManifest,
    seq: int | None = None,
    producer: RunManifest | None = None,
) -> str:
    """One manifest, fully expanded (``repro runs show <ref>``).

    ``producer`` is the resolved lineage parent, when the manifest
    points at one and the ledger still holds it.
    """
    title = f"== Run {manifest.run_id}"
    if seq is not None:
        title += f" (seq {seq})"
    title += f": {manifest.command} =="
    lines = [title]
    lines.append(f"recorded:      {_when(manifest.t_wall)}")
    if manifest.duration_s is not None:
        lines.append(f"duration:      {manifest.duration_s:.2f}s")
    lines.append(f"config digest: {manifest.config_digest}")
    for key in sorted(manifest.config):
        lines.append(f"  {key}: {manifest.config[key]!r}")
    env = manifest.env
    lines.append(
        "env:           scale={scale} seed={seed} "
        "workers={workers} git={git} py={py}".format(
            scale=env.get("scale"), seed=env.get("seed"),
            workers=env.get("workers"),
            git=env.get("git_rev") or "-", py=env.get("python") or "-",
        )
    )
    if manifest.outputs:
        lines.append("outputs:")
        for key in sorted(manifest.outputs):
            lines.append(f"  {key}: {manifest.outputs[key]!r}")
    if manifest.metrics:
        lines.append("metrics:")
        rows = [
            [name, f"{manifest.metrics[name]:.6g}"]
            for name in sorted(manifest.metrics)
        ]
        lines.extend(format_table(["name", "value"], rows))
    if manifest.artifacts:
        lines.append("artifacts:")
        rows = [
            [
                str(entry.get("role", "-")),
                str(entry.get("path", "-")),
                str(entry.get("content_hash", "-"))[:16],
            ]
            for entry in manifest.artifacts
        ]
        lines.extend(format_table(["role", "path", "content_hash"], rows))
    if manifest.files:
        lines.append("files:")
        for path in manifest.files:
            lines.append(f"  {path}")
    if manifest.children:
        lines.append(f"children: {len(manifest.children)} job(s)")
        keys = sorted({key for child in manifest.children for key in child})
        rows = [
            [str(child.get(key, "-")) for key in keys]
            for child in manifest.children
        ]
        lines.extend(format_table(keys, rows))
    if manifest.lineage:
        lines.append("lineage:")
        for key in sorted(manifest.lineage):
            lines.append(f"  {key}: {manifest.lineage[key]}")
        producer_id = manifest.lineage.get("producer_run_id")
        if producer is not None:
            lines.append(
                f"  -> produced by {producer.run_id} "
                f"({producer.command}, config {producer.config_digest})"
            )
        elif producer_id:
            lines.append(
                f"  -> producer {producer_id} not found in this ledger"
            )
    return "\n".join(lines)


def render_runs_diff(
    a: RunManifest, b: RunManifest, top: int = 12
) -> str:
    """Two manifests compared: env drift and shared-metric deltas."""
    lines = [f"== Run diff: {a.run_id} ({a.command}) vs "
             f"{b.run_id} ({b.command}) =="]
    if a.config_digest == b.config_digest:
        lines.append(f"config: identical ({a.config_digest})")
    else:
        lines.append(
            f"config: DIFFERS ({a.config_digest} vs {b.config_digest})"
        )
        keys = sorted(set(a.config) | set(b.config))
        for key in keys:
            va, vb = a.config.get(key), b.config.get(key)
            if va != vb:
                lines.append(f"  {key}: {va!r} -> {vb!r}")
    env_keys = sorted(set(a.env) | set(b.env))
    env_diffs = [
        f"  {key}: {a.env.get(key)!r} -> {b.env.get(key)!r}"
        for key in env_keys
        if a.env.get(key) != b.env.get(key)
    ]
    if env_diffs:
        lines.append("env drift:")
        lines.extend(env_diffs)
    shared = sorted(set(a.metrics) & set(b.metrics))
    if shared:
        shared.sort(
            key=lambda name: -abs(b.metrics[name] - a.metrics[name])
        )
        rows = []
        for name in shared[:top]:
            va, vb = a.metrics[name], b.metrics[name]
            delta = vb - va
            pct = change_pct(delta / abs(va) if abs(va) > 1e-12 else None, "n/a")
            rows.append(
                [name, f"{va:.6g}", f"{vb:.6g}", f"{delta:+.6g}", pct]
            )
        lines.append("")
        lines.append("metric deltas (b - a):")
        lines.extend(format_table(["metric", "a", "b", "delta", "pct"], rows))
    only_a = sorted(set(a.metrics) - set(b.metrics))
    only_b = sorted(set(b.metrics) - set(a.metrics))
    if only_a:
        lines.append(f"only in a: {', '.join(only_a[:8])}")
    if only_b:
        lines.append(f"only in b: {', '.join(only_b[:8])}")
    return "\n".join(lines)
