"""Tape memory accounting: live-set tracking and the hotspot table.

Answers "what does the search cost in memory": every tape entry retains
its output array (and whatever arrays its backward closure captured)
until the backward pass releases the tape, so peak tape memory — not
the model's parameter count — is what bounds the supernet size.

:class:`MemoryTracker` is a hook on the ``Tensor._from_op`` dispatch
chain (:func:`repro.autograd.tensor.add_tape_hook`) and accounts, per
tape entry,

* **output bytes** — the op's result array;
* **input bytes** — the parents' arrays (attributed, not owned: parents
  are counted as their own entries' outputs);
* **retained bytes** — ndarrays captured by the backward closure beyond
  the output and parent arrays (masks, softmax denominators, gathered
  copies). These are the buffers a fused VJP either keeps or recomputes.

An entry is *live* while its backward closure is referenced — i.e.
while the tape can still reach it. A ``weakref.finalize`` on the
closure releases the entry's bytes: ops under ``no_grad`` (and ops
whose inputs need no gradient) are released immediately, which is
exactly the "transient vs retained" distinction DESIGN section 7
documents. The tracker keeps the running live total, the overall peak,
the peak of each epoch (keyed by the epoch span's path and index, so a
search epoch and a retraining epoch of the same index stay apart), and
per-(span path, op) *site* peaks — the "top retained-buffer sites" of
``repro report memory``.

Zero-overhead-when-off: nothing here runs until a tracker is installed.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.autograd import tensor
from repro.obs.autograd import op_name
from repro.obs.report import bytes_human, format_table, last_record
from repro.obs.sinks import read_records
from repro.obs.spans import get_tracer

__all__ = [
    "MemoryTracker",
    "render_memory_report",
    "render_memory_report_file",
]


def _retained_bytes(backward_fn, data, parents) -> int:
    """Bytes of closure-captured ndarrays beyond the output and inputs."""
    cells = getattr(backward_fn, "__closure__", None)
    if not cells:
        return 0
    known = {id(data)}
    for parent in parents:
        known.add(id(parent.data))
    total = 0
    seen: set[int] = set()
    for cell in cells:
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            key = id(value)
            if key not in known and key not in seen:
                seen.add(key)
                total += int(value.nbytes)
    return total


class _SiteStats:
    __slots__ = ("entries", "output_bytes", "input_bytes", "retained_bytes",
                 "live", "peak_live")

    def __init__(self):
        self.entries = 0
        self.output_bytes = 0
        self.input_bytes = 0
        self.retained_bytes = 0
        self.live = 0
        self.peak_live = 0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "output_bytes": self.output_bytes,
            "input_bytes": self.input_bytes,
            "retained_bytes": self.retained_bytes,
            "peak_live_bytes": self.peak_live,
        }


class MemoryTracker:
    """Accounts tape-node bytes per op, per span path, and per epoch.

    Install/uninstall adds/removes its hook on the tape-hook chain, so
    the tracker composes with the op profiler and the health monitor.
    Cumulative stats survive ``uninstall`` for post-run reporting.
    """

    def __init__(self):
        self.current_live = 0
        self.peak_live = 0
        self.per_op: dict[str, _SiteStats] = {}
        self.per_path: dict[str, _SiteStats] = {}
        self.per_site: dict[tuple[str, str], _SiteStats] = {}
        # (epoch span path, epoch index) -> peak live bytes
        self.epoch_peaks: dict[tuple[str, int], int] = {}
        self.installed = False

    # ------------------------------------------------------------------
    def install(self) -> "MemoryTracker":
        if not self.installed:
            tensor.add_tape_hook(self._tape_hook)
            self.installed = True
        return self

    def uninstall(self) -> None:
        if self.installed:
            tensor.remove_tape_hook(self._tape_hook)
            self.installed = False

    def __enter__(self) -> "MemoryTracker":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    def _site(self, table: dict, key) -> _SiteStats:
        stats = table.get(key)
        if stats is None:
            stats = table[key] = _SiteStats()
        return stats

    def _tape_hook(self, data, parents, backward_fn):
        array = np.asarray(data)
        out_bytes = int(array.nbytes)
        in_bytes = sum(int(p.data.nbytes) for p in parents)
        retained = _retained_bytes(backward_fn, data, parents)
        path, epoch = get_tracer().position()
        path = path or "<no-span>"
        op = op_name(backward_fn)

        entry_bytes = out_bytes + retained
        self.current_live += entry_bytes
        if self.current_live > self.peak_live:
            self.peak_live = self.current_live
        if epoch is not None:
            previous = self.epoch_peaks.get(epoch, 0)
            if self.current_live > previous:
                self.epoch_peaks[epoch] = self.current_live

        sites = (
            self._site(self.per_op, op),
            self._site(self.per_path, path),
            self._site(self.per_site, (path, op)),
        )
        for stats in sites:
            stats.entries += 1
            stats.output_bytes += out_bytes
            stats.input_bytes += in_bytes
            stats.retained_bytes += retained
            stats.live += entry_bytes
            if stats.live > stats.peak_live:
                stats.peak_live = stats.live
        # The backward closure is created fresh per op call and lives
        # exactly as long as the tape entry does; finalizing it is how
        # the live set learns about releases. no_grad ops (closure
        # dropped before the Tensor is even built) release immediately —
        # those are the *transient* entries.
        weakref.finalize(backward_fn, self._release, entry_bytes, sites)
        return backward_fn

    def _release(self, entry_bytes: int, sites: tuple) -> None:
        self.current_live -= entry_bytes
        for stats in sites:
            stats.live -= entry_bytes

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready snapshot (the ``memory_stats`` trace record body)."""
        return {
            "peak_live_bytes": self.peak_live,
            "current_live_bytes": self.current_live,
            "epoch_peaks": {
                f"{path}:{index}": peak
                for (path, index), peak in sorted(self.epoch_peaks.items())
            },
            "per_op": {
                op: stats.to_dict() for op, stats in self.per_op.items()
            },
            "per_path": {
                path: stats.to_dict() for path, stats in self.per_path.items()
            },
            "sites": [
                {"path": path, "op": op, **stats.to_dict()}
                for (path, op), stats in self.per_site.items()
            ],
        }


# ---------------------------------------------------------------------
# report rendering (`repro report memory`)
# ---------------------------------------------------------------------
def render_memory_report(stats: dict, top: int = 10) -> str:
    """Render the per-span peak-memory hotspot table from a stats dict."""
    sections: list[str] = []
    peak = stats.get("peak_live_bytes", 0)
    sections.append(f"== Tape memory: peak live {bytes_human(peak)} ==")

    paths = sorted(
        (stats.get("per_path") or {}).items(),
        key=lambda item: -item[1].get("peak_live_bytes", 0),
    )[: max(top, 1)]
    if paths:
        rows = [
            [
                path,
                str(entry.get("entries", 0)),
                bytes_human(entry.get("peak_live_bytes", 0)),
                bytes_human(entry.get("output_bytes", 0)),
                bytes_human(entry.get("retained_bytes", 0)),
            ]
            for path, entry in paths
        ]
        lines = [f"-- Top {len(rows)} span paths by peak live bytes --"]
        lines.extend(
            format_table(
                ["span path", "entries", "peak live", "out bytes", "retained"],
                rows,
            )
        )
        sections.append("\n".join(lines))

    sites = sorted(
        stats.get("sites") or [],
        key=lambda site: -site.get("retained_bytes", 0),
    )
    sites = [s for s in sites if s.get("retained_bytes", 0) > 0][: max(top, 1)]
    if sites:
        rows = [
            [
                f"{site.get('path', '?')}:{site.get('op', '?')}",
                str(site.get("entries", 0)),
                bytes_human(site.get("retained_bytes", 0)),
                bytes_human(site.get("peak_live_bytes", 0)),
            ]
            for site in sites
        ]
        lines = [f"-- Top {len(rows)} retained-buffer sites --"]
        lines.extend(
            format_table(["site (path:op)", "entries", "retained", "peak live"], rows)
        )
        sections.append("\n".join(lines))

    epochs = stats.get("epoch_peaks") or {}
    if epochs:
        ordered = sorted(epochs.items(), key=_epoch_order)
        title = "-- Peak tape memory per epoch --"
        if len(ordered) > max(top, 1):
            # Long runs: keep the heaviest epochs, in epoch order.
            heaviest = sorted(ordered, key=lambda item: -item[1])[: max(top, 1)]
            ordered = sorted(heaviest, key=_epoch_order)
            title = (
                f"-- Peak tape memory per epoch (top {len(ordered)} "
                f"of {len(epochs)}) --"
            )
        lines = [title]
        lines.extend(
            format_table(
                ["epoch", "peak live"],
                [[str(e), bytes_human(peak)] for e, peak in ordered],
            )
        )
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


def _epoch_order(item: tuple[str, int]) -> tuple[str, int]:
    """Sort key of an ``epoch_peaks`` entry: epoch span path, then index.

    Keys read ``<epoch span path>:<index>``; traces recorded before the
    path was part of the key carry the bare index.
    """
    path, _, index = item[0].rpartition(":")
    return path, int(index)


def render_memory_report_file(path, top: int = 10) -> str:
    """Render ``repro report memory`` from a recorded trace file."""
    stats = last_record(read_records(path, kind="trace"), "memory_stats")
    if stats is None:
        raise ValueError(
            f"{path}: no memory_stats record — record the run with "
            "`repro profile --memory`"
        )
    return render_memory_report(stats, top=top)
