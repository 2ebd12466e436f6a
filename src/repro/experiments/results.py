"""Result containers and table rendering for the experiment harness.

Benchmarks print the regenerated tables in the same row/column layout
as the paper so paper-vs-measured comparison (EXPERIMENTS.md) is a
visual diff.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ExperimentTable", "format_scores", "render_table"]


def format_scores(values: list[float]) -> str:
    """``0.8926 (0.0123)`` — the paper's mean (std) cell format."""
    array = np.asarray(values, dtype=np.float64)
    return f"{array.mean():.4f} ({array.std():.4f})"


def render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Plain-text aligned table (monospace, benchmark-output friendly)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rows)
    return "\n".join(parts)


@dataclasses.dataclass
class ExperimentTable:
    """A reproduced table: raw per-cell score lists plus rendering."""

    title: str
    headers: list[str]
    # row label -> column label -> list of raw scores
    cells: dict[str, dict[str, list[float]]]

    def scores(self, row: str, column: str) -> list[float]:
        return self.cells[row][column]

    def mean(self, row: str, column: str) -> float:
        return float(np.mean(self.cells[row][column]))

    def best_row(self, column: str) -> str:
        """Row label with the highest mean in ``column``."""
        return max(self.cells, key=lambda row: self.mean(row, column))

    def render(self) -> str:
        rows = []
        for label, columns in self.cells.items():
            row = [label]
            for header in self.headers[1:]:
                values = columns.get(header)
                row.append(format_scores(values) if values else "-")
            rows.append(row)
        return render_table(self.headers, rows, title=self.title)
