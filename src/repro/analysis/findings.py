"""Finding/severity model shared by the rule engine and reporters.

A :class:`Finding` is one violation of a repo invariant at a concrete
source location. Findings are plain frozen dataclasses so reporters can
sort, serialise and deduplicate them without touching the AST layer.
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is; only ERROR findings fail the lint gate."""

    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return 1 if self is Severity.ERROR else 0

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule_id}] {self.message}"
        )
