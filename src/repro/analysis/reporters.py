"""Text and JSON renderers for analyzer results."""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult

__all__ = ["render_text", "render_json"]


def render_text(result: AnalysisResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    lines.append(
        f"{result.files} file(s): {result.error_count} error(s), "
        f"{result.warning_count} warning(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report for CI consumption."""
    payload = {
        "files": result.files,
        "errors": result.error_count,
        "warnings": result.warning_count,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
    }
    return json.dumps(payload, indent=2)

