"""AST-based static analysis enforcing the repo's invariants.

``repro lint`` (and the tier-1 self-check test) run a rule-based
analyzer over :func:`lint_roots`. See ``rules.py`` for the rule set
and the README's "Static analysis" section for the user-facing
documentation. The invariants a test can execute (tape integrity,
parameter registration, gradient-free serving, request-trace
completeness, mixture provenance, genotype membership) are checked at
runtime in tier-1, not here.
"""

from repro.analysis.engine import (
    AnalysisResult,
    Context,
    Rule,
    analyze_source,
    collect_suppressions,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.linter import default_rules, discover_files, lint_paths, lint_roots
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import CORE_RULES

__all__ = [
    "AnalysisResult",
    "Context",
    "Rule",
    "Finding",
    "Severity",
    "analyze_source",
    "collect_suppressions",
    "CORE_RULES",
    "default_rules",
    "discover_files",
    "lint_paths",
    "lint_roots",
    "render_json",
    "render_text",
]
