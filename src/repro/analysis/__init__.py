"""AST-based static analysis enforcing the repo's invariants.

``repro lint`` (and the tier-1 self-check test) run a rule-based
analyzer over the source tree. See ``rules.py`` for the core rule set,
``genotype.py`` for search-space validation, and the README's
"Static analysis" section for the user-facing documentation.
"""

from repro.analysis.engine import (
    AnalysisResult,
    Context,
    Rule,
    analyze_source,
    collect_suppressions,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.genotype import (
    GenotypeRule,
    OpTables,
    collect_op_tables,
    consistency_findings,
)
from repro.analysis.linter import default_rules, discover_files, lint_paths
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
    "GenotypeRule",
    "OpTables",
    "collect_op_tables",
    "consistency_findings",
    "default_rules",
    "discover_files",
    "lint_paths",
    "render_json",
    "render_text",
]
