"""Rule engine: one AST walk, type-dispatched rules, inline suppression.

The engine is deliberately small:

* a :class:`Rule` declares which ``ast`` node types it wants via
  :attr:`Rule.node_types` and yields :class:`Finding` objects from
  :meth:`Rule.check`;
* :func:`analyze_source` parses a module once, walks the tree once and
  dispatches each node to the rules registered for its type;
* ``# lint: disable=<rule-id>[,<rule-id>...]`` on the offending line
  suppresses matching findings (``disable=all`` suppresses every rule).
  The conventional format is ``# lint: disable=<id> -- justification``.

Suppressed findings are retained separately so reporters can count them
and the self-check test can assert suppressions stay justified.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding, Severity

__all__ = [
    "Context",
    "Rule",
    "AnalysisResult",
    "collect_suppressions",
    "analyze_source",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([\w\-]+(?:\s*,\s*[\w\-]+)*)")


@dataclasses.dataclass
class Context:
    """Context handed to every rule check: the file being linted."""

    path: str


class Rule:
    """Base class for all lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding zero or more findings for each visited node.
    """

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    node_types: tuple[type[ast.AST], ...] = ()

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, ctx: Context, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclasses.dataclass
class AnalysisResult:
    """Outcome of an analyzer run over one or more files."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    suppressed: list[Finding] = dataclasses.field(default_factory=list)
    files: int = 0

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    def merge(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files += other.files

    def sort(self) -> None:
        self.findings.sort(key=lambda f: f.sort_key)
        self.suppressed.sort(key=lambda f: f.sort_key)


def collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled on that line."""
    suppressions: dict[int, set[str]] = {}

    def record(line: int, spec: str) -> None:
        ids = {part.strip() for part in spec.split(",") if part.strip()}
        if ids:
            suppressions.setdefault(line, set()).update(ids)

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                match = _SUPPRESS_RE.search(token.string)
                if match:
                    record(token.start[0], match.group(1))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to a line scan so suppression still works on files
        # the tokenizer rejects (they will also carry a syntax-error
        # finding from the parser).
        for line_number, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                record(line_number, match.group(1))
    return suppressions


class _Walker(ast.NodeVisitor):
    """Single-pass visitor dispatching nodes to interested rules."""

    def __init__(self, rules: Sequence[Rule], ctx: Context):
        self._dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)
        self.ctx = ctx
        self.findings: list[Finding] = []

    def visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            self.findings.extend(rule.check(node, self.ctx))
        self.generic_visit(node)


def analyze_source(
    source: str,
    path: str = "<memory>",
    rules: Iterable[Rule] = (),
) -> AnalysisResult:
    """Run ``rules`` over one module's source text."""
    result = AnalysisResult(files=1)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                rule_id="syntax-error",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"cannot parse module: {exc.msg}",
            )
        )
        return result

    walker = _Walker(list(rules), Context(path=path))
    walker.visit(tree)

    suppressions = collect_suppressions(source)
    for finding in walker.findings:
        disabled = suppressions.get(finding.line, set())
        if finding.rule_id in disabled or "all" in disabled:
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.sort()
    return result
