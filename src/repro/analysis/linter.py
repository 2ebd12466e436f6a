"""Filesystem driver: discover sources, build rules, lint everything.

:func:`lint_paths` is what ``repro lint`` and the self-check test call
(both over :func:`lint_roots` by default): it gathers ``.py`` files
under the given paths and runs the full rule set over every file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.analysis.engine import AnalysisResult, Rule, analyze_source
from repro.analysis.rules import CORE_RULES

__all__ = ["discover_files", "default_rules", "lint_paths", "lint_roots"]


def lint_roots() -> list[str]:
    """The package itself plus the checkout's ``tests/``, ``benchmarks/``,
    ``examples/`` and ``scripts/`` trees when running from a source
    checkout (they don't ship in an installed package, so their absence
    is not an error)."""
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    repo_root = os.path.dirname(os.path.dirname(package_dir))
    paths = [package_dir]
    for name in ("tests", "benchmarks", "examples", "scripts"):
        candidate = os.path.join(repo_root, name)
        if os.path.isdir(candidate):
            paths.append(candidate)
    return paths


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of python sources."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            files.add(path)
        else:
            raise FileNotFoundError(f"no python source at {path}")
    return sorted(files)


def default_rules() -> list[Rule]:
    """The full shipped rule set."""
    return [rule_cls() for rule_cls in CORE_RULES]


def lint_paths(paths: Iterable[str | Path]) -> AnalysisResult:
    """Lint every python file under ``paths`` with the default rules."""
    rules = default_rules()
    result = AnalysisResult()
    for path in discover_files(paths):
        source = path.read_text(encoding="utf-8")
        result.merge(analyze_source(source, path=str(path), rules=rules))
    result.sort()
    return result
