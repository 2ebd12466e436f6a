"""The analyzer gates the repo: the whole tree must stay lint-clean.

Every PR runs this through the default pytest suite, so an unsuppressed
error-severity finding under :func:`repro.analysis.lint_roots` — the
package plus the checkout's ``tests``, ``benchmarks``, ``examples`` and
``scripts`` — fails CI, exactly as ``repro lint`` does.
"""

import pytest

from repro.analysis import (
    CORE_RULES,
    Severity,
    collect_suppressions,
    discover_files,
    lint_paths,
    lint_roots,
)

# Rules the tree legitimately suppresses, each pattern reviewed:
# - unledgered-entrypoint: the two read-only CLI handlers (`repro runs`
#   must not write the ledger it reads; `repro report` only renders
#   existing telemetry).
# New suppressions of other rules deserve review — extend this set
# consciously.
ALLOWED_SUPPRESSIONS = {"unledgered-entrypoint"}


@pytest.fixture(scope="module")
def findings():
    return lint_paths(lint_roots())


class TestSelfCheck:
    def test_tree_has_no_unsuppressed_errors(self, findings):
        errors = [f for f in findings.findings if f.severity is Severity.ERROR]
        assert errors == [], "\n" + "\n".join(f.render() for f in errors)

    def test_tree_has_no_warnings(self, findings):
        # Warnings don't fail `repro lint`, but the tree currently has
        # none; keep it that way (or suppress with a justification).
        warnings = [f for f in findings.findings if f.severity is Severity.WARNING]
        assert warnings == [], "\n" + "\n".join(f.render() for f in warnings)

    def test_every_suppression_is_an_allowed_pattern(self, findings):
        assert {f.rule_id for f in findings.suppressed} <= ALLOWED_SUPPRESSIONS

    def test_every_suppression_comment_names_a_rule(self):
        # A directive naming no shipped rule suppresses nothing; it is a
        # leftover of a deleted rule or a typo. Comments are read through
        # the tokenizer, so directives inside fixture strings don't count.
        known = {rule.rule_id for rule in CORE_RULES} | {"all"}
        stale = []
        for path in discover_files(lint_roots()):
            source = path.read_text(encoding="utf-8")
            for line, ids in collect_suppressions(source).items():
                stale.extend(f"{path}:{line}: {rule}" for rule in ids - known)
        assert stale == [], "\n" + "\n".join(stale)

    def test_library_timing_goes_through_obs(self, findings):
        # The adhoc-timing rule keeps raw perf_counter pairs out of the
        # library; nothing in src/repro should even need a suppression.
        timing = [
            f
            for f in findings.findings + findings.suppressed
            if f.rule_id == "adhoc-timing"
        ]
        assert timing == [], "\n" + "\n".join(f.render() for f in timing)

    def test_process_fanout_goes_through_parallel(self, findings):
        # The raw-multiprocessing rule fences process primitives into
        # repro.parallel; the rest of the library must submit SearchJobs,
        # and nothing should need a suppression.
        fanout = [
            f
            for f in findings.findings + findings.suppressed
            if f.rule_id == "raw-multiprocessing"
        ]
        assert fanout == [], "\n" + "\n".join(f.render() for f in fanout)

    def test_whole_tree_was_scanned(self, findings):
        # ~82 package modules + ~65 test modules + ~10 benchmarks.
        assert findings.files > 140
