"""Genotype membership in the Table I space, checked at runtime.

``Architecture.__post_init__`` validates every genotype when it is
built — literal or computed — against the op registries, and
``core/search_space.py`` asserts at import that every declared op has
a registry factory. :func:`table_problems` states the remaining
declaration invariants (the paper's 11/3/2 op counts, no repeated
names, no op without a factory); the seeded tables below show each
one is caught.
"""

import numpy as np
import pytest

from repro.core.search_space import (
    LAYER_OPS,
    NODE_OPS,
    SKIP_OPS,
    Architecture,
    SearchSpace,
)
from repro.gnn.aggregators import NODE_AGGREGATORS
from repro.gnn.layer_aggregators import LAYER_AGGREGATORS

# Paper Table I op counts (the 11^K * 2^(K-1) * 3 space of Section III-C).
PAPER_SIZES = {"NODE_OPS": 11, "LAYER_OPS": 3, "SKIP_OPS": 2}


def table_problems(tables: dict, registries: dict) -> list[str]:
    """Violations of the op-table invariants.

    ``tables`` maps ``NODE_OPS``/``LAYER_OPS``/``SKIP_OPS`` to op-name
    tuples; ``registries`` maps a table name to the registry whose
    factories its names must have.
    """
    problems = []
    for name, ops in tables.items():
        if len(ops) != PAPER_SIZES[name]:
            problems.append(f"{name} has {len(ops)} ops; Table I has {PAPER_SIZES[name]}")
        repeated = sorted({op for op in ops if ops.count(op) > 1})
        if repeated:
            problems.append(f"{name} repeats {repeated}")
        missing = sorted(set(ops) - set(registries.get(name, ops)))
        if missing:
            problems.append(f"{name} has no factory for {missing}")
    return problems


REAL_TABLES = {"NODE_OPS": NODE_OPS, "LAYER_OPS": LAYER_OPS, "SKIP_OPS": SKIP_OPS}
REAL_REGISTRIES = {"NODE_OPS": NODE_AGGREGATORS, "LAYER_OPS": LAYER_AGGREGATORS}


class TestOpTables:
    def test_collects_tuples_and_registry_keys(self):
        # The search-space tuples name exactly the registries' factories.
        assert NODE_OPS == tuple(NODE_AGGREGATORS)
        assert LAYER_OPS == tuple(LAYER_AGGREGATORS)
        assert SKIP_OPS == ("identity", "zero")

    def test_registry_wins_over_tuple_for_validation(self, monkeypatch):
        # Genotypes validate against the registry: an op with a factory
        # but outside NODE_OPS is a valid (restricted-space) genotype.
        with pytest.raises(ValueError, match="extra"):
            Architecture(("extra",), ("identity",), "concat")
        monkeypatch.setitem(NODE_AGGREGATORS, "extra", NODE_AGGREGATORS["gcn"])
        assert Architecture(("extra",), ("identity",), "concat").num_layers == 1


class TestGenotypeRule:
    def test_unknown_node_op_flagged(self):
        with pytest.raises(ValueError, match="bogus"):
            Architecture(("gcn", "bogus"), ("identity", "zero"), "concat")

    def test_arity_mismatch_flagged(self):
        with pytest.raises(ValueError, match="skip choice"):
            Architecture(("gcn",), ("identity", "zero"), "concat")

    def test_unknown_skip_and_layer_ops_flagged(self):
        with pytest.raises(ValueError, match="residual"):
            Architecture(("gcn",), ("residual",), "concat")
        with pytest.raises(ValueError, match="attention"):
            Architecture(("gcn",), ("identity",), "attention")

    def test_valid_literal_is_clean(self):
        arch = Architecture(("gcn", "gat"), ("identity", "zero"), "concat")
        assert arch.num_layers == 2

    def test_dynamic_arguments_are_skipped(self):
        # Computed genotypes get the same check as literals: every
        # sample of the full space is valid, a computed bad one is not.
        space = SearchSpace(num_layers=3)
        rng = np.random.default_rng(0)
        for __ in range(20):
            assert space.contains(space.sample(rng))
        nodes = [op.upper() for op in NODE_OPS[:2]]
        with pytest.raises(ValueError, match="node aggregators"):
            Architecture(tuple(nodes), SKIP_OPS, LAYER_OPS[0])


class TestConsistency:
    def test_registry_drift_is_an_error(self):
        problems = table_problems(
            {"NODE_OPS": NODE_OPS}, {"NODE_OPS": {"gcn": object}}
        )
        assert any("no factory" in p and "gat" in p for p in problems)

    def test_duplicate_names_in_tuple_flagged(self):
        problems = table_problems({"SKIP_OPS": ("zero", "zero")}, {})
        assert problems == ["SKIP_OPS repeats ['zero']"]

    def test_paper_size_deviation_is_a_warning(self):
        problems = table_problems(
            {"NODE_OPS": ("gcn", "gat"), "LAYER_OPS": ("concat",)}, {}
        )
        assert problems == [
            "NODE_OPS has 2 ops; Table I has 11",
            "LAYER_OPS has 1 ops; Table I has 3",
        ]


class TestRealSearchSpace:
    """The shipped declarations must validate against themselves."""

    def test_repo_tables_are_consistent(self):
        assert table_problems(REAL_TABLES, REAL_REGISTRIES) == []
        assert SearchSpace(num_layers=3).size() == 11**3 * 2**3 * 3
