"""SANE search space: size formula, sampling, enumeration, validation."""

import numpy as np
import pytest

from repro.core.search_space import (
    LAYER_OPS,
    NODE_OPS,
    SKIP_OPS,
    Architecture,
    SearchSpace,
)


class TestOperationSets:
    def test_paper_counts(self):
        assert len(NODE_OPS) == 11
        assert len(LAYER_OPS) == 3
        assert len(SKIP_OPS) == 2


class TestArchitecture:
    def test_valid_construction(self):
        arch = Architecture(("gcn", "gat"), ("identity", "zero"), "max")
        assert arch.num_layers == 2
        assert arch.skip_flags == (True, False)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="skip choice"):
            Architecture(("gcn",), ("identity", "zero"), "max")

    def test_unknown_node_op_raises(self):
        with pytest.raises(ValueError, match="node aggregators"):
            Architecture(("conv",), ("identity",), "max")

    def test_unknown_layer_op_raises(self):
        with pytest.raises(ValueError, match="layer aggregator"):
            Architecture(("gcn",), ("identity",), "mean")

    def test_unknown_skip_raises(self):
        with pytest.raises(ValueError, match="skip ops"):
            Architecture(("gcn",), ("maybe",), "max")

    def test_describe_format(self):
        arch = Architecture(("gcn", "gat"), ("identity", "zero"), "lstm")
        text = str(arch)
        assert "gcn -> gat" in text
        assert "IZ" in text
        assert "lstm" in text

    def test_hashable_and_equal(self):
        a = Architecture(("gcn",), ("identity",), "max")
        b = Architecture(("gcn",), ("identity",), "max")
        assert a == b
        assert hash(a) == hash(b)


class TestSearchSpace:
    def test_paper_size_for_k3(self):
        """Section III-C: 11^3 * 2^3 * 3 = 31,944."""
        assert SearchSpace(num_layers=3).size() == 31_944

    def test_size_formula_general(self):
        space = SearchSpace(num_layers=2, node_ops=("gcn", "gat"), layer_ops=("max",))
        assert space.size() == 2**2 * 2**2 * 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError, match="num_layers"):
            SearchSpace(num_layers=0)

    def test_empty_ops_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SearchSpace(num_layers=1, node_ops=())

    def test_sample_is_member(self):
        space = SearchSpace(num_layers=3)
        rng = np.random.default_rng(0)
        for __ in range(20):
            arch = space.sample(rng)
            assert space.contains(arch)
            assert arch.num_layers == 3

    def test_sample_deterministic_with_seed(self):
        space = SearchSpace(num_layers=3)
        a = space.sample(np.random.default_rng(5))
        b = space.sample(np.random.default_rng(5))
        assert a == b

    def test_sample_covers_space(self):
        space = SearchSpace(num_layers=1, node_ops=("gcn", "gat"))
        rng = np.random.default_rng(0)
        seen = {space.sample(rng) for __ in range(200)}
        assert len(seen) == space.size()

    def test_enumerate_count_matches_size(self):
        space = SearchSpace(num_layers=2, node_ops=("gcn", "gat", "gin"))
        archs = list(space.enumerate())
        assert len(archs) == space.size()
        assert len(set(archs)) == space.size()

    def test_contains_rejects_wrong_depth(self):
        space = SearchSpace(num_layers=2)
        arch = Architecture(("gcn",), ("identity",), "max")
        assert not space.contains(arch)

    def test_repr(self):
        assert "31944" in repr(SearchSpace(num_layers=3))


class TestEmulation:
    """Table II: the space emulates the human-designed models."""

    @pytest.mark.parametrize(
        "ops",
        [
            ("gcn", "gcn", "gcn"),
            ("sage-mean", "sage-mean", "sage-mean"),
            ("gat", "gat", "gat"),
            ("gin", "gin", "gin"),
            ("geniepath", "geniepath", "geniepath"),
        ],
    )
    def test_uniform_stacks_are_members(self, ops):
        space = SearchSpace(num_layers=3)
        # Plain stacking = all skips ZERO except the last layer + any
        # JK choice; JK-Networks = all identity + concat/max/lstm.
        plain = Architecture(ops, ("zero", "zero", "identity"), "concat")
        jk = Architecture(ops, ("identity",) * 3, "concat")
        assert space.contains(plain)
        assert space.contains(jk)

    def test_gat_variants_present(self):
        for variant in ("gat", "gat-sym", "gat-cos", "gat-linear", "gat-gen-linear"):
            assert variant in NODE_OPS
