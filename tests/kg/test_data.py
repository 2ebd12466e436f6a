"""Synthetic bilingual KG generation."""

import numpy as np
import pytest

from repro.kg.data import AlignmentDataset, KnowledgeGraph, generate_alignment_dataset


def small_dataset(seed=0, **overrides):
    defaults = dict(num_core=80, extra_1=10, extra_2=20, noise_triples=20)
    defaults.update(overrides)
    return generate_alignment_dataset(seed=seed, **defaults)


class TestKnowledgeGraph:
    def test_validates_triple_shape(self):
        with pytest.raises(ValueError, match=r"\(T, 3\)"):
            KnowledgeGraph(5, np.zeros((3, 2), dtype=np.int64))

    def test_validates_entity_range(self):
        with pytest.raises(ValueError, match="beyond"):
            KnowledgeGraph(2, np.array([[0, 0, 5]]))

    def test_as_graph_is_undirected_with_features(self):
        kg = KnowledgeGraph(3, np.array([[0, 0, 1], [1, 0, 2]]))
        graph = kg.as_graph()
        pairs = set(map(tuple, graph.edge_index.T))
        assert (1, 0) in pairs and (0, 1) in pairs
        assert graph.features.shape == (3, 1)

    def test_relation_count(self):
        kg = KnowledgeGraph(3, np.array([[0, 4, 1]]))
        assert kg.num_relations == 5


class TestGenerator:
    def test_deterministic(self):
        a, b = small_dataset(3), small_dataset(3)
        np.testing.assert_array_equal(a.kg1.triples, b.kg1.triples)
        np.testing.assert_array_equal(a.train_links, b.train_links)

    def test_split_fractions(self):
        ds = small_dataset()
        total = len(ds.train_links) + len(ds.val_links) + len(ds.test_links)
        assert total == 80
        assert abs(len(ds.train_links) / total - 0.3) < 0.05
        assert abs(len(ds.val_links) / total - 0.1) < 0.05

    def test_links_are_disjoint(self):
        ds = small_dataset()
        seen = set()
        for block in (ds.train_links, ds.val_links, ds.test_links):
            for pair in map(tuple, block):
                assert pair not in seen
                seen.add(pair)

    def test_view_sizes(self):
        ds = small_dataset()
        assert ds.kg1.num_entities == 90
        assert ds.kg2.num_entities == 100

    def test_index_permutation_hides_identity(self):
        """Gold pairs must not simply be equal indices."""
        ds = small_dataset()
        pairs = np.concatenate([ds.train_links, ds.val_links, ds.test_links])
        assert (pairs[:, 0] != pairs[:, 1]).any()

    def test_keep_fraction_controls_overlap(self):
        dense = small_dataset(keep_1=0.95, keep_2=0.95)
        sparse = small_dataset(keep_1=0.4, keep_2=0.4)
        assert dense.kg1.num_triples > sparse.kg1.num_triples

    def test_statistics_structure(self):
        stats = small_dataset().statistics()
        assert set(stats) == {"kg1", "kg2", "links"}
        assert stats["links"]["train"] == len(small_dataset().train_links)

    def test_link_validation(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            AlignmentDataset(
                kg1=ds.kg1,
                kg2=ds.kg2,
                train_links=np.zeros((3, 3)),
                val_links=ds.val_links,
                test_links=ds.test_links,
            )
