"""Engine semantics: memoized answers, coalesced batches, plan cache."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.gnn.common import GraphCache
from repro.serve import InferenceEngine, PlanCache, Request
from repro.serve.plans import graph_key

from tests.naive_kernels import KERNEL_PATHS, kernel_path
from tests.serve.conftest import make_ring_graph


@pytest.fixture(scope="module")
def engine(node_artifact):
    return InferenceEngine.from_artifact(node_artifact)


class TestBatching:
    def test_batched_equals_single(self, engine):
        rng = np.random.default_rng(3)
        id_sets = [
            rng.integers(0, engine.num_targets, size=4) for __ in range(6)
        ]
        batched = engine.predict_batch(
            [Request(node_ids=ids) for ids in id_sets]
        )
        for ids, result in zip(id_sets, batched):
            assert np.array_equal(result, engine.predict(node_ids=ids))

    def test_none_ids_returns_full_logits(self, engine):
        full = engine.predict()
        assert full.shape[0] == engine.num_targets
        some = engine.predict(node_ids=np.array([0, 1]))
        assert np.array_equal(some, full[:2])

    def test_empty_batch(self, engine):
        assert engine.predict_batch([]) == []

    def test_mixed_graph_batch_groups_per_graph(self, engine, node_artifact):
        foreign = make_ring_graph(
            12, node_artifact.features["num_features"], seed=1, name="ring"
        )
        batch = [
            Request(node_ids=np.array([0, 1])),
            Request(node_ids=np.array([2, 3]), graph=foreign),
            Request(node_ids=np.array([4, 5])),
        ]
        results = engine.predict_batch(batch)
        assert np.array_equal(results[0], engine.predict(node_ids=[0, 1]))
        assert np.array_equal(
            results[1], engine.predict(node_ids=[2, 3], graph=foreign)
        )
        assert np.array_equal(results[2], engine.predict(node_ids=[4, 5]))


class TestMemo:
    """Default-graph answers come from one forward made at construction."""

    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_memo_is_bit_identical_to_a_fresh_forward(self, node_artifact, backend):
        with kernel_path(backend):
            engine = InferenceEngine.from_artifact(node_artifact)
            model, data = node_artifact.instantiate()
            with no_grad():
                fresh = model.forward(data.features, GraphCache(data)).numpy()
            assert np.array_equal(engine.predict(), fresh)
            ids = np.array([5, 0, 5, engine.num_targets - 1])
            assert np.array_equal(engine.predict(node_ids=ids), fresh[ids])

    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_alignment_memo_is_bit_identical_to_a_fresh_encode(
        self, kg_artifact, backend
    ):
        with kernel_path(backend):
            engine = InferenceEngine.from_artifact(kg_artifact)
            model, __ = kg_artifact.instantiate()
            with no_grad():
                z1, z2 = (z.numpy() for z in model.encode())
            ids = np.array([3, 1])
            expected = -np.abs(z1[ids][:, None, :] - z2[None, :, :]).sum(axis=-1)
            assert np.array_equal(engine.predict(node_ids=ids), expected)

    def test_mutating_a_full_answer_leaves_later_answers_unchanged(self, node_artifact):
        engine = InferenceEngine.from_artifact(node_artifact)
        first = engine.predict()
        before = first.copy()
        first[:] = 0.0
        assert np.array_equal(engine.predict(), before)
        assert np.array_equal(engine.predict(node_ids=[0, 1]), before[:2])

    def test_matches_a_forward_on_an_equal_copy_of_the_graph(self, node_artifact):
        engine = InferenceEngine.from_artifact(node_artifact)
        graph = engine.default_graph
        copy = type(graph)(
            edge_index=graph.edge_index.copy(), features=graph.features.copy()
        )
        ids = np.arange(6)
        assert np.array_equal(
            engine.predict(node_ids=ids, graph=copy), engine.predict(node_ids=ids)
        )

    def test_default_graph_needs_no_forward_and_no_plan_slot(self, node_artifact):
        engine = InferenceEngine.from_artifact(node_artifact)
        assert not engine.needs_forward(Request(node_ids=np.array([0])))
        engine.predict(node_ids=np.array([0, 1]))
        engine.predict()
        stats = engine.plan_cache.stats()
        assert stats["size"] == 0 and stats["hits"] == stats["misses"] == 0
        assert not hasattr(engine, "data")


class TestPlanCache:
    def test_same_structure_shares_a_key(self, node_artifact):
        dim = node_artifact.features["num_features"]
        a = make_ring_graph(10, dim, seed=0, name="a")
        b = make_ring_graph(10, dim, seed=0, name="b")
        assert graph_key(a) == graph_key(b)
        cache = PlanCache(capacity=4)
        cache.get(a)
        cache.get(b)
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_lru_eviction_at_capacity(self, node_artifact):
        dim = node_artifact.features["num_features"]
        graphs = [
            make_ring_graph(8 + i, dim, seed=i, name=f"g{i}") for i in range(3)
        ]
        cache = PlanCache(capacity=2)
        for graph in graphs:
            cache.get(graph)
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        assert stats["misses"] == 3
        # g0 was evicted; g2 (most recent) is still resident.
        cache.get(graphs[2])
        assert cache.stats()["hits"] == 1
        cache.get(graphs[0])
        assert cache.stats()["misses"] == 4

    def test_default_graph_is_pinned_across_evictions(self, node_artifact):
        # The default graph's answers are memoized, outside the LRU.
        engine = InferenceEngine.from_artifact(node_artifact, plan_capacity=2)
        baseline = engine.predict(node_ids=np.array([0, 1, 2]))
        dim = node_artifact.features["num_features"]
        # A burst of foreign graphs cycles the LRU well past capacity …
        for index in range(5):
            foreign = make_ring_graph(6 + index, dim, seed=index, name=f"f{index}")
            engine.predict(node_ids=np.array([0]), graph=foreign)
        # … but the artifact's own graph never gets rebuilt or changed.
        assert np.array_equal(
            engine.predict(node_ids=np.array([0, 1, 2])), baseline
        )
        assert engine.plan_cache.stats()["evictions"] >= 3


class TestAlignment:
    def test_scores_shape_and_slicing(self, kg_artifact):
        engine = InferenceEngine.from_artifact(kg_artifact)
        full = engine.predict()
        assert full.shape == (
            kg_artifact.features["num_entities_1"],
            kg_artifact.features["num_entities_2"],
        )
        some = engine.predict(node_ids=np.array([3, 5]))
        assert np.array_equal(some, full[[3, 5]])

    def test_alignment_rejects_per_request_graphs(self, kg_artifact, node_artifact):
        engine = InferenceEngine.from_artifact(kg_artifact)
        foreign = make_ring_graph(
            6, node_artifact.features["num_features"], seed=0, name="x"
        )
        with pytest.raises(ValueError, match="alignment requests cannot carry"):
            engine.predict_batch([Request(graph=foreign)])
