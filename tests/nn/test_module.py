"""Module/Parameter system: discovery, modes, state dicts."""

import numpy as np
import pytest

from repro.nn.module import Module, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))
        self.bias = Parameter(np.zeros(2))


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.leaf = Leaf()
        self.items = [Leaf(), Leaf()]
        self.table = {"a": Leaf()}
        self.scale = Parameter(np.ones(1))


class TestDiscovery:
    def test_leaf_parameters(self):
        assert len(Leaf().parameters()) == 2

    def test_nested_discovery_includes_lists_and_dicts(self):
        # 4 leaves x 2 params + 1 scale
        assert len(Nested().parameters()) == 9

    def test_named_parameters_paths(self):
        names = {name for name, __ in Nested().named_parameters()}
        assert "leaf.weight" in names
        assert "items.0.bias" in names
        assert "table.a.weight" in names
        assert "scale" in names

    def test_num_parameters_counts_elements(self):
        assert Leaf().num_parameters() == 6

    def test_modules_traversal(self):
        modules = list(Nested().modules())
        assert len(modules) == 5  # self + 4 leaves

    def test_parameters_are_requires_grad(self):
        assert all(p.requires_grad for p in Nested().parameters())


class TestModes:
    def test_train_eval_propagates(self):
        model = Nested()
        model.eval()
        assert not model.training
        assert not model.items[0].training
        model.train()
        assert model.table["a"].training

    def test_train_returns_self(self):
        model = Leaf()
        assert model.train() is model
        assert model.eval() is model


class TestGradState:
    def test_zero_grad_clears_all(self):
        model = Leaf()
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        model = Nested()
        state = model.state_dict()
        for p in model.parameters():
            p.data = p.data + 5.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.leaf.weight.data, np.ones((2, 2)))

    def test_state_dict_is_a_copy(self):
        model = Leaf()
        state = model.state_dict()
        model.weight.data += 1.0
        np.testing.assert_allclose(state["weight"], np.ones((2, 2)))

    def test_missing_key_raises(self):
        model = Leaf()
        state = model.state_dict()
        del state["bias"]
        with pytest.raises(KeyError, match="mismatch"):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = Leaf()
        state = model.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError, match="mismatch"):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = Leaf()
        state = model.state_dict()
        state["bias"] = np.zeros(5)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestCallProtocol:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_repr_contains_param_count(self):
        assert "6" in repr(Leaf())
