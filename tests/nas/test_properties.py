"""Hypothesis property tests for NAS encodings and samplers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search_space import Architecture, SearchSpace
from repro.nas.encoding import sane_decision_space
from repro.nas.tpe import TPESampler


def spaces():
    node_subsets = st.lists(
        st.sampled_from(["gcn", "gat", "gin", "sage-mean", "sage-max"]),
        min_size=2,
        max_size=4,
        unique=True,
    )
    return st.builds(
        lambda layers, nodes: SearchSpace(num_layers=layers, node_ops=tuple(nodes)),
        st.integers(1, 4),
        node_subsets,
    )


@given(spaces(), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_encode_decode_roundtrip(space, seed):
    dspace = sane_decision_space(space)
    rng = np.random.default_rng(seed)
    indices = dspace.sample_indices(rng)
    arch = dspace.decode(indices)
    assert isinstance(arch, Architecture)
    assert space.contains(arch)


@given(spaces())
@settings(max_examples=30, deadline=None)
def test_decision_space_size_matches_search_space(space):
    assert sane_decision_space(space).size() == space.size()


@given(spaces(), st.integers(0, 20), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_tpe_proposals_always_valid(space, seed, observations):
    dspace = sane_decision_space(space)
    rng = np.random.default_rng(seed)
    sampler = TPESampler(dspace, rng, num_startup=2)
    for i in range(observations):
        indices = dspace.sample_indices(rng)
        sampler.observe(indices, float(i % 3))
    proposal = sampler.propose()
    for position, index in enumerate(proposal):
        assert 0 <= index < dspace.num_choices(position)
