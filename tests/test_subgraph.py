"""Tests for induced subgraphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builders import from_edges
from repro.graphs.generators import complete_graph, gnm_random
from repro.graphs.subgraph import (
    degrees_within,
    edges_within,
    induced_subgraph,
)

from .conftest import graphs


class TestInducedSubgraph:
    def test_full_subset_is_isomorphic(self):
        g = gnm_random(30, 90, seed=0)
        sub = induced_subgraph(g, np.arange(g.n))
        assert sub.m == g.m

    def test_empty_subset(self):
        g = gnm_random(10, 20, seed=1)
        sub = induced_subgraph(g, np.array([], dtype=np.int64))
        assert sub.n == 0 and sub.m == 0

    def test_triangle_in_clique(self):
        g = complete_graph(6)
        sub = induced_subgraph(g, np.array([1, 3, 5]))
        assert sub.n == 3 and sub.m == 3

    def test_keeps_subset_order(self):
        g = complete_graph(4)
        sub = induced_subgraph(g, np.array([3, 1]))
        np.testing.assert_array_equal(sub.vertices, [3, 1])
        np.testing.assert_array_equal(sub.to_original(np.array([0, 1])), [3, 1])

    def test_duplicates_raise(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            induced_subgraph(g, np.array([0, 0]))

    def test_result_is_valid_csr(self):
        g = gnm_random(40, 160, seed=2)
        sub = induced_subgraph(g, np.arange(0, 40, 3))
        sub.graph.validate()

    @given(graphs(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, g, rnd):
        subset = [v for v in range(g.n) if rnd.random() < 0.5]
        sub = induced_subgraph(g, np.asarray(subset, dtype=np.int64))
        expected = 0
        in_sub = set(subset)
        u, v = g.undirected_edges()
        for a, b in zip(u.tolist(), v.tolist()):
            if a in in_sub and b in in_sub:
                expected += 1
        assert sub.m == expected


class TestIndexMap:
    def test_inverse_of_vertices(self):
        g = gnm_random(40, 160, seed=5)
        sub = induced_subgraph(g, np.arange(1, 40, 3))
        np.testing.assert_array_equal(sub.to_local(sub.vertices),
                                      np.arange(sub.n))
        outside = np.setdiff1d(np.arange(g.n), sub.vertices)
        assert (sub.to_local(outside) == -1).all()

    def test_unsorted_subset(self):
        g = complete_graph(5)
        sub = induced_subgraph(g, np.array([4, 0, 2]))
        np.testing.assert_array_equal(sub.to_local(np.array([4, 0, 2])),
                                      [0, 1, 2])
        assert sub.to_local(np.array([1]))[0] == -1

    @given(graphs(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, g, rnd):
        subset = np.asarray([v for v in range(g.n) if rnd.random() < 0.5],
                            dtype=np.int64)
        sub = induced_subgraph(g, subset)
        local = np.arange(sub.n, dtype=np.int64)
        np.testing.assert_array_equal(sub.to_local(sub.to_original(local)),
                                      local)

    def test_sorted_and_shuffled_subsets_agree(self):
        # The ascending fast path (no lexsort) and the general path
        # must produce the same graph up to the relabeling.
        g = gnm_random(50, 250, seed=6)
        subset = np.arange(0, 50, 2)
        shuffled = subset.copy()
        np.random.default_rng(0).shuffle(shuffled)
        a = induced_subgraph(g, subset)
        b = induced_subgraph(g, shuffled)
        a.graph.validate()
        b.graph.validate()

        def edge_set(sub):
            u, v = sub.graph.undirected_edges()
            ou, ov = sub.to_original(u), sub.to_original(v)
            return {(min(x, y), max(x, y)) for x, y in zip(ou, ov)}

        assert edge_set(a) == edge_set(b)


class TestDegreesWithin:
    def test_full_mask(self):
        g = gnm_random(20, 60, seed=3)
        np.testing.assert_array_equal(
            degrees_within(g, np.ones(g.n, dtype=bool)), g.degrees)

    def test_empty_mask(self):
        g = gnm_random(10, 20, seed=4)
        assert degrees_within(g, np.zeros(g.n, dtype=bool)).sum() == 0

    def test_partial(self):
        g = from_edges([0, 0, 1], [1, 2, 2])  # triangle on {0,1,2}
        mask = np.array([True, True, False])
        np.testing.assert_array_equal(degrees_within(g, mask), [1, 1, 0])

    def test_wrong_length_raises(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            degrees_within(g, np.ones(5, dtype=bool))


class TestEdgesWithin:
    def test_triangle(self):
        g = complete_graph(3)
        assert edges_within(g, np.ones(3, dtype=bool)) == 3
        assert edges_within(g, np.array([True, True, False])) == 1
