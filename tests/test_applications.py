"""Tests for the ADG application kept beside coloring: maximal cliques."""

from hypothesis import given, settings

from repro.applications.cliques import (
    count_maximal_cliques,
    max_clique,
    maximal_cliques,
    maximal_cliques_exact_order,
)
from repro.graphs.builders import from_edges, to_networkx
from repro.graphs.generators import (
    complete_graph,
    gnm_random,
    grid_2d,
    planted_kcore,
    ring,
    star,
)

from .conftest import graphs


class TestMaximalCliques:
    def _assert_matches_networkx(self, g):
        import networkx as nx

        ours = sorted(tuple(c) for c in maximal_cliques(g))
        theirs = sorted(tuple(sorted(c))
                        for c in nx.find_cliques(to_networkx(g)))
        assert ours == theirs

    def test_triangle(self):
        g = from_edges([0, 1, 2], [1, 2, 0])
        assert sorted(maximal_cliques(g)) == [[0, 1, 2]]

    def test_clique(self):
        assert list(maximal_cliques(complete_graph(6))) == [[0, 1, 2, 3, 4, 5]]

    def test_ring(self):
        g = ring(6)
        cliques = sorted(tuple(c) for c in maximal_cliques(g))
        assert len(cliques) == 6
        assert all(len(c) == 2 for c in cliques)

    def test_star(self):
        g = star(5)
        assert count_maximal_cliques(g) == 5

    def test_isolated_vertices(self):
        g = from_edges([0], [1], n=4)
        cliques = sorted(tuple(c) for c in maximal_cliques(g))
        assert cliques == [(0, 1), (2,), (3,)]

    def test_matches_networkx_random(self):
        for seed in range(4):
            self._assert_matches_networkx(gnm_random(40, 120, seed=seed))

    def test_matches_networkx_grid(self):
        self._assert_matches_networkx(grid_2d(5, 6))

    @given(graphs(max_n=18, max_m=45))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_property(self, g):
        self._assert_matches_networkx(g)

    def test_exact_order_variant_agrees(self):
        g = gnm_random(35, 100, seed=5)
        a = sorted(tuple(c) for c in maximal_cliques(g))
        b = sorted(tuple(c) for c in maximal_cliques_exact_order(g))
        assert a == b

    def test_max_clique(self):
        g = planted_kcore(50, 7, fringe_edges=1, seed=6)
        assert len(max_clique(g)) == 8  # the planted K_8

    def test_max_clique_empty(self):
        assert max_clique(from_edges([], [], n=0)) == []
