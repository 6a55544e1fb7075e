"""Metamorphic tests: invariances every coloring algorithm must respect.

Relabeling a graph, taking disjoint unions, or adding isolated vertices
changes nothing essential; these tests check that validity, quality
bounds, and work-efficiency survive such transformations for the fast
algorithms.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.coloring.jp import jp_adg, jp_by_name
from repro.coloring.speculative import itr
from repro.coloring.verify import assert_valid_coloring, num_colors
from repro.graphs.builders import from_edges, relabel
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu, gnm_random
from repro.graphs.properties import degeneracy

from .conftest import graphs

FAST_ALGS = ["JP-ADG", "JP-R", "JP-LLF", "ITR", "DEC-ADG-ITR", "GM"]


def disjoint_union(a: CSRGraph, b: CSRGraph) -> CSRGraph:
    au, av = a.undirected_edges()
    bu, bv = b.undirected_edges()
    return from_edges(np.concatenate([au, bu + a.n]),
                      np.concatenate([av, bv + a.n]),
                      n=a.n + b.n, name="union")


def relabel_random(g: CSRGraph, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    return relabel(g, rng.permutation(g.n))


def with_isolated(g: CSRGraph, extra: int) -> CSRGraph:
    u, v = g.undirected_edges()
    return from_edges(u, v, n=g.n + extra, name="padded")


class TestRelabelInvariance:
    @pytest.mark.parametrize("alg", FAST_ALGS)
    def test_validity_and_bound_survive_relabeling(self, alg):
        from repro.coloring.registry import color
        g = gnm_random(150, 600, seed=0)
        h = relabel_random(g, seed=1)
        for graph in (g, h):
            res = color(alg, graph, seed=0)
            assert_valid_coloring(graph, res.colors)
            assert res.num_colors <= graph.max_degree + 1

    def test_jp_adg_bound_invariant(self):
        g = chung_lu(300, 1500, seed=2)
        d = degeneracy(g)
        for seed in range(3):
            h = relabel_random(g, seed=seed)
            res = jp_adg(h, eps=0.1, seed=0)
            assert res.num_colors <= np.ceil(2.2 * d) + 1

    def test_degeneracy_invariant_under_relabeling(self):
        g = gnm_random(100, 400, seed=3)
        assert degeneracy(relabel_random(g, seed=4)) == degeneracy(g)


class TestDisjointUnion:
    def test_components_colored_independently(self):
        a = gnm_random(80, 320, seed=5)
        b = chung_lu(90, 360, seed=6)
        u = disjoint_union(a, b)
        res = jp_adg(u, eps=0.1, seed=0)
        assert_valid_coloring(u, res.colors)
        # union color count == max over components' standalone potential
        ca = num_colors(res.colors[:a.n])
        cb = num_colors(res.colors[a.n:])
        assert res.num_colors == max(ca, cb)

    def test_union_degeneracy_is_max(self):
        a = gnm_random(60, 240, seed=7)
        b = gnm_random(60, 120, seed=8)
        u = disjoint_union(a, b)
        assert degeneracy(u) == max(degeneracy(a), degeneracy(b))

    @pytest.mark.parametrize("alg", FAST_ALGS)
    def test_union_within_bound(self, alg):
        from repro.coloring.registry import color
        a = gnm_random(50, 200, seed=9)
        b = gnm_random(50, 100, seed=10)
        u = disjoint_union(a, b)
        res = color(alg, u, seed=0)
        assert_valid_coloring(u, res.colors)


class TestIsolatedPadding:
    def test_isolated_vertices_get_color_one_ish(self):
        g = gnm_random(60, 240, seed=11)
        padded = with_isolated(g, 20)
        res = jp_adg(padded, eps=0.1, seed=0)
        assert_valid_coloring(padded, res.colors)
        # padding can never increase the color count
        base = jp_adg(g, eps=0.1, seed=0)
        assert res.num_colors <= base.num_colors + 1

    def test_itr_padding(self):
        g = gnm_random(60, 240, seed=12)
        padded = with_isolated(g, 15)
        res = itr(padded, seed=0)
        assert_valid_coloring(padded, res.colors)
        assert np.all(res.colors[g.n:] == 1)


class TestSubgraphMonotonicity:
    def test_removing_edges_never_needs_more_colors_for_sl(self):
        """Greedy-SL quality bound d+1 is monotone under edge removal."""
        g = gnm_random(100, 500, seed=13)
        u, v = g.undirected_edges()
        keep = np.random.default_rng(0).random(u.size) < 0.5
        h = from_edges(u[keep], v[keep], n=g.n)
        assert degeneracy(h) <= degeneracy(g)
        res_h = jp_by_name(h, "SL", seed=0)
        assert res_h.num_colors <= degeneracy(g) + 1


class TestPropertyIntegration:
    @given(graphs(max_n=25, max_m=70))
    @settings(max_examples=25, deadline=None)
    def test_fast_algorithms_valid_on_arbitrary_graphs(self, g):
        from repro.coloring.registry import color
        for alg in ["JP-ADG", "ITR", "DEC-ADG-ITR"]:
            res = color(alg, g, seed=0)
            assert_valid_coloring(g, res.colors)

    @given(graphs(max_n=25, max_m=70))
    @settings(max_examples=25, deadline=None)
    def test_jp_adg_bound_property(self, g):
        if g.n == 0:
            return
        d = degeneracy(g)
        res = jp_adg(g, eps=0.01, seed=0)
        assert res.num_colors <= max(np.ceil(2.02 * d) + 1, 1)
