"""Tests for the baseline ordering heuristics (FF, R, LF, LLF, SL, SLL,
ASL, ID, SD) — Table II of the paper."""

import numpy as np
import pytest

from repro.graphs.generators import (
    complete_graph,
    gnm_random,
    grid_2d,
    path_graph,
    star,
)
from repro.graphs.properties import degeneracy
from repro.ordering import ORDERINGS, asl_ordering, get_ordering, sll_ordering
from repro.ordering.incidence import id_ordering
from repro.ordering.saturation import dsatur
from repro.ordering.simple import (
    ff_ordering,
    lf_ordering,
    llf_ordering,
    random_ordering,
)
from repro.ordering.sl import sl_ordering

ALL_NAMES = sorted(ORDERINGS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestAllOrderings:
    def test_ranks_are_permutation(self, name, small_random):
        o = get_ordering(name, small_random, seed=0)
        o.validate()

    def test_deterministic_given_seed(self, name, small_random):
        a = get_ordering(name, small_random, seed=5)
        b = get_ordering(name, small_random, seed=5)
        np.testing.assert_array_equal(a.ranks, b.ranks)

    def test_cost_recorded(self, name, small_random):
        o = get_ordering(name, small_random, seed=0)
        assert o.cost.work > 0

    def test_single_vertex(self, name):
        from repro.graphs.builders import empty_graph
        o = get_ordering(name, empty_graph(1), seed=0)
        np.testing.assert_array_equal(o.ranks, [0])


class TestFF:
    def test_natural_order(self):
        g = gnm_random(10, 20, seed=0)
        o = ff_ordering(g)
        # vertex 0 first (highest rank)
        assert o.ranks[0] == g.n - 1
        assert o.ranks[g.n - 1] == 0


class TestRandom:
    def test_seeds_differ(self):
        g = gnm_random(50, 100, seed=0)
        assert not np.array_equal(random_ordering(g, seed=1).ranks,
                                  random_ordering(g, seed=2).ranks)


class TestLF:
    def test_largest_degree_first(self):
        g = star(10)
        o = lf_ordering(g, seed=0)
        assert o.ranks[0] == g.n - 1  # the hub has the highest rank

    def test_degree_monotone(self):
        g = gnm_random(40, 160, seed=1)
        o = lf_ordering(g, seed=0)
        deg = g.degrees
        order = np.argsort(-o.ranks)  # highest rank first
        assert np.all(np.diff(deg[order]) <= 0)


class TestLLF:
    def test_log_buckets(self):
        g = gnm_random(40, 120, seed=2)
        o = llf_ordering(g, seed=0)
        assert o.levels is not None
        # buckets of LLF are coarser than LF's exact degrees
        assert o.num_levels <= int(np.ceil(np.log2(g.max_degree + 1))) + 2

    def test_higher_bucket_outranks(self):
        g = star(16)
        o = llf_ordering(g, seed=0)
        assert o.ranks[0] == g.n - 1


class TestSL:
    def test_degeneracy_order_property(self):
        """Each vertex has at most d higher-ranked neighbors."""
        g = gnm_random(80, 320, seed=3)
        o = sl_ordering(g)
        d = degeneracy(g)
        src, dst = g.edge_array()
        higher = o.ranks[dst] > o.ranks[src]
        counts = np.bincount(src[higher], minlength=g.n)
        assert counts.max() <= d

    def test_clique_any_order_works(self):
        o = sl_ordering(complete_graph(5))
        o.validate()

    def test_path_sequential_depth(self):
        g = path_graph(50)
        o = sl_ordering(g)
        assert o.cost.depth >= g.n  # Omega(n), the paper's complaint


class TestSLL:
    def test_levels_present(self):
        g = gnm_random(60, 240, seed=4)
        o = sll_ordering(g, seed=0)
        assert o.levels is not None
        assert o.num_levels >= 1

    def test_grid_round_bound(self):
        # Hasenplaugh et al.: O(log Delta log n) rounds
        g = grid_2d(15, 15)
        o = sll_ordering(g, seed=0)
        bound = (np.ceil(np.log2(g.max_degree + 1)) + 1) * \
            (np.ceil(np.log2(g.n)) + 1)
        assert o.num_levels <= bound

    def test_approximates_sl_quality_direction(self):
        # SLL ranks low-degree fringe below high-degree core, like SL
        g = star(20)
        o = sll_ordering(g, seed=0)
        assert o.ranks[0] == g.n - 1


class TestASL:
    def test_levels(self):
        g = gnm_random(60, 180, seed=5)
        o = asl_ordering(g, seed=0)
        assert o.num_levels >= 1
        o.validate()

    def test_path_removed_in_batches(self):
        g = path_graph(20)
        o = asl_ordering(g, seed=0)
        # min-degree batches peel both endpoints inward: > 1 round
        assert o.num_levels > 1


class TestID:
    def test_first_vertex_has_max_degree(self):
        g = star(8)
        o = id_ordering(g)
        # with no ordered vertices yet, the tie-break is degree: hub first
        assert o.ranks[0] == g.n - 1

    def test_is_total_order(self, small_random):
        id_ordering(small_random).validate()


class TestSD:
    def test_dsatur_coloring_valid(self):
        from repro.coloring.verify import assert_valid_coloring
        g = gnm_random(60, 240, seed=7)
        res = dsatur(g, seed=0)
        assert_valid_coloring(g, res.colors)

    def test_dsatur_bipartite_optimal(self):
        """DSATUR is exact on bipartite graphs."""
        from repro.graphs.generators import random_bipartite
        g = random_bipartite(20, 20, 100, seed=8)
        res = dsatur(g, seed=0)
        assert res.colors.max() <= 2

    def test_ordering_valid(self, small_random):
        dsatur(small_random, seed=0).ordering.validate()


def test_unknown_ordering_raises(small_random):
    with pytest.raises(ValueError):
        get_ordering("NOPE", small_random)
