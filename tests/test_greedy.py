"""Tests for the sequential Greedy coloring baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.greedy import greedy, greedy_by_name, greedy_color_sequence
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import (
    complete_graph,
    gnm_random,
    random_bipartite,
    ring,
    star,
)
from repro.graphs.properties import degeneracy
from repro.machine.costmodel import CostModel
from repro.machine.memmodel import MemoryModel
from repro.ordering.simple import ff_ordering

from .conftest import graphs, sequential_greedy

GREEDY_NAMES = ["FF", "R", "LF", "SL", "ID", "SD"]


class TestGreedySequence:
    def test_valid_coloring(self, small_random):
        seq = np.arange(small_random.n)
        colors = greedy_color_sequence(small_random, seq)
        assert_valid_coloring(small_random, colors)

    def test_delta_plus_one(self, small_random):
        colors = greedy_color_sequence(small_random,
                                       np.arange(small_random.n))
        assert colors.max() <= small_random.max_degree + 1

    def test_clique_uses_n_colors(self):
        g = complete_graph(7)
        colors = greedy_color_sequence(g, np.arange(7))
        assert colors.max() == 7

    def test_even_ring_two_colors_good_order(self):
        g = ring(8)
        colors = greedy_color_sequence(g, np.arange(8))
        assert colors.max() == 2

    def test_star_two_colors(self):
        g = star(10)
        colors = greedy_color_sequence(g, np.arange(g.n))
        assert colors.max() == 2

    def test_non_permutation_raises(self, small_random):
        with pytest.raises(ValueError):
            greedy_color_sequence(small_random,
                                  np.zeros(small_random.n, dtype=np.int64))

    @pytest.mark.parametrize("seq", [[-1, 1, 2, 3, 4, 5],   # wraps to 5
                                     [0, 1, 2, 3, 4, 6],    # past n - 1
                                     [0, 1, 2, 3, 4, 4],    # a repeat
                                     [0, 1, 2, 3, 4]])      # too short
    def test_out_of_range_sequence_raises(self, seq):
        # -1 passes an np.unique count but indexes from the end, which
        # left vertex 0 unranked; an entry >= n must not surface as an
        # IndexError.
        with pytest.raises(ValueError, match="permutation"):
            greedy_color_sequence(ring(6), np.asarray(seq))

    def test_order_matters(self):
        """A crown-graph-style instance where order changes quality."""
        # bipartite crown: FF order alternating sides forces many colors
        n = 6
        us, vs = [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    us.append(2 * i)
                    vs.append(2 * j + 1)
        from repro.graphs.builders import from_edges
        g = from_edges(us, vs)
        bad = greedy_color_sequence(g, np.arange(g.n))  # interleaved
        sides = np.concatenate([np.arange(0, 2 * n, 2),
                                np.arange(1, 2 * n, 2)])
        good = greedy_color_sequence(g, sides)
        assert good.max() == 2
        assert bad.max() > good.max()


class TestGreedyMatchesOracle:
    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences(self, g, rnd):
        seq = list(range(g.n))
        rnd.shuffle(seq)
        np.testing.assert_array_equal(greedy_color_sequence(g, seq),
                                      sequential_greedy(g, seq))

    def test_books_one_sequential_round(self, small_random):
        g = small_random
        cost, mem = CostModel(), MemoryModel()
        greedy_color_sequence(g, np.arange(g.n), cost=cost, mem=mem)
        assert cost.round_log == [("<toplevel>", g.n + 2 * g.m, g.n)]
        assert (mem.sequential, mem.random) == (g.n, 2 * g.m)


class TestGreedyByName:
    @pytest.mark.parametrize("name", GREEDY_NAMES)
    def test_valid(self, name, small_random):
        res = greedy_by_name(small_random, name, seed=0)
        assert_valid_coloring(small_random, res.colors)
        assert res.algorithm == f"Greedy-{name}"

    @pytest.mark.parametrize("name", GREEDY_NAMES)
    def test_delta_bound(self, name, small_random):
        res = greedy_by_name(small_random, name, seed=0)
        assert res.num_colors <= small_random.max_degree + 1

    def test_greedy_sl_degeneracy_bound(self):
        """Greedy under the exact degeneracy order uses <= d + 1 colors."""
        for seed in range(4):
            g = gnm_random(120, 480, seed=seed)
            res = greedy_by_name(g, "SL")
            assert res.num_colors <= degeneracy(g) + 1

    def test_greedy_sd_often_best(self):
        g = random_bipartite(25, 25, 160, seed=1)
        res = greedy_by_name(g, "SD")
        assert res.num_colors == 2  # DSATUR is exact on bipartite graphs

    def test_unknown_raises(self, small_random):
        with pytest.raises(ValueError):
            greedy_by_name(small_random, "NOPE")


class TestGreedyWithOrdering:
    def test_records_reorder_cost(self, small_random):
        res = greedy(small_random, ff_ordering(small_random))
        assert res.reorder_cost is not None
        assert res.total_work >= res.cost.work

    def test_wall_clock_positive(self, small_random):
        res = greedy(small_random, ff_ordering(small_random))
        assert res.wall_seconds > 0
