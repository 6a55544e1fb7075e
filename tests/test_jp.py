"""Tests for the Jones-Plassmann engine and its ordering combinations."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.coloring.jp import jp, jp_adg, jp_adg_m, jp_by_name, jp_color, longest_dag_path
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import (
    complete_graph,
    gnm_random,
    path_graph,
    ring,
    star,
)
from repro.graphs.properties import degeneracy
from repro.ordering import get_ordering
from repro.ordering.base import Ordering

from .conftest import graphs, sequential_greedy

JP_NAMES = ["FF", "R", "LF", "LLF", "SL", "SLL", "ASL", "ADG", "ADG-M"]


class TestJPCore:
    def test_valid(self, small_random):
        colors, waves = jp_color(small_random,
                                 np.random.default_rng(0).permutation(small_random.n))
        assert_valid_coloring(small_random, colors)
        assert waves >= 1

    def test_matches_sequential_greedy(self, small_random):
        """JP computes exactly the greedy coloring of its total order."""
        rng = np.random.default_rng(1)
        ranks = rng.permutation(small_random.n).astype(np.int64)
        jp_colors, _ = jp_color(small_random, ranks)
        seq = np.argsort(-ranks)
        greedy_colors = sequential_greedy(small_random, seq)
        np.testing.assert_array_equal(jp_colors, greedy_colors)

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_greedy_property(self, g):
        rng = np.random.default_rng(0)
        ranks = rng.permutation(g.n).astype(np.int64)
        jp_colors, _ = jp_color(g, ranks)
        greedy_colors = sequential_greedy(g, np.argsort(-ranks))
        np.testing.assert_array_equal(jp_colors, greedy_colors)

    def test_path_ff_wave_count(self):
        """FF on a path: the DAG is the path itself -> n waves."""
        g = path_graph(30)
        ranks = np.arange(30)[::-1].copy()  # vertex 0 highest
        _, waves = jp_color(g, ranks)
        assert waves == 30

    def test_ring_random_few_waves(self):
        g = ring(200)
        rng = np.random.default_rng(2)
        _, waves = jp_color(g, rng.permutation(200).astype(np.int64))
        assert waves < 30  # longest path in a random ring DAG is O(log n)

    def test_wrong_rank_length_raises(self, small_random):
        with pytest.raises(ValueError):
            jp_color(small_random, np.arange(3))

    def test_empty_graph(self):
        from repro.graphs.builders import empty_graph
        colors, waves = jp_color(empty_graph(0), np.empty(0, dtype=np.int64))
        assert colors.size == 0 and waves == 0

    def test_isolated_vertices_one_wave(self):
        from repro.graphs.builders import empty_graph
        g = empty_graph(5)
        colors, waves = jp_color(g, np.arange(5))
        assert waves == 1
        assert np.all(colors == 1)

    def test_longest_dag_path(self):
        g = path_graph(10)
        assert longest_dag_path(g, np.arange(10)[::-1].copy()) == 9


@pytest.mark.parametrize("name", JP_NAMES)
class TestJPVariants:
    def test_valid(self, name, small_random):
        res = jp_by_name(small_random, name, seed=0)
        assert_valid_coloring(small_random, res.colors)
        assert res.algorithm == f"JP-{name}"

    def test_delta_plus_one(self, name, small_random):
        res = jp_by_name(small_random, name, seed=0)
        assert res.num_colors <= small_random.max_degree + 1

    def test_deterministic(self, name, small_random):
        a = jp_by_name(small_random, name, seed=4)
        b = jp_by_name(small_random, name, seed=4)
        np.testing.assert_array_equal(a.colors, b.colors)


class TestJPQualityBounds:
    def test_jp_sl_degeneracy_plus_one(self):
        for seed in range(4):
            g = gnm_random(150, 600, seed=seed)
            res = jp_by_name(g, "SL", seed=seed)
            assert res.num_colors <= degeneracy(g) + 1

    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    def test_jp_adg_bound(self, eps):
        """Corollary 1: JP-ADG uses <= ceil(2(1+eps)d) + 1 colors."""
        for seed in range(4):
            g = gnm_random(150, 750, seed=seed)
            d = degeneracy(g)
            res = jp_adg(g, eps=eps, seed=seed)
            assert res.num_colors <= np.ceil(2 * (1 + eps) * d) + 1

    def test_jp_adg_m_bound(self):
        """Corollary 2: JP-ADG-M uses <= 4d + 1 colors."""
        for seed in range(4):
            g = gnm_random(150, 750, seed=seed)
            res = jp_adg_m(g, seed=seed)
            assert res.num_colors <= 4 * degeneracy(g) + 1

    def test_jp_adg_beats_random_on_skewed(self):
        """On scale-free graphs the ADG order saves colors vs JP-R."""
        from repro.graphs.generators import chung_lu
        wins = 0
        for seed in range(5):
            g = chung_lu(400, 2000, exponent=2.2, seed=seed)
            adg = jp_adg(g, eps=0.01, seed=seed).num_colors
            rnd = jp_by_name(g, "R", seed=seed).num_colors
            wins += adg <= rnd
        assert wins >= 4

    def test_clique(self):
        g = complete_graph(8)
        res = jp_adg(g, seed=0)
        assert res.num_colors == 8

    def test_star_two_colors(self):
        res = jp_adg(star(20), seed=0)
        assert res.num_colors == 2


class TestJPAccounting:
    def test_work_linear(self):
        from repro.graphs.generators import kronecker
        ratios = []
        for scale in [8, 9, 10]:
            g = kronecker(scale=scale, edge_factor=8, seed=scale)
            res = jp_by_name(g, "R", seed=0)
            ratios.append(res.cost.work / (g.n + 2 * g.m))
        assert max(ratios) < 8

    def test_reorder_and_color_phases_split(self, small_random):
        res = jp_adg(small_random, seed=0)
        assert res.reorder_cost is not None
        assert res.reorder_cost.work > 0
        assert res.cost.work > 0

    def test_rounds_equals_waves(self, small_random):
        res = jp_by_name(small_random, "R", seed=0)
        assert res.rounds >= 1

    def test_jp_with_custom_ordering_object(self, small_random):
        o = get_ordering("LF", small_random, seed=0)
        res = jp(small_random, o)
        assert res.algorithm == "JP-LF"

    def test_non_total_order_detected(self):
        g = ring(6)
        bad = Ordering(name="bad", ranks=np.array([5, 4, 3, 2, 1, 0]))
        # a valid permutation still works; JP only fails on rank collisions
        res = jp(g, bad)
        assert_valid_coloring(g, res.colors)
