"""Tests for the Gebremedhin-Manne block-partition baseline."""

import numpy as np
import pytest

from repro.coloring.gm import gm_coloring
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import complete_graph, gnm_random, star

from .conftest import graph_zoo


class TestGM:
    def test_valid(self, small_random):
        res = gm_coloring(small_random, processors=4, seed=0)
        assert_valid_coloring(small_random, res.colors)

    def test_zoo(self):
        for g in graph_zoo():
            res = gm_coloring(g, processors=4, seed=1)
            assert_valid_coloring(g, res.colors)

    def test_delta_plus_one(self, small_random):
        res = gm_coloring(small_random, processors=8, seed=0)
        assert res.num_colors <= small_random.max_degree + 1

    def test_single_processor_no_conflicts(self, small_random):
        res = gm_coloring(small_random, processors=1, seed=0)
        assert res.conflicts_resolved == 0

    def test_conflicts_grow_with_processors(self):
        g = gnm_random(800, 6400, seed=2)
        few = gm_coloring(g, processors=2, seed=0).conflicts_resolved
        many = gm_coloring(g, processors=32, seed=0).conflicts_resolved
        assert many >= few

    def test_deterministic(self, small_random):
        a = gm_coloring(small_random, processors=4, seed=7)
        b = gm_coloring(small_random, processors=4, seed=7)
        np.testing.assert_array_equal(a.colors, b.colors)

    def test_invalid_processors(self, small_random):
        with pytest.raises(ValueError):
            gm_coloring(small_random, processors=0)

    def test_clique(self):
        res = gm_coloring(complete_graph(10), processors=4, seed=0)
        assert res.num_colors == 10

    def test_star(self):
        # cross-block races can force the hub onto a third color, but
        # never past Delta + 1
        res = gm_coloring(star(12), processors=4, seed=0)
        assert res.num_colors <= 3

    def test_empty(self):
        from repro.graphs.builders import empty_graph
        res = gm_coloring(empty_graph(0), processors=4)
        assert res.colors.size == 0

    def test_phases_recorded(self, small_random):
        res = gm_coloring(small_random, processors=4, seed=0)
        assert "gm:speculate" in res.cost.phases
        assert "gm:detect" in res.cost.phases

    def test_cleanup_cost_and_wall_share_one_row(self):
        from repro.coloring.registry import color
        from repro.graphs.generators import chung_lu
        res = color("GM", chung_lu(400, 2000, seed=11))
        assert res.conflicts_resolved == 11
        assert "<toplevel>" not in res.cost.phases
        cleanup = res.cost.phases["gm:cleanup"]
        assert (cleanup.work, cleanup.depth, cleanup.rounds) == (164, 11, 1)
        assert res.cost.round_log[-1] == ("gm:cleanup", 164, 11)
        assert "gm:cleanup" in res.phase_walls

    def test_registry_entry(self, small_random):
        from repro.coloring.registry import color
        res = color("GM", small_random, seed=0)
        assert res.algorithm == "GM"
