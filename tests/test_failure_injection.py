"""Failure-injection tests: every public entry point rejects bad input
loudly instead of silently corrupting results."""

import numpy as np
import pytest

from repro.coloring.greedy import greedy_color_sequence
from repro.coloring.jp import jp_color
from repro.coloring.reduction import color_reduction
from repro.coloring.simcol import sim_col
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import gnm_random, ring
from repro.ordering.adg import adg_ordering, approximation_quality
from repro.ordering.base import Ordering


@pytest.fixture()
def g():
    return gnm_random(40, 120, seed=0)


class TestGraphConstruction:
    def test_negative_vertex_ids(self):
        with pytest.raises(ValueError):
            from_edges([-1, 0], [0, 1])

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            from_edges([0, 1, 2], [1, 2])

    def test_raw_constructor_unchecked_but_validate_catches(self):
        # the dataclass itself is cheap; validate() is the gate
        bad = CSRGraph(indptr=np.array([0, 2]), indices=np.array([0, 5]))
        with pytest.raises(ValueError):
            bad.validate()


class TestOrderingInputs:
    def test_adg_nan_eps(self, g):
        with pytest.raises(ValueError):
            adg_ordering(g, eps=float("nan"))

    def test_approximation_quality_needs_levels(self, g):
        o = Ordering(name="x", ranks=np.arange(g.n))
        with pytest.raises(ValueError):
            approximation_quality(g, o)

    def test_ordering_wrong_levels_length(self):
        o = Ordering(name="x", ranks=np.arange(4),
                     levels=np.array([1, 1]), num_levels=1)
        with pytest.raises(ValueError):
            o.validate()


class TestColoringInputs:
    def test_jp_short_ranks(self, g):
        with pytest.raises(ValueError):
            jp_color(g, np.arange(3))

    def test_jp_duplicate_ranks_rejected(self):
        # rank collisions would let adjacent vertices share a wave and a
        # color; JP validates the total order up front
        g2 = ring(4)
        with pytest.raises(ValueError, match="distinct"):
            jp_color(g2, np.zeros(4, dtype=np.int64))

    def test_greedy_non_permutation(self, g):
        with pytest.raises(ValueError):
            greedy_color_sequence(g, np.arange(g.n - 1))

    def test_simcol_negative_mu(self):
        g2 = ring(6)
        forbidden = np.zeros((6, 10), dtype=bool)
        with pytest.raises(ValueError):
            sim_col(g2, g2.degrees, forbidden, -1.0,
                    np.random.default_rng(0))

    def test_reduction_rejects_partial_initial(self, g):
        bad = np.ones(g.n, dtype=np.int64)
        bad[0] = 0
        with pytest.raises(ValueError):
            color_reduction(g, initial=bad)

    def test_reduction_rejects_short_initial(self, g):
        with pytest.raises(ValueError):
            color_reduction(g, initial=np.array([1, 2]))


class TestFloatRankRobustness:
    def test_jp_accepts_float_ranks_by_truncation(self):
        """ranks are coerced to int64; fractional ties are the caller's
        problem, but valid int-valued floats work."""
        g2 = ring(6)
        ranks = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        colors, _ = jp_color(g2, ranks)
        assert colors.min() >= 1


class TestAdversarialGraphs:
    def test_two_vertex_graph(self):
        g2 = from_edges([0], [1])
        o = adg_ordering(g2, eps=0.1)
        o.validate()
        colors, waves = jp_color(g2, o.ranks)
        assert sorted(colors.tolist()) == [1, 2]

    def test_self_loop_stripped_everywhere(self):
        g2 = from_edges([0, 1], [0, 1], n=3)  # both edges are loops
        assert g2.m == 0
        colors, _ = jp_color(g2, np.arange(3))
        assert np.all(colors == 1)

    def test_single_vertex(self):
        g1 = from_edges([], [], n=1)
        colors, waves = jp_color(g1, np.zeros(1, dtype=np.int64))
        assert colors[0] == 1 and waves == 1
