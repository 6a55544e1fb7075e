"""Tests for the algorithm registry: every name runs and validates."""

import numpy as np
import pytest

from repro.coloring.registry import (
    ALGORITHMS,
    EPS_ALGORITHMS,
    FIGURE1_SET,
    JP_CLASS,
    OUR_ALGORITHMS,
    SC_CLASS,
    color,
)
from repro.coloring.verify import assert_valid_coloring


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestEveryAlgorithm:
    def test_runs_and_validates(self, name, small_random):
        res = color(name, small_random, seed=0)
        assert_valid_coloring(small_random, res.colors)

    def test_reports_its_name(self, name, small_random):
        res = color(name, small_random, seed=0)
        assert res.algorithm.replace("-M", "").startswith(
            name.replace("-M", "").split("-")[0])

    def test_work_positive(self, name, small_random):
        res = color(name, small_random, seed=0)
        assert res.total_work > 0
        assert res.total_depth > 0


    def test_records_its_eps(self, name, small_random):
        """The ε algorithms record their own (default or given); the
        rest have none and ignore a given one."""
        res = color(name, small_random, seed=0)
        given = color(name, small_random, seed=0, eps=5.0)
        if name in EPS_ALGORITHMS:
            assert res.eps == EPS_ALGORITHMS[name] and given.eps == 5.0
        else:
            assert res.eps is None and given.eps is None
            np.testing.assert_array_equal(given.colors, res.colors)


class TestRegistryStructure:
    def test_class_lists_are_registered(self):
        for name in JP_CLASS + SC_CLASS + OUR_ALGORITHMS + FIGURE1_SET:
            assert name in ALGORITHMS, name

    def test_unknown_raises(self, small_random):
        with pytest.raises(ValueError, match="unknown algorithm"):
            color("NOPE", small_random)

    def test_our_algorithms_present(self):
        assert {"JP-ADG", "DEC-ADG", "DEC-ADG-ITR"} <= set(OUR_ALGORITHMS)

    def test_eps_forwarded(self, small_random):
        a = color("JP-ADG", small_random, seed=0, eps=0.01)
        b = color("JP-ADG", small_random, seed=0, eps=4.0)
        # different eps changes the ADG batches (usually the coloring too);
        # at minimum both must be valid and within their own bounds
        assert_valid_coloring(small_random, a.colors)
        assert_valid_coloring(small_random, b.colors)


class TestCrossAlgorithmShapes:
    """The qualitative orderings the paper's evaluation reports."""

    def test_quality_ordering_on_powerlaw(self):
        from repro.graphs.generators import chung_lu
        g = chung_lu(600, 3000, exponent=2.2, seed=0)
        res = {name: color(name, g, seed=0).num_colors
               for name in ["JP-ADG", "JP-SL", "JP-R", "JP-FF", "Greedy-SD"]}
        # degeneracy-ordered schemes beat random/first-fit
        assert res["JP-ADG"] <= res["JP-R"]
        assert res["JP-SL"] <= res["JP-R"]

    def test_all_within_own_bound_on_bipartite(self):
        from repro.analysis.bounds import GraphParams, quality_bound
        from repro.graphs.generators import random_bipartite
        from repro.graphs.properties import degeneracy
        g = random_bipartite(30, 30, 200, seed=1)
        params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                             degeneracy=degeneracy(g))
        for name in sorted(ALGORITHMS):
            res = color(name, g, seed=0)
            # DEC-ADG's randomized draws use its (2+eps)d range, not
            # Delta+1; every algorithm is checked against its own bound.
            eps = 6.0 if name.startswith("DEC-ADG") and \
                not name.endswith("ITR") else 0.01
            assert res.num_colors <= quality_bound(name, params, eps), name
