"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.bench.harness import RunRecord, SuiteResult, run_suite
from repro.graphs.generators import chung_lu, gnm_random


@pytest.fixture(scope="module")
def small_suite_result():
    graphs = {
        "gA": gnm_random(120, 480, seed=0, name="gA"),
        "gB": chung_lu(150, 600, seed=1, name="gB"),
    }
    return run_suite(graphs, algorithms=["JP-R", "JP-ADG", "ITR",
                                         "DEC-ADG-ITR"], eps=0.01, seed=0)


class TestRunSuite:
    def test_record_count(self, small_suite_result):
        assert len(small_suite_result.records) == 8

    def test_get(self, small_suite_result):
        r = small_suite_result.get("JP-ADG", "gA")
        assert r.algorithm == "JP-ADG" and r.graph == "gA"

    def test_get_missing_raises(self, small_suite_result):
        with pytest.raises(KeyError):
            small_suite_result.get("JP-ADG", "missing")

    def test_records_within_bounds(self, small_suite_result):
        for r in small_suite_result.records:
            assert 0 < r.colors <= r.quality_bound

    def test_sim_time_positive(self, small_suite_result):
        for r in small_suite_result.records:
            assert r.sim_time_32 > 0

    def test_reorder_work_split(self, small_suite_result):
        r = small_suite_result.get("JP-ADG", "gA")
        assert r.reorder_work > 0
        assert r.work == r.reorder_work + r.coloring_work

    def test_itr_has_no_reorder_phase(self, small_suite_result):
        assert small_suite_result.get("ITR", "gA").reorder_work == 0


class TestSuiteResultViews:
    def test_colors_matrix(self, small_suite_result):
        matrix = small_suite_result.colors_matrix()
        assert set(matrix) == {"JP-R", "JP-ADG", "ITR", "DEC-ADG-ITR"}
        assert set(matrix["JP-R"]) == {"gA", "gB"}

    def test_relative_quality(self, small_suite_result):
        rows = small_suite_result.relative_quality("JP-R")
        base_rows = [r for r in rows if r["algorithm"] == "JP-R"]
        assert all(r["relative"] == pytest.approx(1.0) for r in base_rows)

    def test_as_rows(self, small_suite_result):
        rows = small_suite_result.as_rows()
        assert len(rows) == 8
        assert {"algorithm", "graph", "colors", "work"} <= set(rows[0])

    def test_adg_quality_beats_random(self, small_suite_result):
        for gname in ["gA", "gB"]:
            adg = small_suite_result.get("JP-ADG", gname).colors
            rnd = small_suite_result.get("JP-R", gname).colors
            assert adg <= rnd + 1


def test_algorithm_kwargs_override():
    g = gnm_random(80, 320, seed=2, name="g")
    res = run_suite({"g": g}, algorithms=["JP-ADG"],
                    algorithm_kwargs={"JP-ADG": {"eps": 2.0}})
    r = res.records[0]
    # bound computed with the overridden eps
    from repro.analysis.bounds import GraphParams, quality_bound
    from repro.graphs.properties import degeneracy
    params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                         degeneracy=degeneracy(g))
    assert r.quality_bound == quality_bound("JP-ADG", params, 2.0)


def test_quality_bound_at_the_eps_the_run_used():
    """A suite's bound reads the ε each run used: DEC-ADG runs at its
    own ε = 6 when the suite gives none, so its bound is (2+6)d."""
    from repro.analysis.bounds import GraphParams, quality_bound
    from repro.graphs.generators import kronecker
    from repro.graphs.properties import degeneracy
    g = kronecker(scale=10, edge_factor=16, name="k")
    d = degeneracy(g)
    params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                         degeneracy=d)
    out = run_suite({"k": g}, algorithms=["DEC-ADG", "JP-ADG", "JP-R"])
    dec, jp, jpr = out.records
    assert dec.quality_bound == quality_bound("DEC-ADG", params, 6.0) \
        == int(np.ceil(8 * d))
    assert dec.colors <= dec.quality_bound
    assert jp.quality_bound == quality_bound("JP-ADG", params, 0.01)
    assert jpr.quality_bound == g.max_degree + 1


def test_suite_eps_goes_to_every_eps_algorithm():
    g = gnm_random(80, 320, seed=2, name="g")
    out = run_suite({"g": g}, algorithms=["JP-ADG", "DEC-ADG", "JP-R"],
                    eps=5.0)
    assert [r.algorithm for r in out.records] == ["JP-ADG", "DEC-ADG",
                                                  "JP-R"]
    jp, dec, jpr = out.records
    from repro.coloring.registry import color
    assert jp.colors == color("JP-ADG", g, seed=0, eps=5.0).num_colors
    assert dec.colors == color("DEC-ADG", g, seed=0, eps=5.0).num_colors
    assert jpr.colors == color("JP-R", g, seed=0).num_colors
