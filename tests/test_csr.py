"""Tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph

from .conftest import graphs


def triangle() -> CSRGraph:
    return from_edges([0, 1, 2], [1, 2, 0], name="triangle")


class TestShape:
    def test_counts(self):
        g = triangle()
        assert g.n == 3 and g.m == 3

    def test_degrees(self):
        g = from_edges([0, 0, 0], [1, 2, 3])
        np.testing.assert_array_equal(g.degrees, [3, 1, 1, 1])
        assert g.max_degree == 3
        assert g.min_degree == 1
        assert g.avg_degree == pytest.approx(1.5)

    def test_empty_graph_stats(self):
        g = CSRGraph(indptr=np.zeros(1, dtype=np.int64),
                     indices=np.empty(0, dtype=np.int64))
        assert g.n == 0 and g.m == 0
        assert g.max_degree == 0 and g.avg_degree == 0.0

    def test_degrees_cached_and_read_only(self):
        g = triangle()
        d = g.degrees
        assert g.degrees is d  # cached per instance
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0] = 99
        assert g.degrees[0] == 2
        # Peeling callers take a private, writable copy.
        c = d.copy()
        c[0] = 99
        assert g.degrees[0] == 2

    def test_degree_extremes_cached(self):
        g = from_edges([0, 0, 0], [1, 2, 3])
        assert g.max_degree == g.max_degree == 3
        assert "max_degree" in g.__dict__  # cached_property materialized
        assert g.min_degree == 1


class TestAccess:
    def test_neighbors_sorted(self):
        g = from_edges([3, 3, 3], [0, 2, 1])
        np.testing.assert_array_equal(g.neighbors(3), [0, 1, 2])

    def test_degree_single(self):
        g = triangle()
        assert g.degree(1) == 2

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 0)

    def test_has_edge_absent(self):
        g = from_edges([0], [1], n=4)
        assert not g.has_edge(2, 3)
        assert not g.has_edge(0, 3)

    def test_batch_neighbors(self):
        g = from_edges([0, 0, 1], [1, 2, 2])
        seg, nbrs = g.batch_neighbors(np.array([0, 2]))
        np.testing.assert_array_equal(seg, [0, 0, 1, 1])
        np.testing.assert_array_equal(nbrs, [1, 2, 0, 1])

    def test_batch_neighbors_empty_batch(self):
        g = triangle()
        seg, nbrs = g.batch_neighbors(np.array([], dtype=np.int64))
        assert seg.size == 0 and nbrs.size == 0

    def test_batch_neighbors_isolated(self):
        g = from_edges([0], [1], n=3)
        seg, nbrs = g.batch_neighbors(np.array([2]))
        assert nbrs.size == 0

    def test_edge_array_length(self):
        g = triangle()
        src, dst = g.edge_array()
        assert src.size == 2 * g.m

    def test_undirected_edges_unique(self):
        g = triangle()
        u, v = g.undirected_edges()
        assert u.size == g.m
        assert np.all(u < v)


class TestValidate:
    def test_valid_graph_passes(self):
        triangle().validate()

    def test_bad_indptr_start(self):
        g = CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(ValueError):
            g.validate()

    def test_decreasing_indptr(self):
        g = CSRGraph(indptr=np.array([0, 2, 1]),
                     indices=np.array([1, 0]))
        with pytest.raises(ValueError):
            g.validate()

    def test_indptr_tail_mismatch(self):
        g = CSRGraph(indptr=np.array([0, 1, 5]), indices=np.array([1, 0]))
        with pytest.raises(ValueError):
            g.validate()

    def test_out_of_range_neighbor(self):
        g = CSRGraph(indptr=np.array([0, 1, 2]), indices=np.array([9, 0]))
        with pytest.raises(ValueError):
            g.validate()

    def test_self_loop_detected(self):
        g = CSRGraph(indptr=np.array([0, 1, 2]), indices=np.array([0, 1]))
        with pytest.raises(ValueError):
            g.validate()

    def test_asymmetric_detected(self):
        g = CSRGraph(indptr=np.array([0, 1, 1, 2]),
                     indices=np.array([1, 0]))
        with pytest.raises(ValueError):
            g.validate()

    def test_unsorted_row_detected(self):
        g = CSRGraph(indptr=np.array([0, 2, 3, 4]),
                     indices=np.array([2, 1, 0, 0]))
        with pytest.raises(ValueError, match="row 0"):
            g.validate()

    def test_duplicate_in_row_detected(self):
        # Equal adjacent neighbors (a repeated edge) violate *strictly*
        # increasing, and the error names the right row.
        g = CSRGraph(indptr=np.array([0, 1, 4, 5, 5]),
                     indices=np.array([1, 0, 2, 2, 1]))
        with pytest.raises(ValueError, match="row 1"):
            g.validate()

    def test_boundary_descent_is_legal(self):
        # The flat indices array "descends" across the row boundary
        # (row 0 ends with 1, row 1 starts with 0); the vectorized
        # strictness check must mask that pair out.
        g = CSRGraph(indptr=np.array([0, 1, 2]),
                     indices=np.array([1, 0]))
        g.validate()

    def test_empty_rows_between_full_rows(self):
        # star(2) with isolated middle vertices exercises repeated
        # indptr cuts at the same position.
        g = CSRGraph(indptr=np.array([0, 2, 2, 2, 3, 4]),
                     indices=np.array([3, 4, 0, 0]))
        g.validate()

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_builders_always_produce_valid_graphs(self, g):
        g.validate()


class TestMutationCacheInvalidation:
    """replace_arrays / apply_delta(in_place=True) must drop every
    derived cache — a stale content digest would let a digest-keyed
    result cache serve a coloring of the OLD graph (the service's
    correctness hazard), and stale degrees would skew every engine."""

    def test_in_place_delta_refreshes_digest_and_degrees(self):
        from repro.graphs import GraphDelta, apply_delta, gnm_random

        g = gnm_random(60, 150, seed=21)
        digest_before = g.content_digest
        degrees_before = g.degrees.copy()
        max_before = g.max_degree
        hub = int(np.argmin(degrees_before))
        spokes = [w for w in range(g.n)
                  if w != hub and not g.has_edge(hub, w)][:max_before + 2]
        delta = GraphDelta(add_edges=np.array([[hub, w] for w in spokes]))
        res = apply_delta(g, delta, in_place=True)
        assert res.graph is g
        assert g.content_digest != digest_before
        assert g.degree(hub) == degrees_before[hub] + len(spokes)
        assert g.degrees[hub] == degrees_before[hub] + len(spokes)
        assert g.max_degree >= max_before
        g.validate()

    def test_mutated_graph_recolors_validly(self):
        from repro.coloring import color
        from repro.coloring.verify import assert_valid_coloring
        from repro.graphs import gnm_random, parse_delta_spec, apply_delta

        g = gnm_random(60, 150, seed=22)
        first = color("DEC-ADG-ITR", g, eps=0.01, seed=0)
        assert_valid_coloring(g, first.colors)
        apply_delta(g, parse_delta_spec("addv:2;add:0-60,60-61;del:0-1"),
                    in_place=True)
        second = color("DEC-ADG-ITR", g, eps=0.01, seed=0)
        assert second.colors.size == g.n == 62
        assert_valid_coloring(g, second.colors)

    def test_replace_arrays_rejects_inconsistent_input(self):
        g = from_edges([0], [1], n=2)
        with pytest.raises(ValueError, match="replace_arrays"):
            g.replace_arrays(np.array([0, 1]), np.empty(0, dtype=np.int64))

    def test_invalidate_caches_is_idempotent(self):
        g = from_edges([0, 1], [1, 2], n=3)
        assert g.max_degree == 2
        g.invalidate_caches()
        g.invalidate_caches()  # nothing cached: still fine
        assert g.max_degree == 2


class TestCheckedArraysOnce:
    """Every compiled pass reads ``g.checked_arrays``: a graph's CSR is
    bounds-checked once, and swapped-in arrays are checked again."""

    def _count_checks(self, monkeypatch):
        import repro.graphs.csr as csr_mod

        calls = []
        real = csr_mod.checked_csr

        def spy(indptr, indices, n):
            calls.append(n)
            return real(indptr, indices, n)
        monkeypatch.setattr(csr_mod, "checked_csr", spy)
        return calls

    def test_one_check_per_graph(self, monkeypatch):
        from repro.coloring import color
        from repro.graphs import gnm_random
        from repro.graphs.properties import peel_degeneracy

        calls = self._count_checks(monkeypatch)
        g = gnm_random(200, 800, seed=4)
        first = color("JP-ADG", g, seed=0).colors
        assert calls == [g.n]
        # ADG, the JP sweep, the ITR level pass and the peel: no rescan.
        np.testing.assert_array_equal(color("JP-ADG", g, seed=0).colors,
                                      first)
        color("DEC-ADG-ITR", g, seed=0)
        peel_degeneracy(g)
        assert calls == [g.n]
        indptr, indices = g.checked_arrays
        assert indptr is g.indptr and indices is g.indices  # no copy

    def test_replace_arrays_drops_the_check(self, monkeypatch):
        from repro.coloring.jp import jp_color
        from repro.graphs.properties import peel_degeneracy

        calls = self._count_checks(monkeypatch)
        g = from_edges([0, 1], [1, 2], n=3)
        peel_degeneracy(g)
        assert len(calls) == 1
        # Passes replace_arrays' own shape check, names vertex 5 of 3.
        g.replace_arrays(np.array([0, 1, 3, 4]), np.array([1, 0, 5, 1]))
        with pytest.raises(ValueError, match="vertices 0..n-1"):
            peel_degeneracy(g)
        with pytest.raises(ValueError, match="vertices 0..n-1"):
            jp_color(g, np.arange(3))
        assert len(calls) == 3  # a failed check caches nothing
        g.replace_arrays(np.array([0, 1, 2, 2]), np.array([1, 0]))
        assert peel_degeneracy(g).degeneracy == 1
        assert len(calls) == 4

    def test_copied_check_replaces_the_arrays(self, monkeypatch):
        # An int32 CSR's checked copy becomes the graph's own arrays:
        # one CSR stays alive, and the digest does not move.
        from repro.coloring.jp import jp_color

        calls = self._count_checks(monkeypatch)
        g = from_edges([0, 1, 2], [1, 2, 0], n=4)
        g32 = CSRGraph(indptr=g.indptr.astype(np.int32),
                       indices=g.indices.astype(np.int32))
        digest = g32.content_digest
        assert digest == g.content_digest
        jp_color(g32, np.arange(4))
        indptr, indices = g32.checked_arrays
        assert indptr is g32.indptr and indices is g32.indices
        assert g32.indices.dtype == np.int64
        np.testing.assert_array_equal(g32.indices, g.indices)
        g32.invalidate_caches()
        assert g32.content_digest == digest
        jp_color(g32, np.arange(4))
        assert len(calls) == 2
