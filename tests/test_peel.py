"""The compiled degeneracy peel: C/Python agreement, C boundary, fallback.

The pure-Python Batagelj-Zaversnik loop (``properties._peel_python``)
is the oracle: the compiled peel must perform the same bucket swaps in
the same order, so ``order``, ``coreness`` and ``degeneracy`` agree
bit for bit.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings

from repro.coloring.jp import jp_by_name
from repro.graphs import CSRGraph, properties
from repro.graphs.builders import empty_graph, from_edges
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    gnm_random,
    grid_2d,
    kronecker,
    ring,
    star,
)
from repro.ordering.sl import sl_ordering

from .conftest import (concurrently, graphs, misaligned, require_c,
                       warm_from_ingest_cache)

GRAPHS = {
    "kron": lambda: kronecker(scale=10, edge_factor=8, seed=3),
    "gnm": lambda: gnm_random(400, 1600, seed=5),
    "ba": lambda: barabasi_albert(300, 3, seed=2),
    "grid": lambda: grid_2d(15, 17),
    "clique": lambda: complete_graph(12),
    "star": lambda: star(50),
    "ring": lambda: ring(64),
    "empty": lambda: empty_graph(0),
    "isolated": lambda: from_edges([0, 3, 3], [3, 4, 7], n=12),
}


def _assert_same(a: properties.PeelResult,
                 b: properties.PeelResult) -> None:
    np.testing.assert_array_equal(a.order, b.order, err_msg="order")
    np.testing.assert_array_equal(a.coreness, b.coreness,
                                  err_msg="coreness")
    assert a.order.dtype == a.coreness.dtype == np.int64
    assert a.degeneracy == b.degeneracy
    assert type(a.degeneracy) is int


class TestCAndPythonAgree:
    @given(graphs(max_n=40, max_m=160))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g):
        require_c()
        _assert_same(properties.peel_degeneracy(g),
                     properties._peel_python(g))

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_named_graphs(self, name):
        require_c()
        g = GRAPHS[name]()
        _assert_same(properties.peel_degeneracy(g),
                     properties._peel_python(g))

    def test_peel_leaves_the_graph_alone(self):
        g = GRAPHS["kron"]()
        before = g.degrees.copy()
        properties.peel_degeneracy(g)
        np.testing.assert_array_equal(g.degrees, before)
        assert not g.degrees.flags.writeable
        np.testing.assert_array_equal(g.degrees, np.diff(g.indptr))


class TestCBoundary:
    """Every CSR the repo can hold crosses the ctypes boundary intact."""

    def _check(self, g):
        _assert_same(properties.peel_degeneracy(g),
                     properties._peel_python(g))

    def test_int32_arrays(self):
        g = GRAPHS["gnm"]()
        g32 = CSRGraph(indptr=g.indptr.astype(np.int32),
                       indices=g.indices.astype(np.int32))
        self._check(g32)
        _assert_same(properties.peel_degeneracy(g32),
                     properties.peel_degeneracy(g))

    def test_read_only_memmap_from_the_ingest_cache(self, tmp_path):
        _, cached = warm_from_ingest_cache(gnm_random(20000, 80000, seed=9),
                                           tmp_path)
        self._check(cached)

    def test_odd_offset_arrays(self):
        g = GRAPHS["gnm"]()
        odd = CSRGraph(indptr=misaligned(g.indptr),
                       indices=misaligned(g.indices))
        self._check(odd)
        _assert_same(properties.peel_degeneracy(odd),
                     properties.peel_degeneracy(g))

    @pytest.mark.parametrize("bad", ["short_indptr", "indptr_past_end",
                                     "falling_indptr", "vertex_out_of_range",
                                     "negative_vertex"])
    def test_malformed_csr_never_reaches_c(self, bad, c_calls):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        if bad == "short_indptr":
            indptr = np.array([0, 1])
        elif bad == "indptr_past_end":
            indptr = np.array([0, 1, 3])
        elif bad == "falling_indptr":
            indptr = np.array([0, 2, 1, 2])
        elif bad == "vertex_out_of_range":
            indices = np.array([1, 2])
        else:
            indices = np.array([1, -1])
        with pytest.raises(ValueError):
            properties.peel_degeneracy(CSRGraph(indptr=indptr,
                                                indices=indices))
        assert c_calls == []


class TestFallback:
    """A failed build (each way ``test_cbuild`` covers) leaves the peel
    on the Python loop, with the compiled peel's results."""

    @pytest.fixture
    def python_calls(self, monkeypatch):
        calls = []
        real = properties._peel_python

        def spy(g):
            calls.append(1)
            return real(g)

        monkeypatch.setattr(properties, "_peel_python", spy)
        return calls

    def _check(self, python_calls):
        g = GRAPHS["kron"]()
        got = properties.peel_degeneracy(g)
        assert python_calls == [1]
        _assert_same(got, properties._peel_python(g))

    def test_no_compiler_on_path(self, broken_build, python_calls):
        broken_build("no_compiler")
        self._check(python_calls)

    def test_build_command_fails(self, broken_build, python_calls):
        broken_build("cc_fails")
        self._check(python_calls)

    def test_source_that_does_not_compile(self, broken_build, python_calls):
        broken_build("bad_source")
        self._check(python_calls)

    def test_concurrent_loaders_build_once(self, fresh_build):
        g = GRAPHS["kron"]()
        got = concurrently(lambda: properties.peel_degeneracy(g))
        assert fresh_build == [1]
        for res in got:
            _assert_same(res, got[0])


class TestCallersUnchanged:
    """SL ranks and JP-SL colors are those the Python peel gives."""

    @pytest.mark.parametrize("name", ["kron", "gnm", "ba", "grid", "star"])
    def test_sl_ordering(self, name, hide_c):
        g = GRAPHS[name]()
        ranks = sl_ordering(g).ranks
        colors = jp_by_name(g, "SL", seed=0).colors
        hide_c("repro_peel")
        np.testing.assert_array_equal(ranks, sl_ordering(g).ranks)
        np.testing.assert_array_equal(colors,
                                      jp_by_name(g, "SL", seed=0).colors)
