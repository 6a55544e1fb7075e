"""Tests for coloring verification utilities.

The NumPy edge-list checks are the oracle of the compiled neighbor
scan: for every graph and coloring the two agree on every boolean,
every ``conflicting_edges`` array and every error message.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.verify import (
    InvalidColoringError,
    assert_valid_coloring,
    color_histogram,
    conflicting_edges,
    distinct_colors,
    is_valid_coloring,
    num_colors,
    quality_vs_degeneracy,
)
from repro.graphs import CSRGraph
from repro.graphs.builders import empty_graph, from_edges
from repro.graphs.generators import complete_graph, kronecker, ring
from repro.primitives import cbuild

from .conftest import graphs, require_c


def triangle():
    return from_edges([0, 1, 2], [1, 2, 0])


class TestIsValid:
    def test_valid(self):
        assert is_valid_coloring(triangle(), np.array([1, 2, 3]))

    def test_conflict(self):
        assert not is_valid_coloring(triangle(), np.array([1, 1, 2]))

    def test_uncolored_rejected(self):
        assert not is_valid_coloring(triangle(), np.array([1, 2, 0]))

    def test_uncolored_allowed_flag(self):
        assert is_valid_coloring(triangle(), np.array([1, 2, 0]),
                                 allow_uncolored=True)

    def test_uncolored_conflict_ignored(self):
        g = from_edges([0], [1], n=2)
        assert is_valid_coloring(g, np.array([0, 0]), allow_uncolored=True)

    def test_wrong_length(self):
        assert not is_valid_coloring(triangle(), np.array([1, 2]))


class TestAssertValid:
    def test_passes(self):
        assert_valid_coloring(ring(6), np.array([1, 2] * 3))

    def test_conflict_message(self):
        with pytest.raises(InvalidColoringError, match="conflicting"):
            assert_valid_coloring(triangle(), np.array([1, 1, 2]))

    def test_uncolored_message(self):
        with pytest.raises(InvalidColoringError, match="uncolored"):
            assert_valid_coloring(triangle(), np.array([0, 1, 2]))

    def test_length_message(self):
        with pytest.raises(InvalidColoringError, match="length"):
            assert_valid_coloring(triangle(), np.array([1]))


class TestMetrics:
    def test_num_colors(self):
        assert num_colors(np.array([1, 3, 2])) == 3
        assert num_colors(np.array([], dtype=np.int64)) == 0

    def test_distinct_colors(self):
        assert distinct_colors(np.array([1, 5, 5, 0])) == 2

    def test_conflicting_edges(self):
        u, v = conflicting_edges(triangle(), np.array([1, 1, 1]))
        assert u.size == 3

    def test_histogram(self):
        h = color_histogram(np.array([1, 1, 2, 0]))
        np.testing.assert_array_equal(h, [1, 2, 1])

    def test_histogram_empty(self):
        np.testing.assert_array_equal(color_histogram(np.array([])), [0])

    def test_quality_vs_degeneracy(self):
        g = complete_graph(5)  # d = 4, chromatic = 5
        q = quality_vs_degeneracy(g, np.arange(1, 6))
        assert q == pytest.approx(1.0)


# -- the compiled scan against the NumPy oracle --------------------------------

def _outcomes(g, colors) -> dict:
    """Everything the three checks report about ``colors``."""
    out = {allow: is_valid_coloring(g, colors, allow_uncolored=allow)
           for allow in (False, True)}
    try:
        assert_valid_coloring(g, colors)
        out["assert"] = None
    except InvalidColoringError as exc:
        out["assert"] = str(exc)
    try:
        bu, bv = conflicting_edges(g, colors)
        out["edges"] = (bu.tolist(), bv.tolist(), bu.dtype, bv.dtype)
    except ValueError as exc:  # a short or long array
        out["edges"] = str(exc)
    return out


def _on_numpy(g, colors) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbuild, "entry", lambda name: None)
        return _outcomes(g, colors)


DTYPES = [np.int64, np.int32, np.uint8, np.uint64, np.bool_, np.float64]


@st.composite
def colored_graphs(draw):
    """``(csr arrays, colors)``: a random graph (n = 0 and isolated
    vertices included, int32 or int64 CSR) and a coloring with planted
    conflicts, uncolored vertices (0 and negative), any of
    :data:`DTYPES`, sometimes strided or of the wrong length."""
    g = draw(st.one_of(st.just(empty_graph(0)), graphs(max_n=25, max_m=80)))
    n = g.n
    if draw(st.booleans()):
        colors = np.asarray(draw(st.permutations(range(1, n + 1))),
                            dtype=np.int64)
    else:
        k = draw(st.integers(1, 4))
        colors = np.asarray(draw(st.lists(st.integers(1, k), min_size=n,
                                          max_size=n)), dtype=np.int64)
    u, v = g.undirected_edges()
    if u.size:
        for i in draw(st.lists(st.integers(0, u.size - 1), max_size=3)):
            colors[v[i]] = colors[u[i]]
    if n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            colors[i] = draw(st.integers(-3, 0))
    colors = colors.astype(draw(st.sampled_from(DTYPES)))
    shape = draw(st.sampled_from(["plain", "plain", "strided", "short",
                                  "long"]))
    if shape == "strided":
        colors = np.repeat(colors, 2)[::2]
    elif shape == "short":
        colors = colors[:-1]
    elif shape == "long":
        colors = np.append(colors, colors[:1])
    itype = draw(st.sampled_from([np.int64, np.int32]))
    return (g.indptr.astype(itype), g.indices.astype(itype)), colors


class TestScanAgreesWithNumPy:
    @given(colored_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_colorings(self, case):
        require_c()
        (indptr, indices), colors = case
        # Fresh graphs: the compiled path swaps an int32 CSR for its
        # checked int64 copy.
        got = _outcomes(CSRGraph(indptr=indptr, indices=indices), colors)
        ref = _on_numpy(CSRGraph(indptr=indptr, indices=indices), colors)
        assert got == ref

    def test_named_graph_messages(self):
        require_c()
        g = kronecker(scale=9, edge_factor=8, seed=3)
        colors = np.arange(1, g.n + 1, dtype=np.int64)
        u, v = g.undirected_edges()
        colors[v[::7]] = colors[u[::7]]
        got, ref = _outcomes(g, colors), _on_numpy(g, colors)
        assert got == ref
        assert "conflicting edges, first: " in got["assert"]
        colors[[3, 9, 11, 40, 41, 50]] = [0, -1, 0, -5, 0, 0]
        got, ref = _outcomes(g, colors), _on_numpy(g, colors)
        assert got == ref
        assert got["assert"].startswith("6 uncolored vertices, first: ")


# Shapes that are not one color per vertex of ring(6).
WRONG_SHAPES = [(3, 2), (6, 1), (1, 6), (5,), (7,), (0,), ()]
SHAPE_IDS = ["3x2", "6x1", "1x6", "5", "7", "0", "scalar"]


class TestWrongShape:
    """Colors of any shape but (n,) are rejected cleanly, on both paths."""

    @pytest.fixture(params=["compiled", "numpy"])
    def path(self, request, hide_c):
        if request.param == "numpy":
            hide_c("repro_verify")
        else:
            require_c()

    @pytest.mark.parametrize("shape", WRONG_SHAPES, ids=SHAPE_IDS)
    def test_is_valid_returns_false(self, path, shape):
        colors = np.ones(shape, dtype=np.int64)
        assert not is_valid_coloring(ring(6), colors)
        assert not is_valid_coloring(ring(6), colors, allow_uncolored=True)

    @pytest.mark.parametrize("shape", WRONG_SHAPES, ids=SHAPE_IDS)
    def test_assert_names_the_shape(self, path, shape):
        with pytest.raises(InvalidColoringError) as exc:
            assert_valid_coloring(ring(6), np.ones(shape, dtype=np.int64))
        assert str(exc.value) == (f"colors has shape {shape}, expected a "
                                  f"length-6 vector")

    @pytest.mark.parametrize("shape", WRONG_SHAPES, ids=SHAPE_IDS)
    def test_conflicting_edges_names_the_shape(self, path, shape):
        with pytest.raises(ValueError) as exc:
            conflicting_edges(ring(6), np.ones(shape, dtype=np.int64))
        assert not isinstance(exc.value, IndexError)
        assert f"shape {shape}" in str(exc.value)

    def test_python_list_of_the_right_length(self, path):
        assert is_valid_coloring(ring(6), [1, 2] * 3)
        assert conflicting_edges(ring(6), [1] * 6)[0].size == 6


class TestScanDispatch:
    """Which colors take the scan, and how often it runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        require_c()
        fn, entry = cbuild.entry("repro_verify"), cbuild.entry
        seen = []
        monkeypatch.setattr(cbuild, "entry", lambda name: (
            lambda *args: seen.append(args[4]) or fn(*args))
            if name == "repro_verify" else entry(name))
        return seen

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8,
                                       np.uint8, np.uint32])
    def test_integer_colors_take_the_scan(self, calls, dtype):
        g = ring(6)
        colors = np.array([1, 2] * 3, dtype=dtype)
        assert is_valid_coloring(g, colors)
        assert_valid_coloring(g, colors)
        assert calls == [0, 0]  # one counting pass each
        bu, _ = conflicting_edges(g, np.ones(6, dtype=dtype))
        assert bu.size == 6 and calls[2:] == [0, 6]  # count, then fill

    @pytest.mark.parametrize("dtype", [np.uint64, np.bool_, np.float64,
                                       object])
    def test_other_colors_take_numpy(self, calls, dtype):
        g = ring(6)
        colors = np.array([1, 2] * 3, dtype=dtype)
        is_valid_coloring(g, colors)
        with pytest.raises(InvalidColoringError) if dtype is np.bool_ \
                else contextlib.nullcontext():
            assert_valid_coloring(g, colors)
        conflicting_edges(g, colors)
        assert calls == []

    def test_wrong_shape_never_reaches_c(self, calls):
        g = ring(6)
        assert not is_valid_coloring(g, np.array([1, 2] * 2))
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            conflicting_edges(g, np.array([1, 2] * 4))
        assert calls == []

    def test_malformed_csr_never_reaches_c(self, calls):
        g = CSRGraph(indptr=np.array([0, 1, 2]), indices=np.array([1, 2]))
        with pytest.raises(ValueError):
            is_valid_coloring(g, np.array([1, 2]))
        assert calls == []

    def test_valid_path_allocates_nothing(self):
        require_c()
        g = kronecker(scale=12, edge_factor=8, seed=3)
        colors = np.arange(1, g.n + 1, dtype=np.int64)
        assert_valid_coloring(g, colors)  # builds, checks the CSR
        tracemalloc.start()
        try:
            assert_valid_coloring(g, colors)
            assert is_valid_coloring(g, colors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than half an n-word array (ctypes' small objects); the
        # NumPy path takes several 2m-word arrays.
        assert peak < 4 * g.n, peak

    def test_no_compiler_on_path(self, broken_build, tmp_path):
        broken_build("no_compiler")
        g = triangle()
        assert is_valid_coloring(g, np.array([1, 2, 3]))
        with pytest.raises(InvalidColoringError, match="conflicting"):
            assert_valid_coloring(g, np.array([1, 1, 2]))
        assert cbuild.load() is None
        assert not list(tmp_path.glob("cc/*.so"))
