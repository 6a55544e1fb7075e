"""Coloring validity and quality checks.

Validity is certified by one neighbor scan, ~30 lines of C
(``csrc/verify.c``) in the library :mod:`repro.primitives.cbuild`
builds: a single pass over the rows of the bounds-checked CSR counts
the uncolored vertices (color <= 0) and the arcs (v, u), u > v, whose
endpoints share a positive color -- the edge set
:meth:`~repro.graphs.csr.CSRGraph.undirected_edges` yields, in the
same order.  It runs for integer colors that cast to int64 without
a value change; other colors, and a missing compiler, take the NumPy
edge-list path below, which gives the same results and is the scan's
test oracle.  Colors of any shape but ``(n,)`` take neither: they are
invalid, and ``conflicting_edges`` rejects them with ``ValueError``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.properties import degeneracy
from ..primitives import cbuild


class InvalidColoringError(AssertionError):
    """Raised when a coloring violates an edge or completeness constraint."""


def _scan(g: CSRGraph, colors: np.ndarray, cap: int = 0):
    """``(uncolored, conflicts, bu, bv)`` from the compiled scan, with
    the first ``cap`` conflicting pairs in ``bu``/``bv``; ``None`` when
    the NumPy path must run instead (no build, or the length-n
    ``colors`` is not an integer array that casts to int64 without a
    value change).
    """
    if colors.dtype.kind not in "iu" \
            or not np.can_cast(colors.dtype, np.int64):
        return None
    fn = cbuild.entry("repro_verify")
    if fn is None:
        return None
    indptr, indices = g.checked_arrays
    bu = np.empty(cap, dtype=np.int64)
    bv = np.empty(cap, dtype=np.int64)
    uncolored = ctypes.c_longlong()
    bad = fn(g.n, indptr, indices, np.require(colors, np.int64, ["C", "A"]),
             cap, bu, bv, ctypes.byref(uncolored))
    return uncolored.value, bad, bu, bv


def _shape_error(g: CSRGraph, colors: np.ndarray) -> str | None:
    """Why ``colors`` cannot color ``g`` (one entry per vertex), or None."""
    if colors.shape == (g.n,):
        return None
    return f"colors has shape {colors.shape}, expected a length-{g.n} vector"


def conflicting_edges(g: CSRGraph, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (u, v) with u < v, both colored, and equal colors.

    The compiled scan runs twice, to count the pairs and then to fill
    arrays of exactly that size; the NumPy path gathers the colors of
    every undirected edge.  Both return the pairs in
    ``g.undirected_edges()`` order.  Colors of any shape but ``(n,)``
    raise ``ValueError``.
    """
    colors = np.asarray(colors)
    bad_shape = _shape_error(g, colors)
    if bad_shape:
        raise ValueError(bad_shape)
    scan = _scan(g, colors)
    if scan is not None:
        _, _, bu, bv = _scan(g, colors, cap=scan[1])
        return bu, bv
    u, v = g.undirected_edges()
    both = (colors[u] > 0) & (colors[v] > 0)
    bad = both & (colors[u] == colors[v])
    return u[bad], v[bad]


def is_valid_coloring(g: CSRGraph, colors: np.ndarray,
                      allow_uncolored: bool = False) -> bool:
    """True iff ``colors`` has shape ``(n,)``, no edge is monochromatic
    and (unless allowed) every vertex is colored."""
    colors = np.asarray(colors)
    if _shape_error(g, colors):
        return False
    scan = _scan(g, colors)
    if scan is not None:
        uncolored, bad, _, _ = scan
        return bad == 0 and (allow_uncolored or uncolored == 0)
    if not allow_uncolored and np.any(colors <= 0):
        return False
    bu, _ = conflicting_edges(g, colors)
    return bu.size == 0


def assert_valid_coloring(g: CSRGraph, colors: np.ndarray) -> None:
    """Raise InvalidColoringError with a diagnostic when invalid."""
    colors = np.asarray(colors)
    bad_shape = _shape_error(g, colors)
    if bad_shape:
        raise InvalidColoringError(bad_shape)
    scan = _scan(g, colors)
    if scan is not None and scan[:2] == (0, 0):
        return
    uncolored = np.flatnonzero(colors <= 0)
    if uncolored.size:
        raise InvalidColoringError(
            f"{uncolored.size} uncolored vertices, first: {uncolored[:5]}")
    bu, bv = conflicting_edges(g, colors)
    if bu.size:
        raise InvalidColoringError(
            f"{bu.size} conflicting edges, first: "
            f"({int(bu[0])}, {int(bv[0])}) both color {int(colors[bu[0]])}")


def num_colors(colors: np.ndarray) -> int:
    """Largest color id used (colors are 1-based and dense in practice)."""
    colors = np.asarray(colors)
    return int(colors.max()) if colors.size else 0


def distinct_colors(colors: np.ndarray) -> int:
    """Number of distinct positive colors (equals num_colors for greedy)."""
    colors = np.asarray(colors)
    pos = colors[colors > 0]
    return int(np.unique(pos).size)


def quality_vs_degeneracy(g: CSRGraph, colors: np.ndarray) -> float:
    """#colors / (d + 1): 1.0 means degeneracy-optimal greedy quality."""
    d = degeneracy(g)
    used = num_colors(colors)
    return used / (d + 1) if d >= 0 else float("nan")


def color_histogram(colors: np.ndarray) -> np.ndarray:
    """Count of vertices per color (index 0 = uncolored)."""
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(np.maximum(colors, 0))
