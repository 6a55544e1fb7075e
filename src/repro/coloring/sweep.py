"""The rank sweep: JP's coloring and wave layering in one pass.

Under a total order rho every vertex takes the mex of its higher-ranked
neighbors' colors, so JP (paper Alg. 3) colors exactly as sequential
greedy does in descending rho.  Visiting the vertices in that order
also yields each vertex's *wave* — 1 + the largest wave among its
higher-ranked neighbors, i.e. its layer in the longest-path layering of
the DAG G_rho — and, per wave, the five numbers JP's cost books need:

- ``frontier``: vertices in the wave;
- ``neighbors``: their degree sum (the GetColor gather);
- ``successors``: their degree sum minus predecessors (the
  DecrementAndFetch notifications the wave sends);
- ``max_degree``: the largest degree in the wave;
- ``collisions``: the largest number of this wave's vertices that
  notify one common successor (the CREW combining-tree width).

The sweep is ~40 lines of C (``csrc/ranksweep.c``) in the library
:mod:`repro.primitives.cbuild` builds (the mex counts with an
epoch-stamped presence buffer, after Chen, Li & Yang,
arXiv:1606.06025).  Without a C compiler the pure-Python sweep below
computes the same outputs; it is also the C path's test oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..primitives import cbuild


class Sweep(NamedTuple):
    """Per-vertex colors and waves, plus per-wave books (index k is
    wave k + 1)."""

    colors: np.ndarray
    wave: np.ndarray
    frontier: np.ndarray
    neighbors: np.ndarray
    successors: np.ndarray
    max_degree: np.ndarray
    collisions: np.ndarray

    @property
    def waves(self) -> int:
        return int(self.frontier.size)


def rank_sweep(g: CSRGraph, ranks: np.ndarray) -> Sweep:
    """Color ``g`` greedily in descending ``ranks`` (distinct, one per
    vertex).

    Runs the compiled sweep when it builds, else the Python sweep; the
    two return identical arrays.  Both read ``g``'s bounds-checked
    arrays (:attr:`~repro.graphs.csr.CSRGraph.checked_arrays`, checked
    once per graph), and ranks of the wrong length or with repeats
    raise ``ValueError``.
    """
    ranks = np.require(ranks, np.int64, ["C", "A"])
    if ranks.size != g.n:
        raise ValueError("ranks length must equal n")
    indptr, indices = g.checked_arrays
    order = _descending(ranks)
    fn = cbuild.entry("repro_rank_sweep")
    if fn is None:
        return _sweep_python(indptr, indices, ranks, order)
    return _sweep_c(fn, indptr, indices, ranks, order)


def _descending(ranks: np.ndarray) -> np.ndarray:
    """The vertices in descending ``ranks``; ``ValueError`` on a repeat.

    Ranks spanning exactly 0..n-1 (every ordering's) are inverted by
    one scatter, where a repeat leaves a slot unfilled; other ranks
    take a stable argsort and an adjacent-equal check.
    """
    n = ranks.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if ranks.min() == 0 and ranks.max() == n - 1:
        order = np.full(n, -1, dtype=np.int64)
        order[n - 1 - ranks] = np.arange(n, dtype=np.int64)
        distinct = order.min() >= 0
    else:
        order = np.ascontiguousarray(np.argsort(ranks, kind="stable")[::-1])
        distinct = not np.any(ranks[order[1:]] == ranks[order[:-1]])
    if not distinct:
        # A rank collision between neighbors would let JP color them in
        # the same wave with the same mex result — an invalid coloring.
        raise ValueError("ranks must be distinct (a total order)")
    return order


def _sweep_c(fn, indptr, indices, ranks, order) -> Sweep:
    n = ranks.size
    deg = np.diff(indptr)
    colors = np.zeros(n, dtype=np.int64)
    wave = np.zeros(n, dtype=np.int64)
    seen = np.zeros(int(deg.max(initial=0)) + 1, dtype=np.int64)
    wseen = np.zeros(n + 1, dtype=np.int64)
    wcnt = np.zeros(n + 1, dtype=np.int64)
    books = np.zeros((5, n + 1), dtype=np.int64)
    waves = int(fn(n, indptr, indices, ranks, order, colors, wave, seen,
                   wseen, wcnt, *books))
    return Sweep(colors, wave, *(b[1:waves + 1].copy() for b in books))


def _sweep_python(indptr, indices, ranks, order) -> Sweep:
    n = ranks.size
    colors = np.zeros(n, dtype=np.int64)
    wave = np.zeros(n, dtype=np.int64)
    ptr = indptr.tolist()
    rank = ranks.tolist()
    for v in order.tolist():
        row = indices[ptr[v]:ptr[v + 1]]
        pred = row[ranks[row] > rank[v]]
        k = pred.size
        if k == 0:
            colors[v] = wave[v] = 1
            continue
        present = np.zeros(k + 2, dtype=bool)
        present[np.minimum(colors[pred], k + 1)] = True
        colors[v] = int(np.argmin(present[1:])) + 1
        wave[v] = int(wave[pred].max()) + 1
    return Sweep(colors, wave, *_wave_books(indptr, indices, ranks, wave))


def _wave_books(indptr, indices, ranks, wave) -> list[np.ndarray]:
    """The per-wave books of a finished sweep, vectorized."""
    n = ranks.size
    waves = int(wave.max(initial=0))
    deg = np.diff(indptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    is_pred = ranks[indices] > ranks[owner]
    npred = np.bincount(owner[is_pred], minlength=n)
    front = np.bincount(wave, minlength=waves + 1)
    nbrs = np.zeros(waves + 1, dtype=np.int64)
    np.add.at(nbrs, wave, deg)
    succ = np.zeros(waves + 1, dtype=np.int64)
    np.add.at(succ, wave, deg - npred)
    maxdeg = np.zeros(waves + 1, dtype=np.int64)
    np.maximum.at(maxdeg, wave, deg)
    # Pair each vertex with its predecessors' waves; the largest pair
    # multiplicity per wave is that wave's notification collision.
    key = owner[is_pred] * (waves + 1) + wave[indices[is_pred]]
    pair, mult = np.unique(key, return_counts=True)
    coll = np.zeros(waves + 1, dtype=np.int64)
    np.maximum.at(coll, pair % (waves + 1), mult)
    return [b[1:].astype(np.int64) for b in (front, nbrs, succ, maxdeg, coll)]
