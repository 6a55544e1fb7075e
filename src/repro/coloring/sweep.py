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

The sweep is ~40 lines of C built through :mod:`repro.primitives.cbuild`
(the mex counts with an epoch-stamped presence buffer, after Chen, Li &
Yang, arXiv:1606.06025).  Without a C compiler the pure-Python sweep
below computes the same outputs; it is also the C path's test oracle.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

from ..primitives.cbuild import CLibrary, checked_csr

_C_SOURCE = r"""
#include <stdint.h>

/* One pass over the vertices in descending rank (order[]).  colors and
   wave start at 0; seen (>= max degree + 1 slots), wseen, wcnt and the
   five per-wave books (n + 1 slots, indexed by wave) start at 0.
   Returns the number of waves. */
long long repro_rank_sweep(long long n, const int64_t *indptr,
                           const int64_t *indices, const int64_t *ranks,
                           const int64_t *order, int64_t *colors,
                           int64_t *wave, int64_t *seen, int64_t *wseen,
                           int64_t *wcnt, int64_t *front, int64_t *nbrs,
                           int64_t *succ, int64_t *maxdeg, int64_t *coll)
{
    long long i, waves = 0;
    for (i = 0; i < n; i++) {
        const int64_t v = order[i], rv = ranks[v], epoch = i + 1;
        const int64_t lo = indptr[v], hi = indptr[v + 1], deg = hi - lo;
        int64_t j, c, w = 0, npred = 0;
        for (j = lo; j < hi; j++) {
            const int64_t u = indices[j];
            int64_t wu;
            if (ranks[u] <= rv)
                continue;               /* a successor: colored later */
            npred++;
            c = colors[u];
            if (c <= deg)               /* larger colors never block the mex */
                seen[c] = epoch;
            wu = wave[u];
            if (wu > w)
                w = wu;
            if (wseen[wu] != epoch) {   /* v's predecessors in wave wu */
                wseen[wu] = epoch;
                wcnt[wu] = 0;
            }
            if (++wcnt[wu] > coll[wu])
                coll[wu] = wcnt[wu];
        }
        for (c = 1; c <= deg && seen[c] == epoch; c++)
            ;
        colors[v] = c;
        wave[v] = ++w;
        if (w > waves)
            waves = w;
        front[w]++;
        nbrs[w] += deg;
        succ[w] += deg - npred;
        if (deg > maxdeg[w])
            maxdeg[w] = deg;
    }
    return waves;
}
"""


def _bind(lib):
    fn = lib.repro_rank_sweep
    arr = np.ctypeslib.ndpointer(dtype=np.int64,
                                 flags="C_CONTIGUOUS,ALIGNED")
    fn.restype = ctypes.c_longlong
    fn.argtypes = [ctypes.c_longlong] + [arr] * 14
    return fn


_CSWEEP = CLibrary("ranksweep", _C_SOURCE, _bind)


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


def rank_sweep(indptr: np.ndarray, indices: np.ndarray,
               ranks: np.ndarray) -> Sweep:
    """Color the CSR graph greedily in descending ``ranks`` (distinct).

    Runs the compiled sweep when it builds, else the Python sweep; the
    two return identical arrays.  The CSR arrays are bounds-checked
    (:func:`~repro.primitives.cbuild.checked_csr`) on both paths.
    """
    ranks = np.require(ranks, np.int64, ["C", "A"])
    indptr, indices = checked_csr(indptr, indices, ranks.size)
    order = np.ascontiguousarray(np.argsort(ranks, kind="stable")[::-1])
    fn = _CSWEEP.load()
    if fn is None:
        return _sweep_python(indptr, indices, ranks, order)
    return _sweep_c(fn, indptr, indices, ranks, order)


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
