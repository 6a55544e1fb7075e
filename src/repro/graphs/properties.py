"""Graph-theoretic properties: degeneracy, coreness, components, stats.

The exact degeneracy / coreness computation is the Matula-Beck peeling
(paper SS II-B): iteratively remove a minimum-degree vertex.  It doubles
as the oracle for the SL ordering and for verifying ADG's approximation
guarantee in the tests.

The peel is a Batagelj-Zaversnik bucket queue, ~30 lines of C built
through :mod:`repro.primitives.cbuild`.  Without a C compiler the
pure-Python loop below performs the same bucket swaps in the same
order, so both return identical results; it is also the C path's test
oracle.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..primitives.cbuild import CLibrary, checked_csr
from .csr import CSRGraph

_C_SOURCE = r"""
#include <stdint.h>

/* Batagelj-Zaversnik peel.  deg (n slots) holds the degrees and ends
   holding the coreness; vert (n) ends holding the removal order; pos
   (n) and bins (max degree + 1, zeroed) are scratch. */
void repro_peel(long long n, long long maxdeg, const int64_t *indptr,
                const int64_t *indices, int64_t *deg, int64_t *vert,
                int64_t *pos, int64_t *bins)
{
    long long i, d, start = 0;
    for (i = 0; i < n; i++)             /* bucket sizes ... */
        bins[deg[i]]++;
    for (d = 0; d <= maxdeg; d++) {     /* ... to bucket starts */
        const int64_t size = bins[d];
        bins[d] = start;
        start += size;
    }
    for (i = 0; i < n; i++) {           /* vertices sorted by degree */
        pos[i] = bins[deg[i]]++;
        vert[pos[i]] = i;
    }
    for (d = maxdeg; d > 0; d--)        /* restore the bucket starts */
        bins[d] = bins[d - 1];
    bins[0] = 0;
    for (i = 0; i < n; i++) {
        const int64_t v = vert[i], dv = deg[v];
        int64_t j;
        for (j = indptr[v]; j < indptr[v + 1]; j++) {
            const int64_t u = indices[j], du = deg[u];
            if (du > dv) {              /* swap u to its bucket head */
                const int64_t pu = pos[u], pw = bins[du], w = vert[pw];
                if (u != w) {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du]++;
                deg[u] = du - 1;
            }
        }
    }
}
"""


def _bind(lib):
    fn = lib.repro_peel
    arr = np.ctypeslib.ndpointer(dtype=np.int64,
                                 flags="C_CONTIGUOUS,ALIGNED")
    fn.restype = None
    fn.argtypes = [ctypes.c_longlong, ctypes.c_longlong] + [arr] * 6
    return fn


_CPEEL = CLibrary("peel", _C_SOURCE, _bind)


@dataclass(frozen=True)
class PeelResult:
    """Output of the exact min-degree peeling.

    ``order[i]`` is the i-th removed vertex; ``coreness[v]`` is the
    largest k such that v lies in a k-core; ``degeneracy`` is
    max(coreness).  The *degeneracy ordering* ranks vertices by removal
    time (earlier removal = lower rank), so each vertex has at most d
    higher-ranked neighbors.
    """

    order: np.ndarray
    coreness: np.ndarray
    degeneracy: int


def peel_degeneracy(g: CSRGraph) -> PeelResult:
    """O(n + m) bucket-queue peeling (Matula & Beck).

    Removes a minimum-degree vertex at every step; the running maximum
    of the removal degrees is the degeneracy, and the removal degree
    capped by that maximum is the coreness.

    Runs the compiled peel when it builds, else the Python loop; the
    two return identical ``order``, ``coreness`` and ``degeneracy``.
    The CSR arrays are bounds-checked
    (:func:`~repro.primitives.cbuild.checked_csr`) on both paths, and
    ``g`` is never modified.
    """
    indptr, indices = checked_csr(g.indptr, g.indices, g.n)
    fn = _CPEEL.load()
    if fn is None:
        return _peel_python(g)
    deg = np.diff(indptr)  # a fresh array: g.degrees is never decremented
    n = deg.size
    vert = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    max_deg = int(deg.max(initial=0))
    bins = np.zeros(max_deg + 1, dtype=np.int64)
    fn(n, max_deg, indptr, indices, deg, vert, pos, bins)
    return PeelResult(order=vert, coreness=deg,
                      degeneracy=int(deg.max(initial=0)))


def _peel_python(g: CSRGraph) -> PeelResult:
    """The pure-Python peel: the fallback and the C path's oracle."""
    n = g.n
    if n == 0:
        return PeelResult(order=np.empty(0, dtype=np.int64),
                          coreness=np.empty(0, dtype=np.int64), degeneracy=0)
    deg = g.degrees.tolist()
    max_deg = max(deg) if n else 0

    # Batagelj-Zaversnik bucket queue: ``vert`` holds vertices sorted by
    # current degree, ``bins[d]`` is the first index of the degree-d
    # bucket, and a decrement is an O(1) swap with the bucket head.
    counts = [0] * (max_deg + 1)
    for d in deg:
        counts[d] += 1
    bins = [0] * (max_deg + 2)
    for d in range(max_deg + 1):
        bins[d + 1] = bins[d] + counts[d]
    bins = bins[:-1]
    vert = [0] * n
    pos = [0] * n
    fill = bins.copy()
    for v in range(n):
        pos[v] = fill[deg[v]]
        vert[pos[v]] = v
        fill[deg[v]] += 1

    indptr = g.indptr
    indices = g.indices.tolist()
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            du = deg[u]
            if du > dv:
                pu = pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bins[du] += 1
                deg[u] = du - 1

    order = np.asarray(vert, dtype=np.int64)
    coreness = np.asarray(deg, dtype=np.int64)
    degeneracy = int(coreness.max()) if n else 0
    return PeelResult(order=order, coreness=coreness, degeneracy=degeneracy)


def degeneracy(g: CSRGraph) -> int:
    """d(G): the smallest s such that G is s-degenerate."""
    return peel_degeneracy(g).degeneracy


def coreness(g: CSRGraph) -> np.ndarray:
    """Per-vertex coreness (k-core numbers)."""
    return peel_degeneracy(g).coreness


def connected_components(g: CSRGraph) -> np.ndarray:
    """Component label per vertex, via BFS over CSR (labels are 0-based)."""
    labels = np.full(g.n, -1, dtype=np.int64)
    current = 0
    for s in range(g.n):
        if labels[s] != -1:
            continue
        labels[s] = current
        frontier = np.asarray([s], dtype=np.int64)
        while frontier.size:
            seg, nbrs = g.batch_neighbors(frontier)
            fresh = np.unique(nbrs[labels[nbrs] == -1])
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels


def num_components(g: CSRGraph) -> int:
    """Number of connected components (0 for the empty graph)."""
    if g.n == 0:
        return 0
    return int(connected_components(g).max()) + 1


def is_bipartite(g: CSRGraph) -> bool:
    """Two-colorability check via BFS layering."""
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        frontier = np.asarray([s], dtype=np.int64)
        while frontier.size:
            seg, nbrs = g.batch_neighbors(frontier)
            same = color[nbrs] == color[frontier[seg]]
            if np.any(same):
                return False
            fresh_mask = color[nbrs] == -1
            fresh = nbrs[fresh_mask]
            color[fresh] = 1 - color[frontier[seg[fresh_mask]]]
            frontier = np.unique(fresh)
    return True


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics reported by the dataset registry."""

    name: str
    n: int
    m: int
    max_degree: int
    min_degree: int
    avg_degree: float
    degeneracy: int

    @property
    def degeneracy_to_sqrt_m(self) -> float:
        """d / sqrt(m): the paper proves this is <= 2 (Lemma 13)."""
        if self.m == 0:
            return 0.0
        return self.degeneracy / float(np.sqrt(self.m))


def stats(g: CSRGraph) -> GraphStats:
    """Compute the summary statistics of a graph."""
    return GraphStats(
        name=g.name, n=g.n, m=g.m,
        max_degree=g.max_degree, min_degree=g.min_degree,
        avg_degree=g.avg_degree, degeneracy=degeneracy(g),
    )
