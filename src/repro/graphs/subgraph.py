"""Induced subgraphs G[U] (paper SS II-A).

Two forms are provided: a *materialized* induced subgraph with compacted
vertex ids (used by DEC-ADG to hand partitions to SIM-COL) and cheap
mask-based degree computations for the peeling loops that never need to
rebuild CSR.

Materialization is one ``batch_neighbors`` pass.  When the subset is
given in ascending id order the local relabeling is monotone, so the
gathered rows — already sorted by original id — stay sorted locally and
the per-row re-sort is skipped entirely; an arbitrary subset order pays
one lexsort.  Every subgraph carries its ``index_map`` (original id ->
local id, -1 outside the subset), so callers that need the inverse
mapping get it for free instead of rebuilding the scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph


@dataclass(frozen=True)
class InducedSubgraph:
    """G[U] with vertices renumbered 0..|U|-1, plus the id mappings.

    ``vertices`` maps local -> original (``vertices[i]`` is the original
    id of local vertex ``i``); ``index_map`` is the inverse scatter over
    the *parent* id space (original -> local, ``-1`` outside U).
    """

    graph: CSRGraph
    vertices: np.ndarray  # original ids; vertices[i] is the original id of i
    index_map: np.ndarray | None = None  # parent-sized original -> local map

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def to_original(self, local_ids: np.ndarray) -> np.ndarray:
        """Map local vertex ids back to ids in the parent graph."""
        return self.vertices[np.asarray(local_ids, dtype=np.int64)]

    def to_local(self, original_ids: np.ndarray) -> np.ndarray:
        """Map parent-graph ids to local ids (-1 for ids outside U)."""
        if self.index_map is None:
            raise ValueError("subgraph carries no index_map")
        return self.index_map[np.asarray(original_ids, dtype=np.int64)]


def induced_subgraph(g: CSRGraph, vertices: np.ndarray,
                     name: str | None = None) -> InducedSubgraph:
    """Materialize G[U] for a vertex subset (order of ``vertices`` is kept)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size != np.unique(vertices).size:
        raise ValueError("vertex subset contains duplicates")
    local = np.full(g.n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.size, dtype=np.int64)
    seg, nbrs = g.batch_neighbors(vertices)
    keep = local[nbrs] >= 0
    src_local = seg[keep]
    dst_local = local[nbrs[keep]]
    indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_local, minlength=vertices.size), out=indptr[1:])
    # batch_neighbors returns rows already sorted by original id.  For an
    # ascending subset the local relabeling is monotone, so the rows are
    # already sorted by local id too and the per-row re-sort is skipped;
    # an arbitrary subset order needs one lexsort.
    if vertices.size < 2 or np.all(np.diff(vertices) > 0):
        indices = dst_local
    else:
        order = np.lexsort((dst_local, src_local))
        indices = dst_local[order]
    sub = CSRGraph(indptr=indptr, indices=indices,
                   name=name or f"{g.name}[{vertices.size}]")
    return InducedSubgraph(graph=sub, vertices=vertices, index_map=local)


def degrees_within(g: CSRGraph, active: np.ndarray) -> np.ndarray:
    """deg_U(v) for every v (0 outside U), where ``active`` is U's bitmap."""
    active = np.asarray(active, dtype=bool)
    if active.size != g.n:
        raise ValueError("active mask must have length n")
    verts = np.flatnonzero(active).astype(np.int64)
    out = np.zeros(g.n, dtype=np.int64)
    if verts.size == 0:
        return out
    seg, nbrs = g.batch_neighbors(verts)
    inside = active[nbrs]
    np.add.at(out, verts[seg[inside]], 1)
    return out


def edges_within(g: CSRGraph, active: np.ndarray) -> int:
    """|E[U]|: number of edges with both endpoints active."""
    return int(degrees_within(g, active).sum()) // 2
