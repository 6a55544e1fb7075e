"""Graph deltas: batched edge/vertex mutations against a CSR graph.

Dynamic-graph workloads (the coloring service, incremental recoloring)
describe changes as a :class:`GraphDelta` — batches of edge inserts and
deletes plus vertex additions and removals — and apply them with
:func:`apply_delta`, a *merge-based* CSR rebuild: O(m + k log m) for a
k-change delta, never a full re-sort of the edge list.

Semantics (chosen so vertex ids — and therefore color arrays, level
arrays, and priorities — stay aligned across deltas):

- **edge insert** ``(u, v)``: added in both directions; inserting an
  edge that already exists is a no-op (``strict=True`` raises).
- **edge delete** ``(u, v)``: removed in both directions; deleting a
  missing edge is a no-op (``strict=True`` raises).
- **vertex add**: ``add_vertices`` new isolated vertices are appended
  with ids ``n .. n+k-1`` (connect them via ``add_edges`` in the same
  delta — the ids are deterministic).
- **vertex remove**: the vertex is *isolated* (all incident edges
  dropped), never renumbered — so every per-vertex array keeps its
  meaning and the id can be reconnected later.

The CLI and the service speak a compact spec grammar
(:func:`parse_delta_spec`)::

    add:0-5,3-7;del:1-2;addv:2;delv:9

Applying a delta either builds a fresh :class:`CSRGraph` or, with
``in_place=True``, swaps the arrays on the existing instance through
:meth:`CSRGraph.replace_arrays` — which invalidates the cached degree
statistics and content digest, so digest-keyed caches never serve a
stale entry for a mutated graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphDelta", "AppliedDelta", "apply_delta",
           "parse_delta_spec", "format_delta_spec"]


def _pairs(edges) -> np.ndarray:
    """Normalize edge input to a (k, 2) int64 array with u < v, deduped.

    ``None`` or empty input means "no edges" (service requests omit
    unused fields); any other shape than (k, 2) is a ``ValueError``,
    never re-paired."""
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray)
                     else edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"delta edges must have shape (k, 2), "
                         f"got {arr.shape}")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise ValueError("delta edges must not be self-loops")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.column_stack([lo, hi]), axis=0)


@dataclass(frozen=True)
class GraphDelta:
    """One batch of mutations: edge inserts/deletes, vertex adds/removes.

    ``add_edges`` / ``remove_edges`` are (k, 2) arrays (any orientation,
    duplicates allowed — normalized to u < v and deduped on
    construction); ``add_vertices`` appends that many isolated vertices;
    ``remove_vertices`` isolates the named vertices.
    """

    add_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    remove_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    add_vertices: int = 0
    remove_vertices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_edges", _pairs(self.add_edges))
        object.__setattr__(self, "remove_edges", _pairs(self.remove_edges))
        rmv = np.unique(np.asarray(
            self.remove_vertices if self.remove_vertices is not None
            else (), dtype=np.int64))
        object.__setattr__(self, "remove_vertices", rmv)
        if self.add_vertices < 0:
            raise ValueError(f"add_vertices must be >= 0, "
                             f"got {self.add_vertices}")
        if rmv.size and rmv[0] < 0:
            raise ValueError("remove_vertices ids must be non-negative")
        both = _intersect_rows(self.add_edges, self.remove_edges)
        if both.size:
            raise ValueError("an edge cannot be both added and removed "
                             "in one delta")

    @property
    def is_empty(self) -> bool:
        return (self.add_edges.size == 0 and self.remove_edges.size == 0
                and self.add_vertices == 0
                and self.remove_vertices.size == 0)

    def describe(self) -> dict:
        """JSON-friendly summary (for service responses and ledgers)."""
        return {"add_edges": int(self.add_edges.shape[0]),
                "remove_edges": int(self.remove_edges.shape[0]),
                "add_vertices": int(self.add_vertices),
                "remove_vertices": int(self.remove_vertices.size)}


@dataclass(frozen=True)
class AppliedDelta:
    """The outcome of :func:`apply_delta`.

    ``added`` / ``removed`` list the undirected edges (u < v) that
    *actually* changed — no-op inserts/deletes are filtered out, and
    edges dropped by vertex isolation are included in ``removed``.
    ``touched`` is every vertex whose adjacency changed (the repair
    frontier seed for incremental recoloring).
    """

    graph: CSRGraph
    added: np.ndarray
    removed: np.ndarray
    new_vertices: np.ndarray
    removed_vertices: np.ndarray
    touched: np.ndarray


def _intersect_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    span = max(int(a.max()), int(b.max())) + 1
    ka = a[:, 0] * np.int64(span) + a[:, 1]
    kb = b[:, 0] * np.int64(span) + b[:, 1]
    return np.intersect1d(ka, kb)


def apply_delta(g: CSRGraph, delta: GraphDelta, *, strict: bool = False,
                in_place: bool = False) -> AppliedDelta:
    """Apply one delta; returns the mutated graph plus the change set.

    The rebuild is a single merge pass: a keep-mask drops removed arcs
    from the old ``indices`` (binary search per explicit deletion,
    a flag gather for isolated vertices), inserted arcs land at their
    ``searchsorted`` positions via one :func:`numpy.insert`, and the new
    ``indptr`` is a cumulative sum of per-row arc counts — the rows stay
    sorted by construction, so no global re-sort ever happens.

    ``in_place=True`` swaps the arrays on ``g`` itself (invalidating its
    cached degrees and content digest); otherwise ``g`` is untouched and
    a fresh :class:`CSRGraph` is returned.
    """
    n_old = g.n
    n_new = n_old + int(delta.add_vertices)
    for name, pairs in (("add_edges", delta.add_edges),
                        ("remove_edges", delta.remove_edges)):
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n_new):
            raise ValueError(f"{name}: vertex id out of range [0, {n_new})")
    rmv = delta.remove_vertices
    if rmv.size and rmv.max() >= n_new:
        raise ValueError(f"remove_vertices: id out of range [0, {n_new})")
    if delta.add_edges.size and rmv.size:
        hit = np.isin(delta.add_edges, rmv)
        if hit.any():
            raise ValueError("an added edge references a vertex removed "
                             "in the same delta")

    mult = np.int64(max(n_new, 1))
    src = np.repeat(np.arange(n_old, dtype=np.int64), np.diff(g.indptr))
    dst = g.indices.astype(np.int64, copy=False)
    keys = src * mult + dst  # globally ascending: row-major, sorted rows

    # -- deletions: explicit edges + isolation of removed vertices ----------
    drop = np.zeros(keys.size, dtype=bool)
    rm = delta.remove_edges
    if rm.size:
        rkeys = np.sort(np.concatenate([rm[:, 0] * mult + rm[:, 1],
                                        rm[:, 1] * mult + rm[:, 0]]))
        pos = np.searchsorted(keys, rkeys)
        ok = pos < keys.size
        ok[ok] = keys[pos[ok]] == rkeys[ok]
        if strict and not ok.all():
            missing = rkeys[~ok][0]
            raise ValueError(f"remove_edges: edge "
                             f"({missing // mult}, {missing % mult}) "
                             f"not present")
        drop[pos[ok]] = True
    if rmv.size:
        iso = np.zeros(n_new, dtype=bool)
        iso[rmv] = True
        drop |= iso[src] | iso[dst]

    removed_pairs = np.empty((0, 2), dtype=np.int64)
    if drop.any():
        ds, dd = src[drop], dst[drop]
        fwd = ds < dd
        removed_pairs = np.column_stack([ds[fwd], dd[fwd]])

    # -- insertions: only edges not already present -------------------------
    add = delta.add_edges
    added_pairs = np.empty((0, 2), dtype=np.int64)
    if add.size:
        akeys = add[:, 0] * mult + add[:, 1]
        pos = np.searchsorted(keys, akeys)
        present = pos < keys.size
        present[present] = keys[pos[present]] == akeys[present]
        if strict and present.any():
            u, v = add[present][0]
            raise ValueError(f"add_edges: edge ({u}, {v}) already present")
        added_pairs = add[~present]

    keep = ~drop
    ksrc, kdst, kkeys = src[keep], dst[keep], keys[keep]
    ins_counts = np.zeros(0, dtype=np.int64)
    if added_pairs.size:
        ins_src = np.concatenate([added_pairs[:, 0], added_pairs[:, 1]])
        ins_dst = np.concatenate([added_pairs[:, 1], added_pairs[:, 0]])
        ins_keys = ins_src * mult + ins_dst
        order = np.argsort(ins_keys, kind="stable")
        ins_src, ins_dst = ins_src[order], ins_dst[order]
        indices_new = np.insert(kdst, np.searchsorted(kkeys, ins_keys[order]),
                                ins_dst)
        ins_counts = np.bincount(ins_src, minlength=n_new)
    else:
        indices_new = kdst.copy() if in_place else kdst
    counts = np.bincount(ksrc, minlength=n_new)
    if ins_counts.size:
        counts = counts + ins_counts
    indptr_new = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_new[1:])
    indices_new = np.ascontiguousarray(indices_new, dtype=np.int64)

    if in_place:
        g.replace_arrays(indptr_new, indices_new)
        out = g
    else:
        out = CSRGraph(indptr=indptr_new, indices=indices_new, name=g.name)

    new_vertices = np.arange(n_old, n_new, dtype=np.int64)
    touched = np.unique(np.concatenate([
        added_pairs.ravel(), removed_pairs.ravel(), new_vertices, rmv]))
    return AppliedDelta(graph=out, added=added_pairs, removed=removed_pairs,
                        new_vertices=new_vertices, removed_vertices=rmv,
                        touched=touched)


# -- the spec grammar ---------------------------------------------------------

def _parse_pairs(body: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in body.split(","):
        tok = tok.strip()
        if not tok:
            continue
        u, _, v = tok.partition("-")
        if not _:
            raise ValueError(f"bad edge token {tok!r} (want 'u-v')")
        pairs.append((int(u), int(v)))
    return pairs


def parse_delta_spec(spec: str) -> GraphDelta:
    """Parse the compact delta grammar.

    ``add:u-v,...`` and ``del:u-v,...`` list edges; ``addv:N`` appends N
    isolated vertices; ``delv:v,...`` isolates vertices.  Clauses are
    ``;``-separated and each may appear at most once::

        add:0-5,3-7;del:1-2;addv:2;delv:9
    """
    add_edges: list = []
    remove_edges: list = []
    add_vertices = 0
    remove_vertices: list = []
    seen = set()
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        op, sep, body = clause.partition(":")
        op = op.strip().lower()
        if not sep or op not in ("add", "del", "addv", "delv"):
            raise ValueError(f"bad delta clause {clause!r}; want "
                             f"add:/del:/addv:/delv:")
        if op in seen:
            raise ValueError(f"duplicate {op!r} clause in delta spec")
        seen.add(op)
        if op == "add":
            add_edges = _parse_pairs(body)
        elif op == "del":
            remove_edges = _parse_pairs(body)
        elif op == "addv":
            add_vertices = int(body)
        else:
            remove_vertices = [int(t) for t in body.split(",") if t.strip()]
    return GraphDelta(add_edges=add_edges, remove_edges=remove_edges,
                      add_vertices=add_vertices,
                      remove_vertices=remove_vertices)


def format_delta_spec(delta: GraphDelta) -> str:
    """The inverse of :func:`parse_delta_spec` (canonical clause order)."""
    parts = []
    if delta.add_edges.size:
        parts.append("add:" + ",".join(f"{u}-{v}"
                                       for u, v in delta.add_edges))
    if delta.remove_edges.size:
        parts.append("del:" + ",".join(f"{u}-{v}"
                                       for u, v in delta.remove_edges))
    if delta.add_vertices:
        parts.append(f"addv:{delta.add_vertices}")
    if delta.remove_vertices.size:
        parts.append("delv:" + ",".join(str(v)
                                        for v in delta.remove_vertices))
    return ";".join(parts)
