"""CSR graph representation (paper SS II-A).

The paper stores G as CSR: n sorted neighbor arrays (2m words) plus
offsets (n words).  :class:`CSRGraph` is an immutable undirected simple
graph over vertices {0, ..., n-1} with ``indptr`` (n+1 int64 offsets)
and ``indices`` (2m int64 neighbor ids, sorted within each row).
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..primitives.cbuild import checked_csr
from ..primitives.kernels import batch_neighbors

#: The cached_property names that derive from indptr/indices and must
#: be dropped whenever the arrays are swapped (see replace_arrays).
_DERIVED_CACHES = ("degrees", "max_degree", "min_degree", "content_digest",
                   "checked_arrays")


@dataclass(frozen=True)
class CSRGraph:
    """An undirected simple graph in compressed sparse row form.

    Invariants (enforced by :meth:`validate`, guaranteed by all
    constructors in :mod:`repro.graphs.builders`):

    - ``indptr`` is non-decreasing with ``indptr[0] == 0`` and
      ``indptr[n] == len(indices)``;
    - each row of ``indices`` is strictly increasing (sorted, no
      duplicate edges, no self-loops);
    - symmetry: ``u in N(v)`` iff ``v in N(u)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = field(default="graph", compare=False)

    # -- basic shape ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex.

        Cached per instance and marked read-only — peeling algorithms
        that decrement degrees must take ``.copy()``.  (The graph is
        immutable, so the cache can never go stale.)
        """
        deg = np.diff(self.indptr).astype(np.int64)
        deg.flags.writeable = False
        return deg

    @cached_property
    def max_degree(self) -> int:
        """Delta: the maximum degree (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees.max())

    @cached_property
    def min_degree(self) -> int:
        """delta: the minimum degree (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees.min())

    @cached_property
    def content_digest(self) -> str:
        """Stable content hash of the adjacency structure (16 hex chars).

        Two graphs share a digest iff they share the exact
        indptr/indices arrays — the ledger's cell identity and the
        service cache's graph key.  Cached per instance;
        :meth:`replace_arrays` invalidates it along with the cached
        degree statistics, so a mutated graph can never answer with a
        stale digest.
        """
        h = hashlib.sha256()
        h.update(f"{self.n}:{self.m}:".encode())
        # Feed the raw int64 buffers (same bytes as .tobytes()) so
        # hashing a large int64 graph never materializes a second copy
        # of its arrays, and an int32 CSR hashes like its int64 twin
        # (the one checked_arrays swaps in).
        h.update(np.ascontiguousarray(self.indptr, dtype=np.int64).data)
        h.update(np.ascontiguousarray(self.indices, dtype=np.int64).data)
        return h.hexdigest()[:16]

    @cached_property
    def checked_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` as the compiled passes take them.

        :func:`~repro.primitives.cbuild.checked_csr`'s aligned
        C-contiguous int64 copies (the arrays themselves when they
        already are), bounds-checked once per graph: every compiled
        pass of a job (ADG, the JP sweep, the ITR level pass, the peel)
        reads this cache instead of re-scanning the arrays.  When the
        check had to copy (an int32 CSR, or an array mapped at an odd
        file offset), the copies, holding the same values, become the
        graph's own arrays, so one CSR stays alive, not two.  A malformed CSR raises ``ValueError`` and caches
        nothing; :meth:`replace_arrays` drops the cache, so swapped-in
        arrays are checked again.
        """
        indptr, indices = checked_csr(self.indptr, self.indices, self.n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        return indptr, indices

    @property
    def avg_degree(self) -> float:
        """delta-hat: the average degree (0.0 for an empty graph)."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n

    # -- access ----------------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of a single vertex."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def batch_neighbors(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of a vertex batch.

        Returns ``(sources, neighbors)`` where ``sources[j]`` is the
        *position in the batch* owning ``neighbors[j]`` — the flattened
        "for all v in batch: for all u in N(v)" loop.
        """
        return batch_neighbors(self.indptr, self.indices, batch)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed arcs as (src, dst) arrays of length 2m."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return src, self.indices.astype(np.int64, copy=False)

    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once, as (u, v) arrays with u < v."""
        src, dst = self.edge_array()
        keep = src < dst
        return src[keep], dst[keep]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in the sorted row of u."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    # -- mutation (delta application) -----------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every cached property derived from the arrays.

        ``degrees`` / ``max_degree`` / ``min_degree`` /
        ``content_digest`` / ``checked_arrays`` are all cached per
        instance under the immutability assumption; any helper that
        swaps the arrays must call this (``replace_arrays`` does) or
        stale statistics — and, worse, a stale digest keying a result
        cache or unchecked arrays reaching compiled code — survive the
        mutation.
        """
        for name in _DERIVED_CACHES:
            self.__dict__.pop(name, None)

    def replace_arrays(self, indptr: np.ndarray,
                       indices: np.ndarray) -> None:
        """Swap in a new adjacency structure, in place.

        The one sanctioned mutation seam (used by
        :func:`repro.graphs.delta.apply_delta` with ``in_place=True``):
        the dataclass is frozen, so the swap goes through
        ``object.__setattr__``, and every derived cache is invalidated
        so degree statistics and the content digest are recomputed on
        next access.  ``n`` may change (vertex additions); callers keep
        per-vertex arrays aligned themselves.
        """
        if indptr.size == 0 or indptr[0] != 0 \
                or indptr[-1] != indices.size:
            raise ValueError("replace_arrays: inconsistent indptr/indices")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self.invalidate_caches()

    # -- integrity -------------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError if any CSR invariant is violated."""
        if self.indptr.size == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal len(indices)")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ValueError("neighbor id out of range")
        src, dst = self.edge_array()
        if np.any(src == dst):
            raise ValueError("self-loop present")
        if self.indices.size > 1:
            # Strictly-increasing rows, vectorized: adjacent-pair diffs
            # must be positive everywhere except across row boundaries
            # (pairs straddling indptr cuts), which are masked out.
            d = np.diff(self.indices)
            within_row = np.ones(d.size, dtype=bool)
            cuts = self.indptr[1:-1]
            cuts = cuts[(cuts > 0) & (cuts <= d.size)]
            within_row[cuts - 1] = False
            bad = np.flatnonzero(within_row & (d <= 0))
            if bad.size:
                v = int(np.searchsorted(self.indptr, bad[0],
                                        side="right")) - 1
                raise ValueError(f"row {v} not strictly increasing")
        # Symmetry: the multiset of arcs equals its transpose.
        fwd = src * self.n + dst
        rev = dst * self.n + src
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            raise ValueError("adjacency not symmetric")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(name={self.name!r}, n={self.n}, m={self.m})"
