"""ID: incidence-degree ordering (Coleman & More).

Sequential: the next vertex is the one with the most already-ordered
neighbors (ties by larger degree, then id).  Inherently serial
(Table II: O(n+m) time, no parallelism); used as the Greedy-ID quality
baseline.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context


def id_ordering(g: CSRGraph, seed: int | None = None,
                ctx: ExecutionContext | None = None) -> Ordering:
    """Max-incidence-first sequence; earlier-picked = higher rank."""
    run = ordering_context(ctx)
    n = g.n
    deg = g.degrees
    incidence = np.zeros(n, dtype=np.int64)
    picked = np.zeros(n, dtype=bool)
    # Lazy-deletion max-heap keyed by (-incidence, -degree, id).
    heap: list[tuple[int, int, int]] = [
        (0, -int(deg[v]), v) for v in range(n)
    ]
    heapq.heapify(heap)
    order: list[int] = []

    with run.phase("order:id"):
        while heap:
            neg_inc, neg_deg, v = heapq.heappop(heap)
            if picked[v] or -neg_inc != incidence[v]:
                continue  # stale entry
            picked[v] = True
            order.append(v)
            for u in g.neighbors(v):
                if not picked[u]:
                    incidence[u] += 1
                    heapq.heappush(heap, (-int(incidence[u]), -int(deg[u]), int(u)))
        run.cost.round(2 * g.m + n, n)
        run.mem.stream(n)
        run.mem.gather(2 * g.m)

    ranks = np.empty(n, dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(n - 1, -1, -1)
    return Ordering(name="ID", ranks=ranks, cost=run.cost, mem=run.mem)
