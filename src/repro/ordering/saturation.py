"""SD: saturation-degree ordering (Brelaz's DSATUR).

Sequential and coloring-coupled: the next vertex is the one whose
already-colored neighbors use the most *distinct* colors (ties by
degree, then id).  Because the ordering depends on the colors chosen,
this module runs the full DSATUR greedy and exposes both the vertex
sequence (as an Ordering) and the coloring it produced.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context


@dataclass
class SaturationResult:
    """The DSATUR visit order plus the coloring produced along the way."""

    ordering: Ordering
    colors: np.ndarray  # 1-based colors


def sd_ordering(g: CSRGraph, seed: int | None = None,
                ctx: ExecutionContext | None = None) -> Ordering:
    """The SD vertex sequence (discards the coupled coloring)."""
    return dsatur(g, seed, ordering_context(ctx)).ordering


def dsatur(g: CSRGraph, seed: int | None = None,
           ctx: ExecutionContext | None = None) -> SaturationResult:
    """Run DSATUR; earlier-picked vertices receive higher ranks.

    Books on ``ctx`` itself (Greedy-SD's coloring step), else on a
    fresh context.
    """
    run = ctx if ctx is not None else ordering_context(None)
    n = g.n
    deg = g.degrees
    colors = np.zeros(n, dtype=np.int64)
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    heap: list[tuple[int, int, int]] = [(0, -int(deg[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []

    with run.phase("order:sd"):
        while heap:
            neg_sat, neg_deg, v = heapq.heappop(heap)
            if colors[v] != 0 or -neg_sat != len(neighbor_colors[v]):
                continue  # already colored or stale saturation
            order.append(v)
            forbidden = neighbor_colors[v]
            c = 1
            while c in forbidden:
                c += 1
            colors[v] = c
            for u in g.neighbors(v):
                if colors[u] == 0:
                    sat_set = neighbor_colors[u]
                    if c not in sat_set:
                        sat_set.add(c)
                        heapq.heappush(heap, (-len(sat_set), -int(deg[u]), int(u)))
        run.cost.round(2 * g.m + n, n)
        run.mem.stream(n)
        run.mem.gather(2 * g.m)

    ranks = np.empty(n, dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(n - 1, -1, -1)
    ordering = Ordering(name="SD", ranks=ranks, cost=run.cost, mem=run.mem)
    return SaturationResult(ordering=ordering, colors=colors)
