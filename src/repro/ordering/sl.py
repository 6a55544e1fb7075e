"""SL: smallest-degree-last — the exact degeneracy ordering (Matula-Beck).

Sequentially removes a minimum-degree vertex; the reverse removal order
is the degeneracy ordering, in which every vertex has at most d
higher-ranked neighbors, so JP-SL uses at most d+1 colors.  Depth is
Omega(n): this is the quality-optimal but parallelism-free baseline the
paper's ADG relaxes.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.properties import peel_degeneracy
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context


def sl_ordering(g: CSRGraph, seed: int | None = None,
                ctx: ExecutionContext | None = None) -> Ordering:
    """Exact degeneracy ordering; rank = removal position (last = highest)."""
    run = ordering_context(ctx)
    with run.phase("order:sl"):
        peel = peel_degeneracy(g)
        # Sequential peeling: each of the n steps touches the removed
        # vertex's remaining neighbors -> O(n + m) work, Omega(n) depth.
        run.cost.round(g.n + 2 * g.m, g.n)
        run.mem.stream(g.n)
        run.mem.gather(2 * g.m)
    ranks = np.empty(g.n, dtype=np.int64)
    ranks[peel.order] = np.arange(g.n, dtype=np.int64)
    # Levels: the removal position itself (a total order), 1-based.
    return Ordering(name="SL", ranks=ranks, levels=ranks + 1,
                    num_levels=g.n, cost=run.cost, mem=run.mem)
