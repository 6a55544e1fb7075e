"""SLL: smallest-log-degree-last (Hasenplaugh et al.).

Rounds with a doubling degree threshold: round r removes every active
vertex whose remaining degree is at most 2^r.  Vertices removed in later
rounds get higher priority (colored earlier), approximating SL while
keeping O(log Delta log n) depth.  Unlike ADG, SLL's thresholds ignore
the average degree, so it carries no provable approximation factor on
the degeneracy order (Table II).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context, random_tiebreak, total_order


def sll_ordering(g: CSRGraph, seed: int | None = 0,
                 ctx: ExecutionContext | None = None) -> Ordering:
    """Batched peeling with threshold 2^r per round r."""
    run = ordering_context(ctx)
    cost, mem = run.cost, run.mem
    n = g.n
    deg = g.degrees.copy()
    active = np.ones(n, dtype=bool)
    level = np.zeros(n, dtype=np.int64)
    round_no = 0
    threshold = 1

    with run.phase("order:sll"):
        remaining = n
        while remaining:
            round_no += 1
            removable = active & (deg <= threshold)
            cost.parallel_for(remaining)
            mem.stream(remaining, "order:sll")
            batch = np.flatnonzero(removable).astype(np.int64)
            if batch.size == 0:
                # Nothing qualifies at this threshold: advance to the next
                # log-degree bucket (cascades stay at the same threshold).
                threshold *= 2
                round_no -= 1
                continue
            level[batch] = round_no
            active[batch] = False
            remaining -= batch.size
            seg, nbrs = g.batch_neighbors(batch)
            live = nbrs[active[nbrs]]
            cost.scatter_decrement(live.size)
            mem.gather(nbrs.size, "order:sll")
            if live.size:
                np.subtract.at(deg, live, 1)
        # Later removal round = higher priority; random tie-break
        # within rounds.
        ranks = total_order(level, random_tiebreak(n, seed))
    return Ordering(name="SLL", ranks=ranks, levels=level,
                    num_levels=round_no, cost=cost, mem=mem)
