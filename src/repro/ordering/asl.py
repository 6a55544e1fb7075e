"""ASL: approximate smallest-degree-last (Patwary, Gebremedhin, Pothen).

Batched relaxation of SL without a provable approximation factor
(Table II): each round removes *every* vertex currently at the minimum
remaining degree, instead of one at a time.  Cheap and parallel, but the
batch can cascade degrees far above the degeneracy, which is why the
paper's ADG (threshold tied to the average degree) is needed for bounds.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context, random_tiebreak, total_order


def asl_ordering(g: CSRGraph, seed: int | None = 0, slack: int = 0,
                 ctx: ExecutionContext | None = None) -> Ordering:
    """Rounds removing all vertices with degree <= (current min) + slack."""
    run = ordering_context(ctx)
    cost, mem = run.cost, run.mem
    n = g.n
    deg = g.degrees.copy()
    active = np.ones(n, dtype=bool)
    level = np.zeros(n, dtype=np.int64)
    round_no = 0

    with run.phase("order:asl"):
        remaining = n
        while remaining:
            round_no += 1
            live_deg = deg[active]
            cost.reduce(remaining)
            mem.stream(remaining, "order:asl")
            cutoff = int(live_deg.min()) + slack
            removable = active & (deg <= cutoff)
            cost.parallel_for(remaining)
            batch = np.flatnonzero(removable).astype(np.int64)
            level[batch] = round_no
            active[batch] = False
            remaining -= batch.size
            seg, nbrs = g.batch_neighbors(batch)
            live = nbrs[active[nbrs]]
            cost.scatter_decrement(live.size)
            mem.gather(nbrs.size, "order:asl")
            if live.size:
                np.subtract.at(deg, live, 1)
        ranks = total_order(level, random_tiebreak(n, seed))
    return Ordering(name="ASL", ranks=ranks, levels=level,
                    num_levels=round_no, cost=cost, mem=mem)
