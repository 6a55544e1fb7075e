"""The O(1)-computable orderings: FF, R, LF, LLF (Table II rows 1, 2, 5, 6).

- FF (first-fit): the natural vertex order — vertex 0 colored first.
- R (random): a uniformly random total order.
- LF (largest-degree-first): priority = degree, random tie-break.
- LLF (largest-log-degree-first): priority = ceil(log2(degree)), random
  tie-break; the log-bucketing is what restores parallel depth bounds
  (Hasenplaugh et al.).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context, random_tiebreak, total_order


def ff_ordering(g: CSRGraph, seed: int | None = None,
                ctx: ExecutionContext | None = None) -> Ordering:
    """First-fit: rank n-1 for vertex 0, descending with vertex id."""
    run = ordering_context(ctx)
    with run.phase("order:ff"):
        run.cost.parallel_for(g.n)
        ranks = np.arange(g.n - 1, -1, -1, dtype=np.int64)
        run.mem.stream(g.n)
    return Ordering(name="FF", ranks=ranks, cost=run.cost, mem=run.mem)


def random_ordering(g: CSRGraph, seed: int | None = 0,
                    ctx: ExecutionContext | None = None) -> Ordering:
    """R: a uniformly random permutation of the vertices."""
    run = ordering_context(ctx)
    with run.phase("order:random"):
        run.cost.parallel_for(g.n)
        ranks = random_tiebreak(g.n, seed)
        run.mem.stream(g.n)
    return Ordering(name="R", ranks=ranks, cost=run.cost, mem=run.mem)


def lf_ordering(g: CSRGraph, seed: int | None = 0,
                ctx: ExecutionContext | None = None) -> Ordering:
    """LF: rho(v) = <deg(v), rho_R(v)> lexicographic, largest first."""
    run = ordering_context(ctx)
    deg = g.degrees
    with run.phase("order:lf"):
        run.cost.parallel_for(g.n)
        ranks = total_order(deg, random_tiebreak(g.n, seed))
        run.mem.stream(g.n)
    return Ordering(name="LF", ranks=ranks, levels=deg + 1,
                    num_levels=g.max_degree + 1, cost=run.cost, mem=run.mem)


def llf_ordering(g: CSRGraph, seed: int | None = 0,
                 ctx: ExecutionContext | None = None) -> Ordering:
    """LLF: rho(v) = <ceil(log2 deg(v)), rho_R(v)>, largest bucket first."""
    run = ordering_context(ctx)
    deg = g.degrees
    with run.phase("order:llf"):
        run.cost.parallel_for(g.n)
        buckets = np.zeros(g.n, dtype=np.int64)
        pos = deg > 0
        buckets[pos] = np.ceil(
            np.log2(np.maximum(deg[pos], 1) + 1)).astype(np.int64)
        ranks = total_order(buckets, random_tiebreak(g.n, seed))
        run.mem.stream(g.n)
    num_levels = int(buckets.max()) + 1 if g.n else 0
    return Ordering(name="LLF", ranks=ranks, levels=buckets + 1,
                    num_levels=num_levels, cost=run.cost, mem=run.mem)
