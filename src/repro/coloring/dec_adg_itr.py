"""DEC-ADG-ITR: ADG decomposition driving the ITR speculative scheme.

The paper's contribution #4 (SS IV-C): keep DEC-ADG's low-degree
decomposition and bitmaps, but replace SIM-COL's random color draw with
ITR's choice of the *smallest* color not forbidden by B_v.  Conflicts
between same-round neighbors are resolved by a random priority; because
every vertex has at most k*d = 2(1+eps)*d constraining neighbors, the
smallest free color never exceeds k*d + 1, giving the 2(1+eps)d + 1
quality bound with ITR's practical speed.

As in DEC-ADG the level loop is sequential, and the per-round trial
coloring / conflict detection inside each partition is chunked through
the execution context; colors and accounting are bit-identical across
backends (the scheme is deterministic given the priority permutation).

The level loop is exposed as :func:`itr_color_partitions`, mirroring
:func:`repro.coloring.dec_adg.color_partitions`:
:class:`~repro.coloring.incremental.IncrementalColoring` re-runs it for
a full recompute.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..ordering.base import random_tiebreak
from ..runtime import ExecutionContext, Kernel, resolve_context
from .dec_adg import partition_constraints, partitions_from_levels
from .result import ColoringResult


def _itr_partition(part: CSRGraph, forbidden: np.ndarray,
                   priority: np.ndarray, ctx: ExecutionContext,
                   max_rounds: int | None) -> tuple[np.ndarray, int, int]:
    """ITR rounds within one partition, colors constrained by ``forbidden``."""
    cost, mem = ctx.cost, ctx.mem
    n = part.n
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors, 0, 0
    active = np.arange(n, dtype=np.int64)
    rounds = 0
    conflicts = 0
    tracer = ctx.tracer
    limit = max_rounds if max_rounds is not None else 4 * n + 64
    width = forbidden.shape[1]
    indptr, indices = part.indptr, part.indices
    still = np.zeros(n, dtype=bool)

    while active.size:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("DEC-ADG-ITR failed to converge")

        # Smallest color not forbidden for each active vertex: the first
        # False in its bitmap row (column 0 is the unused color 0).
        kern = Kernel("itr.choose",
                      arrays={"active": active, "forbidden": forbidden})
        chosen = ctx.map_chunks(kern, active.size)
        colors[active] = np.concatenate(chosen) if chosen else \
            np.empty(0, dtype=np.int64)
        cost.round(active.size * width, log2_ceil(max(width, 1)))
        mem.stream(active.size * width, "dec-itr")

        # Conflict detection among same-round neighbors.
        still[:] = False
        still[active] = True
        kern = Kernel("itr.conflict",
                      arrays={"active": active, "colors": colors,
                              "still": still, "priority": priority,
                              "indptr": indptr, "indices": indices})
        ws = ctx.scratch
        conf_w = np.take(indptr[1:], active,
                         out=ws.take("itr.w", active.size, indptr.dtype))
        w_lo = np.take(indptr, active,
                       out=ws.take("itr.wlo", active.size, indptr.dtype))
        np.subtract(conf_w, w_lo, out=conf_w)
        results = ctx.map_chunks(kern, active.size, weights=conf_w)
        lost = ws.take("itr.lost", active.size, bool)
        if results:
            np.concatenate([r[0] for r in results], out=lost)
        nbrs_total = sum(r[2].size for r in results)
        md = max((r[3] for r in results), default=0)
        cost.round(nbrs_total + active.size, log2_ceil(max(md, 1)) + 1)
        mem.gather(nbrs_total, "dec-itr")
        losers = active[lost]
        colors[losers] = 0
        conflicts += losers.size
        if tracer.enabled:
            tracer.gauge("dec-itr.active", int(active.size), round=rounds)
            tracer.count("dec-itr.conflicts", int(losers.size), round=rounds)
            tracer.count("dec-itr.colored",
                         int(active.size) - int(losers.size), round=rounds)

        # Record newly committed colors in active neighbors' bitmaps —
        # after the losers are reset, so only kept colors are forbidden.
        offset = 0
        committed_total = 0
        for chunk_lost, seg, nbrs, _ in results:
            mine = active[offset:offset + chunk_lost.size]
            committed_nbr = (colors[nbrs] > 0) & still[nbrs]
            forbidden[mine[seg[committed_nbr]],
                      colors[nbrs[committed_nbr]]] = True
            committed_total += int(committed_nbr.sum())
            offset += chunk_lost.size
        cost.scatter_decrement(committed_total)
        active = losers
    return colors, rounds, conflicts


def itr_color_partitions(g: CSRGraph, levels: np.ndarray, num_levels: int,
                         priority: np.ndarray, ctx: ExecutionContext,
                         max_rounds: int | None = None
                         ) -> tuple[np.ndarray, int, int]:
    """The DEC-ADG-ITR interior: ITR over the level partitions, top down.

    ``levels`` and ``priority`` are ``g``'s ADG level ids and tiebreak
    permutation; the smallest-free color stays bounded by deg_l + 1,
    which gives the 2(1+eps)d + 1 quality bound.  Returns
    ``(colors, rounds, conflicts)``.
    """
    cost = ctx.cost
    n = g.n
    tracer = ctx.tracer
    colors = np.zeros(n, dtype=np.int64)
    partitions = partitions_from_levels(levels, num_levels)
    rounds_total = 0
    conflicts_total = 0

    with ctx.phase("dec-itr:color"):
        for level in range(num_levels, 0, -1):
            verts = partitions[level - 1]
            if verts.size == 0:
                continue
            sub = induced_subgraph(g, verts)

            # deg_l(v) bounds the bitmap width: mex never exceeds
            # degl + 1.
            counts_ge, taken, owners = partition_constraints(
                g.indptr, g.indices, g.max_degree, verts, levels, level,
                colors, ctx, "dec-itr")
            width = int(counts_ge.max(initial=0)) + 3

            forbidden = np.zeros((verts.size, width), dtype=bool)
            keep = (taken > 0) & (taken < width)
            forbidden[owners[keep], taken[keep]] = True
            cost.scatter_decrement(int(keep.sum()))
            if tracer.enabled:
                tracer.gauge("dec-itr.partition", int(verts.size),
                             round=level)
                tracer.gauge("dec-itr.palette", int(width), round=level)

            local_colors, rounds, conflicts = _itr_partition(
                sub.graph, forbidden, priority[verts], ctx, max_rounds)
            colors[verts] = local_colors
            rounds_total += rounds
            conflicts_total += conflicts
    return colors, rounds_total, conflicts_total


def dec_adg_itr(g: CSRGraph, eps: float = 0.01, seed: int | None = 0,
                variant: str = "avg", max_rounds: int | None = None,
                ctx: ExecutionContext | None = None,
                backend: str | None = None,
                workers: int | None = None,
                trace=None) -> ColoringResult:
    """Run DEC-ADG-ITR (quality <= 2(1+eps)d + 1)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        t0 = time.perf_counter()
        ordering = adg_ordering(g, eps=eps, variant=variant, seed=seed,
                                ctx=ctx)
        reorder_wall = time.perf_counter() - t0
        assert ordering.levels is not None

        priority_global = random_tiebreak(g.n, seed)
        t0 = time.perf_counter()
        colors, rounds_total, conflicts_total = itr_color_partitions(
            g, ordering.levels, ordering.num_levels, priority_global, ctx,
            max_rounds=max_rounds)
        wall = time.perf_counter() - t0

        name = "DEC-ADG-ITR" if variant == "avg" else "DEC-ADG-ITR-M"
        out = ColoringResult(algorithm=name, colors=colors, cost=ctx.cost,
                             mem=ctx.mem, reorder_cost=ordering.cost,
                             reorder_mem=ordering.mem, rounds=rounds_total,
                             conflicts_resolved=conflicts_total,
                             wall_seconds=wall,
                             reorder_wall_seconds=reorder_wall,
                             backend=ctx.backend, workers=ctx.workers,
                             phase_walls=dict(ctx.wall_by_phase),
                             trace_summary=ctx.trace_summary(),
                             faults=ctx.fault_record(),
                             dispatch=ctx.dispatch_record(),
                             resources=ctx.resource_record())
        if owns:
            ctx.ledger_record(out, graph=g, eps=eps)
        return out
    finally:
        if owns:
            ctx.close()
