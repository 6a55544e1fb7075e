"""DEC-ADG: decomposition-based speculative coloring (paper Alg. 4).

ADG splits the graph into rho = O(log n) low-degree partitions (the
vertices sharing one ADG level); by Lemma 4 every vertex has at most
k*d = 2(1+eps/12)*d neighbors in its own or higher partitions.
Partitions are colored from the highest level down with SIM-COL
(mu = eps/4), while per-vertex bitmaps carry the colors already taken
by higher-partition neighbors.  Quality: (2 + eps) d colors for
0 < eps <= 8 (Claim 2); runtime bounds hold for 4 < eps (mu > 1).

Partitions depend on each other (lower levels read higher levels'
colors), so the level loop is sequential; *within* a level the
degree-count and bitmap gathers, and every SIM-COL round, are chunked
through the execution context — the same map_chunks seam as JP and ADG.

The level loop itself is exposed as :func:`color_partitions` — the
*interior* entry point of the sharding layer: a shard worker runs
exactly this loop on its induced subgraph (with the global level ids
restricted to the shard), and the cross-shard boundary is repaired
afterwards (:mod:`repro.coloring.sharded`).  With ``shards`` (argument
or ``$REPRO_SHARDS``) > 1 the public entry point routes through that
sharded driver.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..runtime import ExecutionContext, Kernel, resolve_context
from .result import ColoringResult
from .simcol import sim_col


def partition_constraints(indptr: np.ndarray, indices: np.ndarray,
                          max_degree: int, verts: np.ndarray,
                          levels: np.ndarray, level: int, colors: np.ndarray,
                          ctx: ExecutionContext,
                          phase: str) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Per-partition gather, chunked: deg_l counts and taken colors.

    Returns ``(counts_ge, taken, owners)`` where ``counts_ge[i]`` is the
    number of neighbors of ``verts[i]`` in this or higher partitions,
    and ``(owners, taken)`` lists the (local vertex, color) pairs taken
    by strictly-higher-partition neighbors (color 0 entries included;
    the caller filters by its bitmap width).
    """
    kern = Kernel("dec.constraints",
                  arrays={"verts": verts, "levels": levels,
                          "indptr": indptr, "indices": indices,
                          "colors": colors},
                  scalars={"level": int(level)})
    ws = ctx.scratch
    w = np.take(indptr[1:], verts,
                out=ws.take("dec.w", verts.size, indptr.dtype))
    w_lo = np.take(indptr, verts,
                   out=ws.take("dec.wlo", verts.size, indptr.dtype))
    np.subtract(w, w_lo, out=w)
    results = ctx.map_chunks(kern, verts.size, weights=w)
    counts_ge = np.concatenate([r[0] for r in results]) if results else \
        np.empty(0, dtype=np.int64)
    owners = np.concatenate([r[1] for r in results]) if results else \
        np.empty(0, dtype=np.int64)
    taken = np.concatenate([r[2] for r in results]) if results else \
        np.empty(0, dtype=np.int64)
    nbrs_total = sum(r[3] for r in results)
    ctx.cost.round(nbrs_total + verts.size, log2_ceil(max(max_degree, 1)))
    ctx.mem.gather(nbrs_total, phase)
    return counts_ge, taken, owners


def partitions_from_levels(levels: np.ndarray,
                           num_levels: int) -> list[np.ndarray]:
    """Vertex arrays R(1), ..., R(num_levels) grouped by level id.

    The raw-array twin of
    :meth:`~repro.ordering.base.Ordering.level_partitions`, for callers
    (shard workers) that carry a restricted level array instead of a
    full :class:`~repro.ordering.base.Ordering`.  Level ids absent from
    ``levels`` simply yield empty partitions.
    """
    order = np.argsort(levels, kind="stable")
    lv = levels[order]
    out: list[np.ndarray] = []
    for level in range(1, num_levels + 1):
        lo = np.searchsorted(lv, level, side="left")
        hi = np.searchsorted(lv, level, side="right")
        out.append(order[lo:hi].astype(np.int64))
    return out


def color_partitions(g: CSRGraph, levels: np.ndarray, num_levels: int,
                     mu: float, rng: np.random.Generator,
                     ctx: ExecutionContext,
                     max_rounds: int | None = None
                     ) -> tuple[np.ndarray, int]:
    """The DEC-ADG interior: SIM-COL over the level partitions, top down.

    ``g`` is the whole graph in an unsharded run, or one shard's
    induced subgraph with ``levels`` restricted to the shard — level
    ids keep their run-global meaning, so deg_l and the bitmaps stay
    upper-bounded by the global Lemma-4 guarantee and the (2+eps)d
    quality bound survives sharding.  Returns ``(colors, rounds)``.
    """
    n = g.n
    tracer = ctx.tracer
    cost, mem = ctx.cost, ctx.mem
    colors = np.zeros(n, dtype=np.int64)
    partitions = partitions_from_levels(levels, num_levels)
    rounds_total = 0

    with ctx.phase("dec:color"):
        for level in range(num_levels, 0, -1):
            verts = partitions[level - 1]
            if verts.size == 0:
                continue
            sub = induced_subgraph(g, verts)

            # deg_l(v) and the B_v bitmaps: colors taken by
            # higher-partition neighbors.
            counts_ge, taken, owners = partition_constraints(
                g.indptr, g.indices, g.max_degree, verts, levels, level,
                colors, ctx, "dec:color")
            width = int(np.ceil(
                (1.0 + mu) * max(1, int(counts_ge.max())))) + 2
            forbidden = np.zeros((verts.size, width), dtype=bool)
            # Colors at or above the bitmap width can never be drawn
            # by a vertex of this partition (its range is capped
            # below width), so they are irrelevant and safely dropped.
            keep = (taken > 0) & (taken < width)
            forbidden[owners[keep], taken[keep]] = True
            cost.scatter_decrement(int(keep.sum()))
            mem.gather(int(keep.sum()), "dec:color")

            if tracer.enabled:
                tracer.gauge("dec.partition", int(verts.size),
                             round=level)
                tracer.gauge("dec.palette", int(width), round=level)
                tracer.count("dec.colored", int(verts.size),
                             round=level)
            local_colors, rounds = sim_col(sub.graph, counts_ge, forbidden,
                                           mu, rng, ctx=ctx,
                                           max_rounds=max_rounds)
            colors[verts] = local_colors
            rounds_total += rounds
    return colors, rounds_total


def dec_adg(g: CSRGraph, eps: float = 6.0, seed: int | None = 0,
            variant: str = "avg", update: str = "push",
            max_rounds: int | None = None,
            ctx: ExecutionContext | None = None,
            backend: str | None = None,
            workers: int | None = None,
            trace=None,
            shards: int | None = None) -> ColoringResult:
    """Run DEC-ADG (or DEC-ADG-M with ``variant='median'``).

    ``update='pull'`` uses the CREW ADG (Alg. 2) for the decomposition,
    making the whole pipeline concurrent-read-only at the O(m + nd)
    work premium (paper SS IV-D).

    ``shards`` > 1 (argument, context, or ``$REPRO_SHARDS``) executes
    through the sharding layer: one engine per shard subgraph plus the
    boundary-repair protocol
    (:func:`repro.coloring.sharded.sharded_color`) — same validity,
    same (2+eps)d bound.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace, shards=shards)
    try:
        n_shards = shards if shards is not None else ctx.shards
        if n_shards > 1:
            from .sharded import sharded_color
            name = "DEC-ADG" if variant == "avg" else "DEC-ADG-M"
            out = sharded_color(g, algorithm=name, eps=eps, seed=seed,
                                ctx=ctx, n_shards=n_shards,
                                variant=variant, update=update,
                                max_rounds=max_rounds)
            if owns:
                ctx.ledger_record(out, graph=g, eps=eps)
            return out
        rng = np.random.default_rng(seed)
        mu = eps / 4.0

        t0 = time.perf_counter()
        ordering = adg_ordering(g, eps=eps / 12.0, variant=variant,
                                update=update, seed=seed, ctx=ctx)
        reorder_wall = time.perf_counter() - t0
        assert ordering.levels is not None

        t0 = time.perf_counter()
        colors, rounds_total = color_partitions(
            g, ordering.levels, ordering.num_levels, mu, rng, ctx,
            max_rounds=max_rounds)
        wall = time.perf_counter() - t0

        name = "DEC-ADG" if variant == "avg" else "DEC-ADG-M"
        out = ColoringResult(algorithm=name, colors=colors, cost=ctx.cost,
                             mem=ctx.mem, reorder_cost=ordering.cost,
                             reorder_mem=ordering.mem, rounds=rounds_total,
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


def dec_adg_m(g: CSRGraph, eps: float = 6.0, seed: int | None = 0,
              max_rounds: int | None = None, **kwargs) -> ColoringResult:
    """DEC-ADG-M: the median-threshold variant ((4+eps)d quality)."""
    return dec_adg(g, eps=eps, seed=seed, variant="median",
                   max_rounds=max_rounds, **kwargs)
