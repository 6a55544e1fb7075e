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
degree-count and bitmap gather, and every SIM-COL trial, run as rounds
of the execution context — the same round seam as ADG.

The level loop itself is exposed as :func:`color_partitions`, the
interior that :class:`~repro.coloring.incremental.IncrementalColoring`
re-runs for a full recompute over levels it keeps across deltas.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..primitives.kernels import ScratchArena, batch_neighbors
from ..runtime import ExecutionContext, resolve_context
from .result import ColoringResult
from .simcol import sim_col


def _constraints(lo: int, hi: int, indptr: np.ndarray, indices: np.ndarray,
                 verts: np.ndarray, levels: np.ndarray, level: int,
                 colors: np.ndarray, ws: ScratchArena):
    """Per-partition gather: deg_l counts and higher-partition colors."""
    part = verts[lo:hi]
    seg, nbrs = batch_neighbors(indptr, indices, part, ws)
    k = nbrs.size
    lv = np.take(levels, nbrs, out=ws.take("dec.lv", k, levels.dtype))
    ge = np.greater_equal(lv, level, out=ws.take("dec.ge", k, bool))
    cg = np.bincount(np.compress(ge, seg), minlength=part.size)  # fresh
    higher = np.greater(lv, level, out=ws.take("dec.hi", k, bool))
    kept = int(np.count_nonzero(higher))
    owners = np.compress(higher, seg)  # fresh
    owners += lo
    nb_h = np.compress(higher, nbrs, out=ws.take("dec.nbh", kept))
    return cg, owners, np.take(colors, nb_h), k


def partition_constraints(indptr: np.ndarray, indices: np.ndarray,
                          max_degree: int, verts: np.ndarray,
                          levels: np.ndarray, level: int, colors: np.ndarray,
                          ctx: ExecutionContext, phase: str,
                          inline: bool = False) -> tuple[np.ndarray,
                                                         np.ndarray,
                                                         np.ndarray]:
    """Per-partition gather: deg_l counts and taken colors.

    Returns ``(counts_ge, taken, owners)`` where ``counts_ge[i]`` is the
    number of neighbors of ``verts[i]`` in this or higher partitions,
    and ``(owners, taken)`` lists the (local vertex, color) pairs taken
    by strictly-higher-partition neighbors (color 0 entries included;
    the caller filters by its bitmap width).  ``inline`` runs the gather
    as a plain call instead of a round of ``ctx`` (no round id, no
    traced round event).
    """
    def gather(lo, hi):
        return _constraints(lo, hi, indptr, indices, verts, levels,
                            int(level), colors, ctx.scratch)

    counts_ge, owners, taken, nbrs_total = gather(0, verts.size) if inline \
        else ctx.map_chunks(gather, verts.size)
    ctx.cost.round(nbrs_total + verts.size, log2_ceil(max(max_degree, 1)))
    ctx.mem.gather(nbrs_total, phase)
    return counts_ge, taken, owners


def partitions_from_levels(levels: np.ndarray,
                           num_levels: int) -> list[np.ndarray]:
    """Vertex arrays R(1), ..., R(num_levels) grouped by level id.

    The raw-array twin of
    :meth:`~repro.ordering.base.Ordering.level_partitions`, for callers
    that carry a level array instead of a full
    :class:`~repro.ordering.base.Ordering`.  Level ids absent from
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

    ``levels`` are ``g``'s ADG level ids; deg_l and the bitmaps are
    upper-bounded by the Lemma-4 guarantee, which gives the (2+eps)d
    quality bound.  Returns ``(colors, rounds)``.
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
            trace=None) -> ColoringResult:
    """Run DEC-ADG (or DEC-ADG-M with ``variant='median'``).

    ``update='pull'`` uses the CREW ADG (Alg. 2) for the decomposition,
    making the whole pipeline concurrent-read-only at the O(m + nd)
    work premium (paper SS IV-D).
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
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
