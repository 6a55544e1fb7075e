"""JP: the Jones-Plassmann coloring engine (paper Alg. 3).

JP turns any total vertex order rho into a coloring DAG (edges point
from higher to lower priority) and colors a vertex once all of its
predecessors are colored, choosing the smallest free color.  The run
proceeds in *waves*: wave k colors exactly the vertices whose longest
predecessor path has length k, so the number of waves is 1 plus the
longest path of G_rho — the quantity the paper's depth analysis bounds
(Lemma 7 for rho = ADG).

One engine serves every runtime backend: each wave's GetColor is the
``jp.wave`` kernel (:mod:`repro.runtime.kernels`) chunked through
:meth:`ExecutionContext.map_chunks` with the frontier's vertex
*degrees* as chunk weights — a hub-heavy frontier splits into
work-balanced chunks instead of count-balanced ones.  Within a wave
every frontier vertex reads only *fixed* colors (its predecessors
finished in earlier waves), so frontier chunks are independent; on the
threaded backend NumPy releases the GIL inside the kernels, which read
the CSR arrays, ranks, and colors by reference.  The successor
notifications are combined in chunk order after the chunks return
(DecrementAndFetch on a shared array is not thread-safe).  Colors, waves, and the recorded work/depth/memory
totals are bit-identical across backends.

Combined with the ordering registry this yields JP-FF, JP-R, JP-LF,
JP-LLF, JP-SL, JP-SLL, JP-ASL, and the paper's JP-ADG / JP-ADG-M.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel, log2_ceil
from ..machine.memmodel import MemoryModel
from ..ordering.base import Ordering
from ..ordering.registry import get_ordering
from ..primitives.atomics import decrement_and_fetch
from ..runtime import ExecutionContext, Kernel, resolve_context
from .result import ColoringResult


def validate_ranks(g: CSRGraph, ranks: np.ndarray) -> np.ndarray:
    """Check that ``ranks`` is a total order over ``g``'s vertices."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size != g.n:
        raise ValueError("ranks length must equal n")
    if ranks.size and np.unique(ranks).size != ranks.size:
        # A rank collision between neighbors would let JP color them in
        # the same wave with the same mex result — an invalid coloring.
        raise ValueError("ranks must be distinct (a total order)")
    return ranks


def dag_pred_counts(g: CSRGraph, ranks: np.ndarray,
                    ctx: ExecutionContext) -> np.ndarray:
    """Part 1 of Alg. 3: per-vertex predecessor counts of the DAG G_rho."""
    with ctx.phase("jp:dag"):
        src, dst = g.edge_array()
        count = np.bincount(src[ranks[dst] > ranks[src]],
                            minlength=g.n).astype(np.int64)
        ctx.cost.round(g.n + 2 * g.m, log2_ceil(max(g.max_degree, 1)))
        ctx.mem.stream(g.n, "jp:dag")
        ctx.mem.gather(2 * g.m, "jp:dag")
    return count


def jp_color(g: CSRGraph, ranks: np.ndarray,
             cost: CostModel | None = None,
             mem: MemoryModel | None = None,
             pred_counts: np.ndarray | None = None,
             ctx: ExecutionContext | None = None,
             backend: str | None = None,
             workers: int | None = None,
             trace=None) -> tuple[np.ndarray, int]:
    """Color ``g`` under the total order ``ranks``; returns (colors, waves).

    ``pred_counts`` (per-vertex number of higher-ranked neighbors) lets
    the caller skip Part 1 of Alg. 3 — the fused JP-ADG of SS V-C, where
    ADG's UPDATE already produced the DAG in-degrees.

    Execution is governed by ``ctx`` (or a fresh context built from
    ``backend``/``workers``/``cost``/``mem``): both backends run this
    same engine and produce bit-identical colors and accounting.
    """
    ranks = validate_ranks(g, ranks)
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                cost=cost, mem=mem, trace=trace)
    try:
        cost, mem = ctx.cost, ctx.mem
        n = g.n
        colors = np.zeros(n, dtype=np.int64)
        if n == 0:
            return colors, 0

        if pred_counts is not None:
            count = np.asarray(pred_counts, dtype=np.int64).copy()
            if count.size != n:
                raise ValueError("pred_counts length must equal n")
        else:
            count = dag_pred_counts(g, ranks, ctx)

        frontier = np.flatnonzero(count == 0).astype(np.int64)
        waves = 0
        tracer = ctx.tracer
        indptr, indices = g.indptr, g.indices
        # Coordinator-side scratch: the wave-weight and successor-join
        # buffers are rebuilt every wave, so they reuse the context's
        # arena instead of allocating O(frontier) twice per wave.
        ws = ctx.scratch
        with ctx.phase("jp:color"):
            while frontier.size:
                waves += 1
                kern = Kernel("jp.wave",
                              arrays={"indptr": indptr, "indices": indices,
                                      "ranks": ranks, "colors": colors,
                                      "frontier": frontier})
                # Hub-heavy waves split by work, not count.
                wave_w = np.take(indptr[1:], frontier,
                                 out=ws.take("jp.wave_w", frontier.size,
                                             indptr.dtype))
                starts = np.take(indptr, frontier,
                                 out=ws.take("jp.wave_s", frontier.size,
                                             indptr.dtype))
                np.subtract(wave_w, starts, out=wave_w)
                results = ctx.map_chunks(kern, frontier.size, weights=wave_w)
                succs = []
                nbrs_total = 0
                wave_deg = 0
                for part, chunk_colors, succ, n_nbrs, chunk_deg in results:
                    colors[part] = chunk_colors
                    succs.append(succ)
                    nbrs_total += n_nbrs
                    wave_deg = max(wave_deg, chunk_deg)
                mem.gather(nbrs_total, "jp:color")
                cost.round(nbrs_total + frontier.size,
                           log2_ceil(max(wave_deg, 1)) + 1)
                if tracer.enabled:
                    tracer.gauge("jp.frontier", int(frontier.size),
                                 round=waves)
                    tracer.count("jp.colored", int(frontier.size),
                                 round=waves)
                    tracer.gauge("jp.wave_degree", int(wave_deg),
                                 round=waves)
                # Join: notify successors, release the ones that hit zero.
                total = sum(s.size for s in succs)
                succ = ws.take("jp.succ", total)
                if total:
                    np.concatenate(succs, out=succ)
                frontier = decrement_and_fetch(count, succ, cost=cost)
    finally:
        if owns:
            ctx.close()
    if np.any(colors == 0):
        raise RuntimeError("JP left vertices uncolored; ranks not a total order?")
    return colors, waves


def jp(g: CSRGraph, ordering: Ordering, use_fused_ranks: bool = True,
       ctx: ExecutionContext | None = None,
       backend: str | None = None,
       workers: int | None = None,
       trace=None) -> ColoringResult:
    """Run JP under a precomputed ordering.

    When the ordering carries fused predecessor counts (ADG-O with
    ``compute_ranks=True``) they are used automatically, skipping JP's
    DAG-construction part; pass ``use_fused_ranks=False`` to disable.
    """
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        pred = ordering.pred_counts if use_fused_ranks else None
        t0 = time.perf_counter()
        colors, waves = jp_color(g, ordering.ranks, ctx=ctx,
                                 pred_counts=pred)
        wall = time.perf_counter() - t0
        out = ColoringResult(algorithm=f"JP-{ordering.name}", colors=colors,
                             cost=ctx.cost, mem=ctx.mem,
                             reorder_cost=ordering.cost,
                             reorder_mem=ordering.mem, rounds=waves,
                             wall_seconds=wall, backend=ctx.backend,
                             workers=ctx.workers,
                             phase_walls=dict(ctx.wall_by_phase),
                             trace_summary=ctx.trace_summary(),
                             faults=ctx.fault_record(),
                             dispatch=ctx.dispatch_record(),
                             resources=ctx.resource_record())
        if owns:
            ctx.ledger_record(out, graph=g)
        return out
    finally:
        if owns:
            ctx.close()


def jp_by_name(g: CSRGraph, ordering_name: str, seed: int | None = 0,
               ctx: ExecutionContext | None = None,
               backend: str | None = None, workers: int | None = None,
               trace=None, **ordering_kwargs) -> ColoringResult:
    """JP-X for any ordering name in the registry (e.g. 'ADG', 'LLF')."""
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        t0 = time.perf_counter()
        ordering = get_ordering(ordering_name, g, seed=seed, ctx=ctx,
                                **ordering_kwargs)
        reorder_wall = time.perf_counter() - t0
        out = jp(g, ordering, ctx=ctx)
        out.reorder_wall_seconds = reorder_wall
        if owns:
            ctx.ledger_record(out, graph=g,
                              eps=ordering_kwargs.get("eps"))
        return out
    finally:
        if owns:
            ctx.close()


def jp_adg(g: CSRGraph, eps: float = 0.01, seed: int | None = 0,
           **kwargs) -> ColoringResult:
    """JP-ADG: the paper's contribution #2 (<= 2(1+eps)d + 1 colors)."""
    return jp_by_name(g, "ADG", seed=seed, eps=eps, **kwargs)


def jp_adg_m(g: CSRGraph, seed: int | None = 0, **kwargs) -> ColoringResult:
    """JP-ADG-M: the median-degree variant (<= 4d + 1 colors)."""
    return jp_by_name(g, "ADG-M", seed=seed, **kwargs)


def jp_adg_fused(g: CSRGraph, eps: float = 0.01, seed: int | None = 0,
                 ctx: ExecutionContext | None = None,
                 backend: str | None = None, workers: int | None = None,
                 trace=None, **adg_kwargs) -> ColoringResult:
    """JP-ADG-O with the SS V-C fusion: ADG sorts its batches into an
    explicit total order and emits the DAG predecessor counts from its
    own UPDATE, so JP starts coloring without a DAG-construction pass."""
    from ..ordering.adg import adg_ordering

    adg_kwargs.setdefault("sort_batches", True)
    adg_kwargs.setdefault("compute_ranks", True)
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        t0 = time.perf_counter()
        ordering = adg_ordering(g, eps=eps, seed=seed, ctx=ctx, **adg_kwargs)
        reorder_wall = time.perf_counter() - t0
        out = jp(g, ordering, ctx=ctx)
        out.reorder_wall_seconds = reorder_wall
        if owns:
            ctx.ledger_record(out, graph=g, eps=eps)
        return out
    finally:
        if owns:
            ctx.close()


def longest_dag_path(g: CSRGraph, ranks: np.ndarray) -> int:
    """Length (in edges) of the longest path in G_rho.

    Equals waves - 1 of :func:`jp_color`; exposed separately because the
    depth analysis (Lemma 7) is stated in terms of this quantity.
    """
    _, waves = jp_color(g, ranks)
    return max(0, waves - 1)
