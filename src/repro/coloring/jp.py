"""JP: the Jones-Plassmann coloring engine (paper Alg. 3).

JP turns any total vertex order rho into a coloring DAG (edges point
from higher to lower priority) and colors a vertex once all of its
predecessors are colored, choosing the smallest free color.  Every
vertex therefore takes the mex of its higher-ranked neighbors' colors,
which is exactly what sequential greedy assigns in descending rho — so
this engine runs JP as one sweep in that order
(:func:`repro.coloring.sweep.rank_sweep`, compiled when a C compiler
is available, pure Python otherwise).

The parallel schedule stays visible in the books.  Alg. 3 proceeds in
*waves*: wave k colors exactly the vertices whose longest predecessor
path has length k - 1, so the number of waves is 1 plus the longest
path of G_rho — the quantity the paper's depth analysis bounds (Lemma 7
for rho = ADG).  The sweep computes each vertex's wave alongside its
color, with per-wave frontier sizes, degree sums and notification
collisions, and :func:`jp_color` replays one GetColor round and one
DecrementAndFetch scatter per wave into the cost and memory books and
the ``jp.*`` tracer series.  Colors, waves, work, depth, the round log
and the memory books are the ones the wave-by-wave engine records, on
every backend.

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
from ..runtime import ExecutionContext, resolve_context
from .result import ColoringResult
from .sweep import rank_sweep


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
        _book_dag(g, ctx)
    return count


def _book_dag(g: CSRGraph, ctx: ExecutionContext) -> None:
    """Part 1's books: one round over every vertex and edge."""
    ctx.cost.round(g.n + 2 * g.m, log2_ceil(max(g.max_degree, 1)))
    ctx.mem.stream(g.n, "jp:dag")
    ctx.mem.gather(2 * g.m, "jp:dag")


def jp_color(g: CSRGraph, ranks: np.ndarray,
             cost: CostModel | None = None,
             mem: MemoryModel | None = None,
             pred_counts: np.ndarray | None = None,
             ctx: ExecutionContext | None = None,
             backend: str | None = None,
             workers: int | None = None,
             trace=None) -> tuple[np.ndarray, int]:
    """Color ``g`` under the total order ``ranks``; returns (colors, waves).

    ``pred_counts`` (per-vertex number of higher-ranked neighbors) says
    Part 1 of Alg. 3 already ran — the fused JP-ADG of SS V-C, where
    ADG's UPDATE produced the DAG in-degrees — so its round is not
    booked again.

    The sweep runs on the calling thread on every backend; ``ctx`` (or
    a fresh context built from ``backend``/``workers``/``cost``/``mem``)
    supplies the books, phase walls and tracer.
    """
    ranks = validate_ranks(g, ranks)
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                cost=cost, mem=mem, trace=trace)
    try:
        cost, mem = ctx.cost, ctx.mem
        if g.n == 0:
            return np.zeros(0, dtype=np.int64), 0
        if pred_counts is not None:
            if np.asarray(pred_counts).size != g.n:
                raise ValueError("pred_counts length must equal n")
        else:
            # The sweep finds each vertex's predecessors itself; Part 1
            # is booked as the paper's algorithm runs it.
            with ctx.phase("jp:dag"):
                _book_dag(g, ctx)

        tracer = ctx.tracer
        with ctx.phase("jp:color"):
            sweep = rank_sweep(g.indptr, g.indices, ranks)
            colors = sweep.colors
            # Book every wave exactly as Alg. 3 runs it: the GetColor
            # gather over the frontier's neighborhoods, then the
            # DecrementAndFetch notifications to its successors.
            books = zip(sweep.frontier.tolist(), sweep.neighbors.tolist(),
                        sweep.successors.tolist(), sweep.max_degree.tolist(),
                        sweep.collisions.tolist())
            for wave, (front, nbrs, succ, wdeg, coll) in enumerate(books, 1):
                mem.gather(nbrs, "jp:color")
                cost.round(nbrs + front, log2_ceil(max(wdeg, 1)) + 1)
                if tracer.enabled:
                    tracer.gauge("jp.frontier", front, round=wave)
                    tracer.count("jp.colored", front, round=wave)
                    tracer.gauge("jp.wave_degree", wdeg, round=wave)
                cost.scatter_decrement(succ, coll)
            waves = sweep.waves
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
