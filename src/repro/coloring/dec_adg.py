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
degree-count and bitmap gather, and every SIM-COL trial, are one plain
call each, booked as one round of work and depth — as in ADG.

The level loop itself is exposed as :func:`color_partitions`, the
interior that :class:`~repro.coloring.incremental.IncrementalColoring`
re-runs for a full recompute over levels it keeps across deltas.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..primitives.kernels import batch_neighbors
from ..runtime import ExecutionContext
from .driver import drive
from .result import ColoringResult
from .simcol import sim_col

#: DEC-ADG's default ε: (2+ε)d colors, with the runtime bounds of
#: 4 < ε (mu = ε/4 > 1).
DEC_ADG_EPS = 6.0


def _constraints(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray,
                 levels: np.ndarray, level: int, colors: np.ndarray):
    """Per-partition gather: ``(counts_ge, owners, taken, gathered)``.

    ``counts_ge[i]`` is deg_l of ``verts[i]`` (its neighbors in this or
    higher partitions), ``(owners, taken)`` the (local vertex, color)
    pairs taken by strictly-higher-partition neighbors, and
    ``gathered`` the number of neighbors read.
    """
    seg, nbrs = batch_neighbors(indptr, indices, verts)
    lv = levels[nbrs]
    cg = np.bincount(seg[lv >= level], minlength=verts.size)
    higher = lv > level
    return cg, seg[higher], colors[nbrs[higher]], nbrs.size


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
            counts_ge, owners, taken, nbrs_total = _constraints(
                g.indptr, g.indices, verts, levels, level, colors)
            cost.round(nbrs_total + verts.size,
                       log2_ceil(max(g.max_degree, 1)))
            mem.gather(nbrs_total)
            width = int(np.ceil(
                (1.0 + mu) * max(1, int(counts_ge.max())))) + 2
            forbidden = np.zeros((verts.size, width), dtype=bool)
            # Colors at or above the bitmap width can never be drawn
            # by a vertex of this partition (its range is capped
            # below width), so they are irrelevant and safely dropped.
            keep = (taken > 0) & (taken < width)
            forbidden[owners[keep], taken[keep]] = True
            cost.scatter_decrement(int(keep.sum()))
            mem.gather(int(keep.sum()))

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


def dec_adg(g: CSRGraph, eps: float = DEC_ADG_EPS, seed: int | None = 0,
            variant: str = "avg", update: str = "push",
            max_rounds: int | None = None, **run) -> ColoringResult:
    """Run DEC-ADG (or DEC-ADG-M with ``variant='median'``).

    ``update='pull'`` uses the CREW ADG (Alg. 2) for the decomposition,
    making the whole pipeline concurrent-read-only at the O(m + nd)
    work premium (paper SS IV-D).  ``run`` as for
    :func:`~repro.coloring.driver.drive`.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return drive(
        g, "DEC-ADG" if variant == "avg" else "DEC-ADG-M",
        lambda g, o, ctx: (*color_partitions(
            g, o.levels, o.num_levels, eps / 4.0,
            np.random.default_rng(seed), ctx, max_rounds=max_rounds), 0),
        order=lambda g, ctx: adg_ordering(
            g, eps=eps / 12.0, variant=variant, update=update, seed=seed,
            ctx=ctx),
        eps=eps, **run)


def dec_adg_m(g: CSRGraph, eps: float = DEC_ADG_EPS, seed: int | None = 0,
              max_rounds: int | None = None, **kwargs) -> ColoringResult:
    """DEC-ADG-M: the median-threshold variant ((4+eps)d quality)."""
    return dec_adg(g, eps=eps, seed=seed, variant="median",
                   max_rounds=max_rounds, **kwargs)
