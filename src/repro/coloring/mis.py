"""MIS-based coloring (Luby): the Class-1 baseline of the paper's Table III.

Repeatedly computes a maximal independent set of the uncolored subgraph
with Luby's randomized algorithm and assigns all its vertices the next
color.  Uses at most Delta + 1 colors; depth grows with Delta (one MIS
sweep per color class), which is why the paper's Class-1 schemes lose to
JP on high-degree graphs.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel, log2_ceil
from ..machine.memmodel import MemoryModel
from ..primitives.kernels import segment_any
from ..runtime import ExecutionContext
from .driver import drive
from .result import ColoringResult


def luby_mis(g: CSRGraph, candidates: np.ndarray, rng: np.random.Generator,
             cost: CostModel | None = None,
             mem: MemoryModel | None = None) -> np.ndarray:
    """Luby's maximal independent set over an induced candidate set.

    Each round, every live candidate draws a random value; vertices that
    hold a strict local minimum among live neighbors join the MIS and
    knock out their neighbors.
    """
    n = g.n
    in_mis = np.zeros(n, dtype=bool)
    live = np.zeros(n, dtype=bool)
    live[np.asarray(candidates, dtype=np.int64)] = True

    while True:
        verts = np.flatnonzero(live).astype(np.int64)
        if verts.size == 0:
            break
        draw = rng.random(verts.size)
        value = np.full(n, np.inf)
        value[verts] = draw
        seg, nbrs = g.batch_neighbors(verts)
        nbr_live = live[nbrs]
        if mem is not None:
            mem.gather(nbrs.size)
        # Strict comparison with an id tie-break keeps the winner set
        # independent even in the (measure-zero) event of equal draws.
        owner = verts[seg]
        smaller = nbr_live & ((value[nbrs] < value[owner]) |
                              ((value[nbrs] == value[owner]) & (nbrs < owner)))
        beaten = segment_any(smaller, seg, verts.size)
        winners = verts[~beaten]
        if cost is not None:
            cost.round(nbrs.size + verts.size,
                       log2_ceil(max(g.max_degree, 1)) + 1)
        in_mis[winners] = True
        live[winners] = False
        # Knock out the neighbors of the winners.
        wseg, wnbrs = g.batch_neighbors(winners)
        live[wnbrs] = False
        if cost is not None:
            cost.scatter_decrement(wnbrs.size)
        if mem is not None:
            mem.gather(wnbrs.size)
    return np.flatnonzero(in_mis).astype(np.int64)


def luby_coloring(g: CSRGraph, seed: int | None = 0,
                  **run) -> ColoringResult:
    """Color by repeated MIS extraction (one color per MIS); ``run`` as
    for :func:`~repro.coloring.driver.drive`."""
    return drive(g, "Luby", lambda g, _, ctx: _luby_colors(g, seed, ctx),
                 **run)


def _luby_colors(g: CSRGraph, seed: int | None,
                 ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    rng = np.random.default_rng(seed)
    colors = np.zeros(g.n, dtype=np.int64)
    color = 0
    with ctx.phase("luby:color"):
        while True:
            uncolored = np.flatnonzero(colors == 0).astype(np.int64)
            if uncolored.size == 0:
                break
            color += 1
            mis = luby_mis(g, uncolored, rng, cost=ctx.cost, mem=ctx.mem)
            # The MIS is maximal within the *uncolored* subgraph only if we
            # restrict adjacency tests to uncolored vertices; luby_mis
            # already ignores colored vertices because they are not live.
            colors[mis] = color
    return colors, color, 0
