"""GM: the block-partitioned speculative scheme of Gebremedhin & Manne.

The early speculative algorithm the paper's Table III lists (rows
"Gebremedhin [37]") and that ITR-style schemes descend from: the vertex
set is split into P contiguous blocks, one per processor; each
processor greedily colors its block reading the *current* global colors
(so cross-block conflicts can slip in); a detection pass collects the
conflicting vertices; they are recolored sequentially.  Expected work
O(Delta n), depth O(Delta n / P) — efficient when conflicts are rare
(random-ish partitions of sparse graphs).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel, log2_ceil
from ..primitives.kernels import grouped_mex
from ..runtime import ExecutionContext
from .driver import drive
from .result import ColoringResult
from .verify import conflicting_edges


def gm_coloring(g: CSRGraph, processors: int = 8, seed: int | None = 0,
                **run) -> ColoringResult:
    """Run GM with ``processors`` blocks; ``run`` as for
    :func:`~repro.coloring.driver.drive`.

    The simulated parallel phase colors one vertex per block per
    superstep (the P processors advance in lock-step through their
    blocks), which is exactly where the cross-block races of the real
    algorithm come from.
    """
    if processors < 1:
        raise ValueError(f"processors must be >= 1, got {processors}")
    return drive(g, "GM",
                 lambda g, _, ctx: _gm_colors(g, processors, seed, ctx),
                 **run)


def _gm_colors(g: CSRGraph, processors: int, seed: int | None,
               ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    cost, mem = ctx.cost, ctx.mem
    n = g.n
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    colors = np.zeros(n, dtype=np.int64)

    # Phase 1: parallel speculative pass, one vertex per block per step.
    bounds = np.linspace(0, n, processors + 1, dtype=np.int64)
    blocks = [perm[bounds[i]:bounds[i + 1]] for i in range(processors)]
    steps = max((b.size for b in blocks), default=0)
    with ctx.phase("gm:speculate"):
        for step in range(steps):
            wave = np.asarray([b[step] for b in blocks if step < b.size],
                              dtype=np.int64)
            seg, nbrs = g.batch_neighbors(wave)
            colors[wave] = grouped_mex(seg, colors[nbrs], wave.size)
            md = int(np.bincount(seg, minlength=wave.size).max()) \
                if nbrs.size else 0
            cost.round(nbrs.size + wave.size, log2_ceil(max(md, 1)) + 1)
            mem.gather(nbrs.size)

    # Phase 2: detect conflicts (parallel reduce over the edges).
    with ctx.phase("gm:detect"):
        bu, bv = conflicting_edges(g, colors)
        cost.round(n + 2 * g.m, log2_ceil(max(g.max_degree, 1)))
        mem.gather(2 * g.m)
        # the lower-permuted endpoint of each conflict is recolored
        loser = np.unique(np.where(perm[bu] < perm[bv], bu, bv))

    # Phase 3: sequential cleanup of the conflicting vertices.
    conflicts = int(loser.size)
    with ctx.phase("gm:cleanup"):
        if conflicts:
            colors[loser] = 0
            colors = _recolor_subset(g, colors, loser, cost)
    return colors, steps + 1, conflicts


def _recolor_subset(g: CSRGraph, colors: np.ndarray, subset: np.ndarray,
                    cost: CostModel) -> np.ndarray:
    """Sequential greedy over ``subset`` given the other fixed colors."""
    out = colors.copy()
    indptr, indices = g.indptr, g.indices
    touched = 0
    for v in subset.tolist():
        row = indices[indptr[v]:indptr[v + 1]]
        taken = set(int(c) for c in out[row] if c > 0)
        c = 1
        while c in taken:
            c += 1
        out[v] = c
        touched += row.size + 1
    cost.round(max(touched, 1), max(subset.size, 1))
    return out
