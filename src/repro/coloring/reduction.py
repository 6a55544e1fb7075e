"""CR: iterative color reduction (Goldberg-Plotkin-Shannon lineage).

The Class-1 schemes of Table III built on symmetry breaking reduce an
initial trivial coloring (vertex ids) down to Delta + 1 classes: in
each round, every vertex whose color exceeds Delta + 1 recolors itself
to the smallest color unused by its neighbors.  Processing the
oversized classes largest-color-first makes each round conflict-free
(a color class is an independent set), and each round retires at least
one class, so at most n - Delta - 1 rounds run — the Omega(Delta)-ish
depth that makes this family uncompetitive on high-degree graphs,
exactly as the paper's Table III notes.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..primitives.kernels import grouped_mex
from ..runtime import ExecutionContext
from .driver import drive
from .result import ColoringResult


def color_reduction(g: CSRGraph, seed: int | None = 0,
                    initial: np.ndarray | None = None,
                    **run) -> ColoringResult:
    """Reduce a trivial n-coloring to at most Delta + 1 colors.

    ``initial`` may supply any valid starting coloring (1-based); by
    default a random permutation of {1..n} (ids as colors) is used.
    ``run`` as for :func:`~repro.coloring.driver.drive`.
    """
    if initial is not None:
        initial = np.asarray(initial, dtype=np.int64).copy()
        if initial.size != g.n or (g.n and initial.min() <= 0):
            raise ValueError("initial must be a complete 1-based coloring")
    return drive(g, "CR", lambda g, _, ctx: _reduce(g, seed, initial, ctx),
                 **run)


def _reduce(g: CSRGraph, seed: int | None, initial: np.ndarray | None,
            ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    cost, mem = ctx.cost, ctx.mem
    n = g.n
    rng = np.random.default_rng(seed)
    colors = rng.permutation(n).astype(np.int64) + 1 \
        if initial is None else initial
    target = g.max_degree + 1
    rounds = 0

    with ctx.phase("cr:reduce"):
        while True:
            over = np.flatnonzero(colors > target).astype(np.int64)
            cost.parallel_for(n)
            mem.stream(n)
            if over.size == 0:
                break
            rounds += 1
            # Local maxima among the oversized vertices recolor together:
            # no two are adjacent (initial colors are distinct), and many
            # classes retire per round.
            oseg, onbrs = g.batch_neighbors(over)
            over_nbr = colors[onbrs] > target
            beaten = np.zeros(over.size, dtype=bool)
            np.logical_or.at(
                beaten, oseg[over_nbr],
                colors[onbrs[over_nbr]] > colors[over[oseg[over_nbr]]])
            batch = over[~beaten]
            seg, nbrs = g.batch_neighbors(batch)
            colors[batch] = grouped_mex(seg, colors[nbrs], batch.size)
            md = int(np.bincount(seg, minlength=batch.size).max()) \
                if nbrs.size else 0
            cost.round(nbrs.size + batch.size, log2_ceil(max(md, 1)) + 1)
            mem.gather(nbrs.size)
    return colors, rounds, 0
