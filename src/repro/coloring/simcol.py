"""SIM-COL: randomized coloring of one low-degree partition (paper Alg. 5).

SIM-COL colors an (arbitrary) graph with (1+mu)*Delta colors by repeated
random trials: every active vertex draws a color uniformly from
{1, ..., (1+mu) * deg_l(v)}; a vertex keeps its color unless an active
neighbor drew the same one or the color is forbidden by the bitmap B_v
(colors taken by neighbors in already-colored partitions).  Each round
deactivates a constant fraction of vertices in expectation (Claim 1),
so the loop terminates in O(log n) rounds w.h.p. (Lemma 10).

Each round's trial evaluation is one plain call of a pure kernel over
the active vertices: the color draw is a single RNG call before it (so
the random stream — hence the coloring — is identical on every
backend), and the per-vertex conflict checks read only this round's
fixed draws.  Bitmap commits are applied after the kernel returns.

SIM-COL returns a plain ``(colors, rounds)`` tuple; callers that build
a :class:`~repro.coloring.result.ColoringResult` (DEC-ADG) attach the
run's books there.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel, log2_ceil
from ..machine.memmodel import MemoryModel
from ..primitives.kernels import segment_any
from ..runtime import ExecutionContext, resolve_context


def _trial(part: CSRGraph, mine: np.ndarray, colors: np.ndarray,
           still: np.ndarray, forbidden: np.ndarray):
    """Trial evaluation (Alg. 5): reject equal active-neighbor draws
    and draws forbidden by the B_v bitmap.

    Returns ``(clash, seg, nbrs, max in-round degree)``; the caller
    replays ``seg`` and ``nbrs`` for the bitmap commit.
    """
    seg, nbrs = part.batch_neighbors(mine)
    cm = colors[mine]
    same = (colors[nbrs] == cm[seg]) & still[nbrs]
    clash = segment_any(same, seg, mine.size)
    clash |= forbidden[mine, cm]
    md = int(np.bincount(seg, minlength=mine.size).max()) if nbrs.size else 0
    return clash, seg, nbrs, md


def sim_col(
    part: CSRGraph,
    degl: np.ndarray,
    forbidden: np.ndarray,
    mu: float,
    rng: np.random.Generator,
    cost: CostModel | None = None,
    mem: MemoryModel | None = None,
    max_rounds: int | None = None,
    ctx: ExecutionContext | None = None,
) -> tuple[np.ndarray, int]:
    """Color one partition; returns (1-based local colors, rounds used).

    Parameters
    ----------
    part:
        The partition as a *local* CSR graph (vertices 0..|R|-1).
    degl:
        deg_l(v) per local vertex: its neighbor count within this
        partition plus all already-colored partitions.  The random color
        range of v is {1, ..., max(1, ceil((1+mu) * degl[v]))}.
    forbidden:
        Boolean matrix (|R| x width); ``forbidden[v, c]`` means color c
        is taken by a neighbor of v in a higher partition.  Mutated in
        place as vertices commit (it doubles as the B_v bitmaps).
    ctx:
        Execution context carrying the configuration and the accounting
        books; when absent one is built from ``cost``/``mem`` on the
        default backend.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    ctx, owns = resolve_context(ctx, cost=cost, mem=mem)
    cost, mem = ctx.cost, ctx.mem
    try:
        n = part.n
        colors = np.zeros(n, dtype=np.int64)
        if n == 0:
            return colors, 0
        degl = np.asarray(degl, dtype=np.int64)
        cap = np.maximum(1, np.ceil((1.0 + mu) * degl)).astype(np.int64)
        width = forbidden.shape[1]
        if int(cap.max()) >= width:
            raise ValueError(f"forbidden bitmap width {width} too small for "
                             f"color range {int(cap.max())}")
        active = np.arange(n, dtype=np.int64)
        rounds = 0
        tracer = ctx.tracer
        limit = max_rounds if max_rounds is not None else 64 * (n.bit_length() + 2)

        still_active = np.zeros(n, dtype=bool)

        while active.size:
            rounds += 1
            if rounds > limit:
                raise RuntimeError("SIM-COL failed to converge "
                                   f"({active.size} vertices left)")
            # Part 1: draw colors uniformly at random — one serial RNG
            # call, so the stream is backend-independent.
            draw = rng.integers(1, cap[active] + 1, dtype=np.int64)
            colors[active] = draw
            cost.parallel_for(active.size)
            mem.stream(active.size)

            # Part 2: reject on equality with an active neighbor or on B_v.
            still_active[:] = False
            still_active[active] = True
            clash, seg, nbrs, md = _trial(part, active, colors,
                                          still_active, forbidden)
            nbrs_total = nbrs.size
            cost.round(nbrs_total + active.size, log2_ceil(max(md, 1)) + 1)
            mem.gather(nbrs_total)
            colors[active[clash]] = 0
            if tracer.enabled:
                n_clash = int(clash.sum())
                tracer.gauge("simcol.active", int(active.size), round=rounds)
                tracer.count("simcol.conflicts", n_clash, round=rounds)
                tracer.count("simcol.colored", int(active.size) - n_clash,
                             round=rounds)

            # Part 3: record the newly fixed colors in the neighbors'
            # bitmaps — after the clash rejections above, so only truly
            # committed colors are forbidden.  The trial's gathered
            # neighbor arrays are reused.
            fixed_nbr = (colors[nbrs] > 0) & still_active[nbrs]
            forbidden[active[seg[fixed_nbr]], colors[nbrs[fixed_nbr]]] = True
            fixed_total = int(fixed_nbr.sum())
            cost.scatter_decrement(fixed_total)
            mem.gather(fixed_total)

            active = active[clash]
        return colors, rounds
    finally:
        if owns:
            ctx.close()
