"""Sequential Greedy coloring (Welsh-Powell) under any vertex order.

Greedy scans vertices in a given sequence and assigns each the smallest
color unused by its already-colored neighbors; it never exceeds
Delta + 1 colors, and under the degeneracy ordering it achieves d + 1.
These are the Class-2 baselines of Table III (Greedy-FF/R/LF/SL/ID/SD).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..ordering.base import Ordering
from ..ordering.registry import get_ordering
from ..ordering.saturation import dsatur
from ..runtime import ExecutionContext
from .driver import drive
from .result import ColoringResult
from .sweep import rank_sweep


def greedy_color_sequence(g: CSRGraph, sequence: np.ndarray,
                          cost: CostModel | None = None,
                          mem: MemoryModel | None = None) -> np.ndarray:
    """Color vertices in the exact order of ``sequence`` (1-based colors).

    Runs as the rank sweep with the sequence as a descending order.
    ``sequence`` must be a permutation of 0..n-1 (else ``ValueError``),
    checked in O(n): every entry in range, and the rank scatter leaves
    no slot unfilled.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    if sequence.size != g.n or (g.n and (sequence.min() < 0
                                         or sequence.max() >= g.n)):
        raise ValueError("sequence must be a permutation of all vertices")
    ranks = np.full(g.n, -1, dtype=np.int64)
    ranks[sequence] = np.arange(g.n - 1, -1, -1, dtype=np.int64)
    if g.n and ranks.min() < 0:  # a repeat left some vertex unranked
        raise ValueError("sequence must be a permutation of all vertices")
    colors = rank_sweep(g, ranks).colors
    if cost is not None:
        cost.round(g.n + 2 * g.m, g.n)  # inherently sequential scan
    if mem is not None:
        mem.stream(g.n)
        mem.gather(2 * g.m)
    return colors


def _greedy_colors(g: CSRGraph, ordering: Ordering,
                   ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    """Greedy's coloring step: one sequential scan in ``ordering``."""
    with ctx.phase("greedy"):
        colors = greedy_color_sequence(g, ordering.coloring_sequence(),
                                       cost=ctx.cost, mem=ctx.mem)
    return colors, g.n, 0


def greedy(g: CSRGraph, ordering: Ordering, **run) -> ColoringResult:
    """Greedy under a precomputed ordering (highest rank first);
    ``run`` as for :func:`~repro.coloring.driver.drive`."""
    return drive(g, "Greedy-{}", _greedy_colors,
                 order=lambda g, ctx: ordering, **run)


def greedy_by_name(g: CSRGraph, ordering_name: str, seed: int | None = 0,
                   ctx: ExecutionContext | None = None,
                   backend: str | None = None, workers: int | None = None,
                   trace=None, **ordering_kwargs) -> ColoringResult:
    """Greedy-X for an ordering name from the registry.

    Greedy-SD is the coupled DSATUR implementation (the SD order
    depends on the colors as they are assigned): one coloring step, no
    separate ordering.
    """
    run = dict(ctx=ctx, backend=backend, workers=workers, trace=trace)
    if ordering_name == "SD":
        return drive(g, "Greedy-SD",
                     lambda g, _, ctx: (dsatur(g, seed, ctx).colors, g.n, 0),
                     **run)
    return drive(g, "Greedy-{}", _greedy_colors,
                 order=lambda g, ctx: get_ordering(
                     ordering_name, g, seed=seed, ctx=ctx,
                     **ordering_kwargs), **run)
