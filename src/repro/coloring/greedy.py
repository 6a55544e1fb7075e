"""Sequential Greedy coloring (Welsh-Powell) under any vertex order.

Greedy scans vertices in a given sequence and assigns each the smallest
color unused by its already-colored neighbors; it never exceeds
Delta + 1 colors, and under the degeneracy ordering it achieves d + 1.
These are the Class-2 baselines of Table III (Greedy-FF/R/LF/SL/ID/SD).
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..ordering.base import Ordering
from ..ordering.registry import get_ordering
from ..ordering.saturation import dsatur
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


def greedy(g: CSRGraph, ordering: Ordering) -> ColoringResult:
    """Greedy under a precomputed ordering (highest rank first)."""
    cost = CostModel()
    mem = MemoryModel()
    t0 = time.perf_counter()
    with cost.phase("greedy"):
        colors = greedy_color_sequence(g, ordering.coloring_sequence(),
                                       cost=cost, mem=mem)
    wall = time.perf_counter() - t0
    return ColoringResult(algorithm=f"Greedy-{ordering.name}", colors=colors,
                          cost=cost, mem=mem, reorder_cost=ordering.cost,
                          reorder_mem=ordering.mem, rounds=g.n,
                          wall_seconds=wall)


def greedy_by_name(g: CSRGraph, ordering_name: str, seed: int | None = 0,
                   **ordering_kwargs) -> ColoringResult:
    """Greedy-X for an ordering name from the registry.

    Greedy-SD is special-cased to the coupled DSATUR implementation
    (the SD order depends on the colors as they are assigned).
    """
    if ordering_name == "SD":
        t0 = time.perf_counter()
        sat = dsatur(g, seed)
        wall = time.perf_counter() - t0
        return ColoringResult(algorithm="Greedy-SD", colors=sat.colors,
                              cost=sat.ordering.cost, mem=sat.ordering.mem,
                              rounds=g.n, wall_seconds=wall)
    t0 = time.perf_counter()
    ordering = get_ordering(ordering_name, g, seed=seed, **ordering_kwargs)
    reorder_wall = time.perf_counter() - t0
    out = greedy(g, ordering)
    out.reorder_wall_seconds = reorder_wall
    return out
