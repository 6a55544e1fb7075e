"""Vertex-ordering results and helpers shared by all ordering heuristics.

A vertex ordering is represented by a total-order ``ranks`` array:
``ranks[v]`` in {0, ..., n-1}, where a *higher* rank means the vertex is
colored *earlier* by JP (it is a DAG predecessor of its lower-ranked
neighbors).  Orderings that are naturally partial (ADG levels, SLL
rounds) also carry ``levels`` — the coarse priority before random
tie-breaking — which DEC-ADG uses as its partition ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..runtime import ExecutionContext


@dataclass
class Ordering:
    """A total vertex order plus provenance and cost accounting.

    ``pred_counts``, when present, holds each vertex's number of
    higher-ranked neighbors — the DAG in-degrees JP needs — computed
    during the ordering itself (the fused JP-ADG optimization of paper
    SS V-C), so JP can skip its DAG-construction part.  ``tiebreak``,
    when present, is the random permutation rho_R that broke the ties
    between equal ``levels``, kept so that a consumer of the same draw
    (DEC-ADG-ITR's priorities) does not draw it again.
    """

    name: str
    ranks: np.ndarray
    levels: np.ndarray | None = None
    num_levels: int = 0
    cost: CostModel = field(default_factory=CostModel)
    mem: MemoryModel = field(default_factory=MemoryModel)
    pred_counts: np.ndarray | None = None
    tiebreak: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.ranks = np.asarray(self.ranks, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.ranks.size

    def validate(self) -> None:
        """Check that ranks form a permutation and levels are consistent."""
        if not np.array_equal(np.sort(self.ranks), np.arange(self.n)):
            raise ValueError(f"{self.name}: ranks must be a permutation")
        if self.levels is not None:
            if self.levels.size != self.n:
                raise ValueError(f"{self.name}: levels length mismatch")
            # Within the total order, levels must be monotone: a vertex of a
            # higher level always ranks above one of a lower level.
            order = np.argsort(self.ranks)
            lv = self.levels[order]
            if np.any(np.diff(lv) < 0):
                raise ValueError(f"{self.name}: levels not monotone in ranks")

    def coloring_sequence(self) -> np.ndarray:
        """Vertices sorted from highest rank to lowest (JP coloring order)."""
        return np.argsort(-self.ranks, kind="stable").astype(np.int64)

    def level_partitions(self) -> list[np.ndarray]:
        """Vertex arrays R(1), ..., R(num_levels) grouped by level.

        Partition i (0-based list index) holds the vertices with level
        ``i + 1``; DEC-ADG colors them from the last list to the first.
        """
        if self.levels is None:
            raise ValueError(f"{self.name} has no level structure")
        order = np.argsort(self.levels, kind="stable")
        lv = self.levels[order]
        out: list[np.ndarray] = []
        for level in range(1, self.num_levels + 1):
            lo = np.searchsorted(lv, level, side="left")
            hi = np.searchsorted(lv, level, side="right")
            out.append(order[lo:hi].astype(np.int64))
        return out


def total_order(priority: np.ndarray, tiebreak: np.ndarray | None = None,
                ) -> np.ndarray:
    """Ranks of the lexicographic order <priority, tiebreak> (both ascending).

    The vertex with the largest (priority, tiebreak) pair receives rank
    n-1 (colored first).  Without a tiebreak, ties fall back to vertex id
    (a deterministic, documented choice).
    """
    priority = np.asarray(priority)
    n = priority.size
    if tiebreak is None:
        tiebreak = np.arange(n, dtype=np.int64)
    order = np.lexsort((tiebreak, priority))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def random_tiebreak(n: int, seed: int | None) -> np.ndarray:
    """The rho_R of the paper: a uniformly random permutation of ids."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64)


def ordering_context(ctx: ExecutionContext | None) -> ExecutionContext:
    """The context an ordering books on: a child of the run's ``ctx``
    (its own cost and memory books, the run's tracer and phase walls),
    else a fresh serial one that records nothing else."""
    if ctx is not None:
        return ctx.child()
    return ExecutionContext(backend="serial", trace=False, ledger=False,
                            resources=False)
