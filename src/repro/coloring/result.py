"""ColoringResult: the uniform output of every coloring algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..machine.brent import simulate
from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel


@dataclass
class ColoringResult:
    """A vertex coloring plus its full execution accounting.

    ``colors`` is 1-based (0 means uncolored and never appears in a
    finished result).  ``reorder_cost`` holds the work/depth of the
    ordering phase (the paper's Fig. 1 splits run-times into reordering
    and coloring); ``cost`` holds the coloring phase.

    ``eps`` is the ε the run used (``None`` for algorithms without
    one).  ``backend``/``workers`` record the execution configuration
    the run was given (recorded only: every round runs as one direct
    call, so colors and books do not depend on it).  ``kernel_tier`` is
    the fixed label ``"numpy"``, kept for readers of result rows: it
    names no implementation.  JP's rank sweep, DEC-ADG-ITR's level
    pass, the ADG ordering, the degeneracy peel, the verify scan and
    ingest run as compiled C passes when a C compiler is found and as
    NumPy otherwise, with identical colors and books either way.
    ``phase_walls`` is the per-phase wall-clock split from the
    :class:`~repro.runtime.ExecutionContext` timers (exclusive time
    per phase), the ordering's phases (``order:adg``, ...) beside the
    coloring's.

    Every algorithm builds its result through
    :func:`repro.coloring.driver.drive`.

    ``trace_summary`` is ``None`` unless the run was traced
    (:mod:`repro.obs`): then it carries the tracer digest — event
    counts, run-wide per-phase self walls, the per-round metric series
    (frontier/batch/conflict dynamics).

    ``dispatch`` is always ``None``; the field is kept so readers of
    older result rows and ledgers (which carried an adaptive-dispatch
    digest there) keep working.

    ``resources`` is ``None`` unless resource telemetry was on
    (``ExecutionContext(resources=True)`` / ``$REPRO_RESOURCES`` / an
    enabled run ledger); then it carries the
    :meth:`~repro.runtime.ExecutionContext.resource_record` digest — a
    ``coordinator`` block (sampler peak RSS, CPU seconds).
    """

    algorithm: str
    colors: np.ndarray
    cost: CostModel = field(default_factory=CostModel)
    mem: MemoryModel = field(default_factory=MemoryModel)
    reorder_cost: CostModel | None = None
    reorder_mem: MemoryModel | None = None
    rounds: int = 0
    conflicts_resolved: int = 0
    wall_seconds: float = 0.0
    reorder_wall_seconds: float = 0.0
    eps: float | None = None
    backend: str = "serial"
    workers: int = 1
    kernel_tier: ClassVar[str] = "numpy"
    phase_walls: dict[str, float] = field(default_factory=dict)
    trace_summary: dict | None = None
    dispatch: dict | None = None
    resources: dict | None = None

    def __post_init__(self) -> None:
        self.colors = np.asarray(self.colors, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.colors.size

    @property
    def num_colors(self) -> int:
        """Number of distinct colors used (the paper's quality metric)."""
        if self.colors.size == 0:
            return 0
        return int(self.colors.max())

    @property
    def total_work(self) -> int:
        """Work of reordering plus coloring."""
        extra = self.reorder_cost.work if self.reorder_cost else 0
        return self.cost.work + extra

    @property
    def total_depth(self) -> int:
        """Depth of reordering plus coloring (they compose sequentially)."""
        extra = self.reorder_cost.depth if self.reorder_cost else 0
        return self.cost.depth + extra

    @property
    def total_wall_seconds(self) -> float:
        return self.wall_seconds + self.reorder_wall_seconds

    def combined_cost(self) -> CostModel:
        """One CostModel covering both phases (for Brent simulation)."""
        total = CostModel()
        if self.reorder_cost is not None:
            total.merge(self.reorder_cost)
        total.merge(self.cost)
        return total

    def combined_mem(self) -> MemoryModel:
        """One MemoryModel covering both phases."""
        total = MemoryModel()
        if self.reorder_mem is not None:
            total.merge(self.reorder_mem)
        total.merge(self.mem)
        return total

    def simulated_time(self, processors: int) -> float:
        """Brent-simulated run-time on P processors (unit operations)."""
        return simulate(self.combined_cost(), processors).time

    def summary(self) -> dict:
        """Flat dict of the headline numbers (used by the bench harness)."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "colors": self.num_colors,
            "work": self.total_work,
            "depth": self.total_depth,
            "rounds": self.rounds,
            "conflicts": self.conflicts_resolved,
            "wall_s": self.total_wall_seconds,
            "backend": self.backend,
            "workers": self.workers,
            "kernel_tier": self.kernel_tier,
        }
