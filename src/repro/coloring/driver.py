"""The coloring driver: every algorithm runs through :func:`drive`.

An algorithm is an optional *ordering step* and a *coloring step*
(the paper's Fig. 1 splits every run-time into reordering and
coloring).  The driver is the only code that resolves and closes a
run's :class:`~repro.runtime.ExecutionContext`, times the two steps,
builds the :class:`~repro.coloring.result.ColoringResult` and appends
the ledger row, so every algorithm records its backend/workers, phase
walls, trace and ε the same way.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..graphs.csr import CSRGraph
from ..ordering.base import Ordering
from ..runtime import ExecutionContext, resolve_context
from .result import ColoringResult

#: ``order(g, ctx)``: the ordering, booked on its own child of ``ctx``.
OrderStep = Callable[[CSRGraph, ExecutionContext], Ordering]
#: ``color(g, ordering, ctx)``: ``(colors, rounds, conflicts)``, booked
#: on ``ctx`` under its phases (``ordering`` is ``None`` without an
#: ordering step).
ColorStep = Callable[[CSRGraph, Ordering | None, ExecutionContext],
                     tuple[np.ndarray, int, int]]


def drive(g: CSRGraph, name: str, color: ColorStep,
          order: OrderStep | None = None, eps: float | None = None,
          ctx: ExecutionContext | None = None, backend: str | None = None,
          workers: int | None = None, trace=None) -> ColoringResult:
    """Run ``order`` then ``color`` on ``g``; returns the one result.

    ``name`` is the result's algorithm name; ``{}`` in it stands for
    the ordering's name (``"JP-{}"`` under ADG is ``"JP-ADG"``).
    ``eps`` is the ε the run uses (``None`` for algorithms without
    one).  ``ctx`` is used as given (the caller closes it and records
    it); otherwise one is built from ``backend``/``workers``/``trace``,
    and the driver appends the run's ledger row and closes it.
    """
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        t0 = time.perf_counter()
        ordering = order(g, ctx) if order is not None else None
        t1 = time.perf_counter()
        colors, rounds, conflicts = color(g, ordering, ctx)
        t2 = time.perf_counter()
        out = ColoringResult(
            algorithm=name.format(ordering.name if ordering else ""),
            colors=colors, cost=ctx.cost, mem=ctx.mem,
            reorder_cost=ordering.cost if ordering else None,
            reorder_mem=ordering.mem if ordering else None,
            rounds=rounds, conflicts_resolved=conflicts,
            wall_seconds=t2 - t1,
            reorder_wall_seconds=t1 - t0 if ordering else 0.0,
            eps=eps, backend=ctx.backend, workers=ctx.workers,
            phase_walls=dict(ctx.wall_by_phase),
            trace_summary=ctx.trace_summary(),
            resources=ctx.resource_record())
        if owns:
            ctx.ledger_record(out, graph=g)
        return out
    finally:
        if owns:
            ctx.close()
