"""Speculative frontier repair: the shared detect-and-recolor loop.

Incremental recoloring (:mod:`repro.coloring.incremental`) repairs a
coloring that is valid *except on a known frontier*: the endpoints of
freshly inserted edges and newly attached vertices.  This module is
that optimistic loop, kept on its own so the quality argument is
stated (and tested) once.

The loop speculates and repairs under the run-global ADG level cap
(Lemma 4): every active vertex first takes the smallest color free
among *all* neighbors; if that exceeds its cap — ``deg_l(v) + 1`` for
the ITR family, ``(1 + mu) * deg_l(v)`` for the SIM-COL family — it
falls back to the smallest color free among same-or-higher-level
neighbors, which always fits under the cap.  Conflicts among active
vertices resolve by the lexicographic ``(level, priority)`` order
(lower levels yield), and an active-committed collision — only possible
against a strictly lower level, via the fallback — cascades the
committed vertex into the next round.  Every chosen color is therefore
``<= cap(v)``, so the calling engine's paper bound — (2+eps)d for
DEC-ADG, 2(1+eps)d + 1 for DEC-ADG-ITR — survives any repair this loop
performs.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..primitives.kernels import grouped_mex, segment_any
from ..runtime import ExecutionContext

#: Engines whose interior is SIM-COL (random draws, (2+eps)d bound);
#: everything else in the DEC family repairs under the ITR cap.
SIMCOL_FAMILY = ("DEC-ADG", "DEC-ADG-M")


def deg_ge_array(g: CSRGraph, levels: np.ndarray,
                 ctx: ExecutionContext) -> np.ndarray:
    """deg_l(v): neighbors of v in its own or higher levels — the
    run-global Lemma-4 quantity that caps every repair recolor."""
    src, dst = g.edge_array()
    ge = levels[dst] >= levels[src]
    ctx.cost.round(4 * g.m + g.n, 1)
    ctx.mem.stream(4 * g.m)
    return np.bincount(src[ge], minlength=g.n).astype(np.int64)


def repair_caps(deg_ge: np.ndarray, algorithm: str,
                eps: float) -> np.ndarray:
    """Per-vertex recolor cap for ``algorithm``: ``deg_l + 1`` (ITR
    family) or ``max(1, ceil((1 + eps/4) deg_l))`` (SIM-COL family,
    whose interior draws from a ``(1 + mu)``-slack palette)."""
    if algorithm in SIMCOL_FAMILY:
        return np.maximum(1, np.ceil((1.0 + eps / 4.0)
                                     * deg_ge)).astype(np.int64)
    return deg_ge + 1


def repair_frontier(g: CSRGraph, colors: np.ndarray, levels: np.ndarray,
                    priority: np.ndarray, active: np.ndarray,
                    cap: np.ndarray, ctx: ExecutionContext,
                    max_rounds: int | None = None,
                    metric: str = "repair") -> tuple[int, int]:
    """Recolor ``active`` (and whatever it cascades into) until no
    conflict remains.

    Mutates ``colors`` in place; returns ``(rounds, recolored)`` where
    ``recolored`` counts recoloring attempts.  ``metric`` prefixes the
    traced series (``{metric}.repair_active`` /
    ``{metric}.repair_recolored``) so each caller's activity stays
    distinguishable in one trace.
    """
    tracer = ctx.tracer
    cost, mem = ctx.cost, ctx.mem
    active = np.unique(np.asarray(active, dtype=np.int64))
    limit = max_rounds if max_rounds is not None else 4 * g.n + 64
    is_active = np.zeros(g.n, dtype=bool)
    rounds = 0
    recolored = 0
    while active.size:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("frontier repair failed to converge")
        recolored += int(active.size)

        # Speculate: mex over all neighbors if it fits the cap, else
        # the always-fitting mex over same-or-higher-level neighbors.
        colors[active] = 0
        seg, nbrs = g.batch_neighbors(active)
        ncol = colors[nbrs]
        c_all = grouped_mex(seg, ncol, active.size)
        lv_act = levels[active]
        ge = levels[nbrs] >= lv_act[seg]
        c_ge = grouped_mex(seg, np.where(ge, ncol, 0), active.size)
        chosen = np.where(c_all <= cap[active], c_all, c_ge)
        colors[active] = chosen

        # Detect: active-active ties resolve by (level, priority);
        # an active-committed collision (only possible against a
        # strictly lower level, via c_ge) cascades the committed
        # vertex — but only under winners, losers retry first.
        ncol = colors[nbrs]
        same = ncol == chosen[seg]
        is_active[active] = True
        act_nbr = is_active[nbrs]
        pr_act = priority[active]
        beaten = same & act_nbr & (
            (levels[nbrs] > lv_act[seg]) |
            ((levels[nbrs] == lv_act[seg]) & (priority[nbrs] > pr_act[seg])))
        self_lost = segment_any(beaten, seg, active.size)
        cascade = np.unique(nbrs[same & ~act_nbr & ~self_lost[seg]])

        cost.round(2 * int(active.size) + 4 * int(nbrs.size),
                   log2_ceil(max(g.max_degree, 1)) + 1)
        mem.gather(2 * int(nbrs.size))
        if tracer.enabled:
            tracer.gauge(f"{metric}.repair_active", int(active.size),
                         round=rounds)
            tracer.count(f"{metric}.repair_recolored", int(active.size),
                         round=rounds)
        is_active[active] = False
        active = np.union1d(active[self_lost], cascade)
    return rounds, recolored
