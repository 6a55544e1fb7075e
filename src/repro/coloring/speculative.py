"""Speculative coloring baselines: ITR, ITR-ASL, ITRB (paper Table III/IV).

Speculative schemes color all uncolored vertices *optimistically* in
parallel and then fix the conflicts they created:

- **ITR** (Catalyurek et al.): each round assigns every active vertex
  the smallest color not seen on any neighbor (committed or from the
  previous round's snapshot); on a monochromatic edge between two
  same-round vertices, the lower-priority endpoint is thrown back.
- **ITR-ASL** (Patwary et al.): ITR whose conflict-winner priority is
  the ASL ordering instead of a random permutation.
- **ITRB** (Boman et al.): the round is split into sequential blocks
  ("supersteps"), trading depth for fewer conflicts — the paper finds it
  >2x slower but sometimes close in quality.

ITR and ITR-ASL run on DEC-ADG-ITR's level pass
(:func:`repro.coloring.dec_adg_itr.itr_levels`) with every vertex on
one level: with no higher partition, B_v holds exactly the colors v's
neighbors have committed, so the pass's rounds are ITR's rounds.  Each
keeps its own priority and replays its ``itr:rounds`` books from the
pass's round log.  ITRB keeps its own block-superstep loop: one level
does not express its blocks.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import asl_ordering
from ..ordering.base import random_tiebreak
from ..primitives.kernels import grouped_mex, segment_any
from ..runtime import ExecutionContext
from .dec_adg_itr import itr_levels
from .driver import drive
from .result import ColoringResult


def _itr_pass(g: CSRGraph, priority: np.ndarray, max_rounds: int | None,
              ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    """ITR as the level pass on one level: ``(colors, rounds,
    conflicts)``, the books replayed from the pass's round log."""
    cost, mem = ctx.cost, ctx.mem
    with ctx.phase("itr:rounds"):
        colors, _, rb = itr_levels(g, np.ones(g.n, dtype=np.int64), 1,
                                   priority, max_rounds, "ITR")
        for act, nsum, md, _, _ in zip(*rb.tolist()):
            depth = log2_ceil(max(md, 1)) + 1
            # Gather the neighbors' colors, take the mex, then gather
            # them again to find the conflicts.
            mem.gather(nsum)
            cost.round(nsum + act, depth)
            cost.round(nsum + act, depth)
            mem.gather(nsum)
    return colors, rb.shape[1], int(rb[3].sum())


def itr(g: CSRGraph, seed: int | None = 0, max_rounds: int | None = None,
        **run) -> ColoringResult:
    """ITR with a random conflict-winner priority; ``run`` as for
    :func:`~repro.coloring.driver.drive`."""
    return drive(g, "ITR", lambda g, _, ctx: _itr_pass(
        g, random_tiebreak(g.n, seed), max_rounds, ctx), **run)


def itr_asl(g: CSRGraph, seed: int | None = 0,
            max_rounds: int | None = None, **run) -> ColoringResult:
    """ITR whose priority is the ASL (approximate smallest-last) order."""
    return drive(g, "ITR-ASL",
                 lambda g, o, ctx: _itr_pass(g, o.ranks, max_rounds, ctx),
                 order=lambda g, ctx: asl_ordering(g, seed=seed, ctx=ctx),
                 **run)


def itrb(g: CSRGraph, seed: int | None = 0, blocks: int = 8,
         max_rounds: int | None = None, **run) -> ColoringResult:
    """ITRB: block-synchronous speculation (Boman et al., via Zoltan).

    Each round processes the active set in ``blocks`` sequential blocks;
    within a block the assignment is the same parallel mex, but later
    blocks already see the colors committed by earlier blocks, which
    sharply reduces conflicts at the price of ``blocks``x the depth.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    return drive(g, "ITRB", lambda g, _, ctx: _itrb_rounds(
        g, random_tiebreak(g.n, seed), blocks, max_rounds, ctx), **run)


def _itrb_rounds(g: CSRGraph, priority: np.ndarray, blocks: int,
                 max_rounds: int | None,
                 ctx: ExecutionContext) -> tuple[np.ndarray, int, int]:
    """ITRB's block-superstep rounds: ``(colors, rounds, conflicts)``."""
    cost, mem = ctx.cost, ctx.mem
    n = g.n
    colors = np.zeros(n, dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    rounds = 0
    conflicts = 0
    limit = max_rounds if max_rounds is not None else 4 * n + 64

    with ctx.phase("itrb:rounds"):
        while active.size:
            rounds += 1
            if rounds > limit:
                raise RuntimeError("ITRB failed to converge")
            bounds = np.linspace(0, active.size, blocks + 1, dtype=np.int64)
            for b in range(blocks):
                part = active[bounds[b]:bounds[b + 1]]
                if part.size == 0:
                    continue
                seg, nbrs = g.batch_neighbors(part)
                mem.gather(nbrs.size)
                colors[part] = grouped_mex(seg, colors[nbrs], part.size)
                md = int(np.bincount(seg, minlength=part.size).max()) \
                    if nbrs.size else 0
                cost.round(nbrs.size + part.size, log2_ceil(max(md, 1)) + 1)

            # Cross-block conflicts are still possible inside one block.
            seg, nbrs = g.batch_neighbors(active)
            is_active = np.zeros(n, dtype=bool)
            is_active[active] = True
            same = (colors[nbrs] == colors[active[seg]]) & is_active[nbrs]
            loses = same & (priority[nbrs] > priority[active[seg]])
            lost = segment_any(loses, seg, active.size)
            cost.round(nbrs.size + active.size, log2_ceil(max(g.max_degree, 1)))
            losers = active[lost]
            colors[losers] = 0
            conflicts += losers.size
            active = losers
    return colors, rounds, conflicts
