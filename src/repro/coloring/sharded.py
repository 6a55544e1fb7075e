"""Sharded DEC execution: per-shard engines plus boundary repair.

The DEC decomposition already isolates most coloring decisions inside
low-degree partitions; this module lifts that isolation across an
entire graph cut.  :func:`sharded_color` computes the run-global ADG
ordering once, cuts the graph into degree-balanced shards along the
level structure (:func:`repro.runtime.plan_shards`), and runs each
engine *interior* (:func:`~repro.coloring.dec_adg.color_partitions` /
:func:`~repro.coloring.dec_adg_itr.itr_color_partitions`) on its own
induced subgraph, shard by shard, with colors and accounting merged in
shard order (:class:`repro.runtime.ShardedContext`).

Shard engines speculate: interior edges are certainly bichromatic (each
shard's coloring is locally valid), but the plan's cross-shard edges
may come back monochromatic.  The *boundary repair* protocol then
fixes exactly those: detect conflicted cross edges, demote the
lexicographically smaller ``(level, priority)`` endpoint of each to
the active set, and re-run mex-style recoloring rounds until no
conflict remains.  Quality survives because every recolor is capped by
the run-global deg_l bound (Lemma 4): a vertex first tries the
smallest color free among *all* neighbors; if that exceeds its cap
``(1+mu) * deg_l(v)`` (DEC-ADG) or ``deg_l(v) + 1`` (ITR), it falls
back to the smallest color free among same-or-higher-level neighbors —
which always fits under the cap — and any strictly-lower-level
committed neighbor it thereby collides with cascades into the active
set (lower levels yield to higher levels, exactly the DEC invariant).
So the sharded run keeps the engine's paper bound: (2+eps)d for
DEC-ADG, 2(1+eps)d + 1 for DEC-ADG-ITR.

Shard faults follow the run's one recovery policy (the level x
fault-kind table is in :mod:`repro.runtime.faults`): a shard engine
runs on its own quiet serial context, so an ``error`` or ``kill`` —
or any exception — is a failed attempt, and the shard re-runs from
scratch.  The re-run computes the same shard colors, so a recovered
run equals the fault-free sharded run; a shard that exhausts the
retry budget raises :class:`~repro.runtime.ShardError` rather than
answer with different colors.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..ordering.base import random_tiebreak
from ..runtime import ExecutionContext, ShardedContext, plan_shards
from .dec_adg import color_partitions
from .dec_adg_itr import itr_color_partitions
from .repair import SIMCOL_FAMILY, deg_ge_array, repair_caps, repair_frontier
from .result import ColoringResult

#: Engines whose interior is SIM-COL (random draws, (2+eps)d bound).
#: Shared with incremental recoloring — see repro.coloring.repair.
_SIMCOL_FAMILY = SIMCOL_FAMILY

def _shard_seed(seed: int | None, sid: int) -> int | None:
    """Decorrelate shard RNG streams, deterministically in (seed, sid)."""
    if seed is None:
        return None
    return (int(seed) + 0x9E3779B1 * (sid + 1)) % (2**63 - 1)


def _interior(g: CSRGraph, algorithm: str, levels: np.ndarray,
              num_levels: int, eps: float, seed: int | None,
              priority: np.ndarray, ctx: ExecutionContext,
              max_rounds: int | None) -> tuple[np.ndarray, int, int]:
    """Run one engine interior on ``g``; returns (colors, rounds,
    conflicts).  On the whole graph with the run seed this reproduces
    the plain unsharded engine exactly (the one-shard plan)."""
    if algorithm in _SIMCOL_FAMILY:
        rng = np.random.default_rng(seed)
        colors, rounds = color_partitions(g, levels, num_levels, eps / 4.0,
                                          rng, ctx, max_rounds=max_rounds)
        return colors, rounds, 0
    return itr_color_partitions(g, levels, num_levels, priority, ctx,
                                max_rounds=max_rounds)


def run_shard_local(arrays: dict, *, algorithm: str, eps: float,
                    seed: int | None, num_levels: int,
                    max_rounds: int | None, shard: int) -> dict:
    """One shard engine, start to finish.

    ``arrays`` holds the shard's sub-CSR plus its slices of the
    run-global level and priority arrays.  The engine runs on a fresh
    quiet serial context (shard-level recovery belongs to the
    coordinator, so chunk-level fault injection is forced off; with no
    pool to lose, a shard ``kill`` is a failed attempt) and
    writes 1-based colors into ``arrays['colors']`` in place.  Returns
    a record: the shard's accounting books and round/conflict counts,
    which the coordinator merges in shard order.
    """
    g = CSRGraph(indptr=np.asarray(arrays["indptr"]),
                 indices=np.asarray(arrays["indices"]),
                 name=f"shard{shard}")
    levels = np.asarray(arrays["levels"])
    priority = np.asarray(arrays["priority"])
    ctx = ExecutionContext(backend="serial", trace=False, faults=False,
                           ledger=False, resources=False)
    try:
        colors, rounds, conflicts = _interior(
            g, algorithm, levels, num_levels, eps, seed, priority, ctx,
            max_rounds)
        arrays["colors"][...] = colors
    finally:
        ctx.close()
    return {"shard": shard, "n": g.n, "m": g.m, "rounds": int(rounds),
            "conflicts": int(conflicts), "cost": ctx.cost, "mem": ctx.mem}


def _boundary_repair(g: CSRGraph, colors: np.ndarray, levels: np.ndarray,
                     priority: np.ndarray, plan, eps: float,
                     algorithm: str, ctx: ExecutionContext,
                     max_rounds: int | None) -> tuple[int, int]:
    """Certify the plan's cross-shard edges; recolor until conflict-free.

    Mutates ``colors`` in place; returns ``(rounds, recolored)`` where
    ``recolored`` counts recoloring attempts (the sharded analogue of
    conflicts resolved).  The loop itself is the shared
    :func:`repro.coloring.repair.repair_frontier`: every chosen color
    is <= the vertex's cap, so the engine's quality bound is preserved
    — see that module for the cascade argument.
    """
    u, v = plan.cross_u, plan.cross_v
    cost, mem = ctx.cost, ctx.mem
    if u.size == 0:
        return 0, 0
    bad = colors[u] == colors[v]
    cost.round(2 * int(u.size), 1)
    mem.gather(2 * int(u.size), "shard:repair")
    if not bad.any():
        return 0, 0

    cap = repair_caps(deg_ge_array(g, levels, ctx, label="shard:repair"),
                      algorithm, eps)

    # Exactly one endpoint of each conflicted edge yields: the
    # lexicographically smaller (level, priority) — lower levels defer
    # to higher ones, as everywhere in DEC.
    uu, vv = u[bad], v[bad]
    u_loses = (levels[uu] < levels[vv]) | \
        ((levels[uu] == levels[vv]) & (priority[uu] < priority[vv]))
    active = np.unique(np.where(u_loses, uu, vv))
    return repair_frontier(g, colors, levels, priority, active, cap, ctx,
                           max_rounds=max_rounds, metric="shard")


def sharded_color(g: CSRGraph, algorithm: str, eps: float,
                  seed: int | None, ctx: ExecutionContext, n_shards: int,
                  variant: str = "avg", update: str = "push",
                  max_rounds: int | None = None) -> ColoringResult:
    """Run a DEC-family engine through the sharding layer.

    The coordinator computes the global ADG ordering (the engine's own
    eps discipline: eps/12 for DEC-ADG, eps for DEC-ADG-ITR), plans
    the shards over the level structure, dispatches one engine
    interior per shard through :class:`~repro.runtime.ShardedContext`,
    merges colors and books in shard order, and repairs the boundary.
    The result carries the full ``shards`` digest (plan, executor,
    repair, per-shard rows).
    """
    tracer = ctx.tracer
    t0 = time.perf_counter()
    if algorithm in _SIMCOL_FAMILY:
        ordering = adg_ordering(g, eps=eps / 12.0, variant=variant,
                                update=update, seed=seed, ctx=ctx)
    else:
        ordering = adg_ordering(g, eps=eps, variant=variant, seed=seed,
                                ctx=ctx)
    reorder_wall = time.perf_counter() - t0
    levels = ordering.levels
    assert levels is not None
    num_levels = ordering.num_levels

    t0 = time.perf_counter()
    with ctx.phase("shard:plan"):
        plan = plan_shards(g, max(1, min(n_shards, max(1, g.n))),
                           levels=levels)
        ctx.cost.round(g.n + 2 * g.m, log2_ceil(max(g.n, 1)))
        ctx.mem.gather(2 * g.m, "shard:plan")
    if tracer.enabled:
        tracer.gauge("shard.count", plan.n_shards)
        tracer.count("shard.cut_edges", plan.cut_edges)
    priority = random_tiebreak(g.n, seed)

    per_shard: list[dict] = []
    repair_rounds = repair_recolored = 0
    if plan.n_shards <= 1:
        # One shard is the plain engine: same ordering, seed, priority.
        colors, rounds_total, conflicts_total = _interior(
            g, algorithm, levels, num_levels, eps, seed, priority, ctx,
            max_rounds)
    else:
        shard_arrays: list[dict] = []
        shard_scalars: list[dict] = []
        for s in plan.shards:
            verts = s.vertices
            shard_arrays.append({
                "indptr": s.sub.graph.indptr,
                "indices": s.sub.graph.indices,
                "levels": np.ascontiguousarray(levels[verts]),
                "priority": np.ascontiguousarray(priority[verts]),
                "colors": np.zeros(verts.size, dtype=np.int64),
            })
            shard_scalars.append({
                "algorithm": algorithm, "eps": eps,
                "seed": _shard_seed(seed, s.sid),
                "num_levels": int(num_levels),
                "max_rounds": max_rounds, "shard": s.sid,
            })
        with ctx.phase("shard:color"):
            records = ShardedContext(ctx, plan, run_shard_local).run(
                shard_arrays, shard_scalars)
        colors = np.zeros(g.n, dtype=np.int64)
        rounds_total = conflicts_total = 0
        for s, arrays, rec in zip(plan.shards, shard_arrays, records):
            colors[s.vertices] = arrays["colors"]
            ctx.cost.merge(rec["cost"])
            ctx.mem.merge(rec["mem"])
            rounds_total += rec["rounds"]
            conflicts_total += rec["conflicts"]
            per_shard.append({
                "shard": s.sid, "n": s.n, "m": s.m,
                "rounds": rec["rounds"], "conflicts": rec["conflicts"],
                "work": rec["cost"].work,
                "wall_s": round(rec["t1"] - rec["t0"], 6),
                "bytes": s.nbytes,
            })
        with ctx.phase("shard:repair"):
            repair_rounds, repair_recolored = _boundary_repair(
                g, colors, levels, priority, plan, eps, algorithm, ctx,
                max_rounds)
        rounds_total += repair_rounds
        conflicts_total += repair_recolored
    wall = time.perf_counter() - t0

    digest = {**plan.digest(),
              "repair_rounds": repair_rounds,
              "repair_recolored": repair_recolored,
              "per_shard": per_shard}
    return ColoringResult(algorithm=algorithm, colors=colors, cost=ctx.cost,
                          mem=ctx.mem, reorder_cost=ordering.cost,
                          reorder_mem=ordering.mem, rounds=rounds_total,
                          conflicts_resolved=conflicts_total,
                          wall_seconds=wall,
                          reorder_wall_seconds=reorder_wall,
                          backend=ctx.backend, workers=ctx.workers,
                          phase_walls=dict(ctx.wall_by_phase),
                          trace_summary=ctx.trace_summary(),
                          faults=ctx.fault_record(),
                          dispatch=ctx.dispatch_record(),
                          shards=digest,
                          resources=ctx.resource_record())
