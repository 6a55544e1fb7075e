"""The sharding layer: plans over shards, one engine per shard.

The DEC family already decomposes a graph into partitions that are
colored almost independently; this module promotes that decomposition
from an engine-internal detail to a first-class runtime layer.  A
:class:`ShardPlan` cuts the vertex set into degree-balanced shards —
preferring DEC-ADG's low-degree level structure when the caller has
one, falling back to degree-weighted contiguous id ranges — and
materializes each shard as an induced subgraph with ghost bookkeeping
(:func:`repro.graphs.subgraph.shard_extract`): which member vertices
have cross-shard edges (*boundary*), and which external vertices they
see (*ghosts*).

A :class:`ShardedContext` then executes one engine per shard, inline on
the coordinator, shard by shard, over the shard's own arrays: each
engine's working set is its shard's sub-CSR, never the whole graph,
and colors and accounting books merge in shard order, so they are
independent of the backend and worker count.

Fault semantics extend :mod:`repro.runtime.faults` to shard
granularity.  A shard-addressed ``kill`` raises
:class:`~repro.runtime.faults.WorkerDeath`, which draws on the run's
respawn budget (``$REPRO_RESPAWNS``) — the shard re-runs from scratch.
A shard ``error`` retries against the run's retry budget
(``$REPRO_RETRIES``), then raises :class:`ShardError`.  When the
respawn budget is spent the layer *degrades to unsharded execution*:
:meth:`ShardedContext.run` returns ``None`` and the calling engine
re-runs the plain single-context path — same colors, one level down
the sturdiness ladder.

This module is deliberately engine-agnostic: the caller passes the
shard runner in, so the runtime layer never imports the coloring
package.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import InducedSubgraph, shard_extract
from ..machine.parallel import split_chunks_weighted
from ..obs.resources import cpu_seconds, peak_rss_kb
from .faults import WorkerDeath, apply_fault


class ShardError(RuntimeError):
    """A shard engine failed for good (retry budget exhausted)."""


def default_shards() -> int:
    """Shard count: $REPRO_SHARDS, else 0 (sharding off).

    Unset, empty, ``0`` or ``off`` disables the sharding layer; a
    value of 1 is accepted and equivalent (one shard is just the
    unsharded engine).
    """
    env = os.environ.get("REPRO_SHARDS", "").strip().lower()
    if not env or env in ("0", "off"):
        return 0
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"$REPRO_SHARDS must be a non-negative int, "
                         f"got {env!r}") from None
    if value < 0:
        raise ValueError(f"$REPRO_SHARDS must be >= 0, got {value}")
    return value


# -- the plan -----------------------------------------------------------------

#: Working-set bytes per shard vertex beyond the sub-CSR: the id map,
#: levels, priorities, and colors arrays shipped to the shard engine
#: (int64 each).
_PER_VERTEX_ARRAYS = 4


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a :class:`ShardPlan`.

    ``sub`` is the materialized induced subgraph (local ids, with the
    parent-space ``index_map``); ``boundary`` the member vertices with
    at least one cross-shard edge and ``ghosts`` the external
    neighbors they see — both as original (global) ids.
    """

    sid: int
    sub: InducedSubgraph
    boundary: np.ndarray
    ghosts: np.ndarray

    @property
    def vertices(self) -> np.ndarray:
        return self.sub.vertices

    @property
    def n(self) -> int:
        return self.sub.n

    @property
    def m(self) -> int:
        return self.sub.m

    @property
    def nbytes(self) -> int:
        """The shard engine's mapped working set: sub-CSR plus the
        per-vertex id/level/priority/color arrays."""
        g = self.sub.graph
        return int(g.indptr.nbytes + g.indices.nbytes
                   + self.sub.vertices.nbytes * _PER_VERTEX_ARRAYS)


@dataclass
class ShardPlan:
    """A partition of the vertex set into engine-sized shards.

    ``assign[v]`` is v's shard id; ``cross_u``/``cross_v`` list every
    cross-shard edge once (``assign[u] != assign[v]``, ``u < v``) — the
    exact edge set the boundary-repair protocol has to certify.
    """

    planner: str  # 'levels' (DEC level bands) or 'ranges' (id ranges)
    assign: np.ndarray
    shards: list[ShardSpec] = field(default_factory=list)
    cross_u: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    cross_v: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def cut_edges(self) -> int:
        return int(self.cross_u.size)

    @property
    def max_nbytes(self) -> int:
        return max((s.nbytes for s in self.shards), default=0)

    def digest(self) -> dict:
        """JSON-friendly summary (rides on ``ColoringResult.shards``)."""
        return {
            "n_shards": self.n_shards,
            "planner": self.planner,
            "cut_edges": self.cut_edges,
            "sizes": [s.n for s in self.shards],
            "edges": [s.m for s in self.shards],
            "boundary": [int(s.boundary.size) for s in self.shards],
            "ghosts": [int(s.ghosts.size) for s in self.shards],
            "bytes": [s.nbytes for s in self.shards],
            "max_bytes": self.max_nbytes,
        }


def plan_shards(g: CSRGraph, n_shards: int,
                levels: np.ndarray | None = None) -> ShardPlan:
    """Cut ``g`` into up to ``n_shards`` degree-balanced shards.

    With ``levels`` (a DEC/ADG level array) vertices are grouped into
    contiguous *level bands*: vertices are ordered by level and the
    band boundaries come from a prefix-sum split of degree weight, so
    most edges — which DEC's low-degree decomposition concentrates
    inside and between adjacent levels — stay shard-internal and every
    shard carries comparable work.  Without levels the fallback is the
    same degree-weighted split over plain vertex-id ranges.

    Within a shard vertices are sorted ascending, which keeps the
    extraction on :func:`~repro.graphs.subgraph.shard_extract`'s
    re-sort-free fast path.  Degenerate inputs (empty graph,
    ``n_shards`` <= 1) come back as a single-shard or empty plan; the
    caller decides whether that is worth sharded execution.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n = g.n
    if levels is not None and n_shards > 1 and n > 0:
        order = np.argsort(np.asarray(levels), kind="stable").astype(np.int64)
        planner = "levels"
    else:
        order = np.arange(n, dtype=np.int64)
        planner = "ranges"
    # +1 keeps isolated vertices from collapsing into one giant shard.
    weights = g.degrees[order] + 1
    bounds = split_chunks_weighted(n, n_shards, weights)
    assign = np.zeros(n, dtype=np.int64)
    shards: list[ShardSpec] = []
    for sid, (lo, hi) in enumerate(bounds):
        verts = np.sort(order[lo:hi])
        assign[verts] = sid
        sub, boundary, ghosts = shard_extract(g, verts,
                                              name=f"{g.name}#s{sid}")
        shards.append(ShardSpec(sid=sid, sub=sub, boundary=boundary,
                                ghosts=ghosts))
    u, v = g.undirected_edges()
    cross = assign[u] != assign[v]
    return ShardPlan(planner=planner, assign=assign, shards=shards,
                     cross_u=u[cross].astype(np.int64),
                     cross_v=v[cross].astype(np.int64))


# -- the shard call -----------------------------------------------------------

def _call_runner(runner, arrays: dict, scalars: dict) -> dict:
    """Run one shard engine; augment its record with wall stamps, pid,
    peak RSS and CPU seconds for the span and resource rows."""
    t0 = time.perf_counter()
    c0 = cpu_seconds()
    record = runner(arrays, **scalars)
    record["t0"], record["t1"] = t0, time.perf_counter()
    record["pid"] = os.getpid()
    record["rss_kb"] = peak_rss_kb()
    record["cpu_s"] = round(cpu_seconds() - c0, 6)
    return record


# -- the sharded executor -----------------------------------------------------

class ShardedContext:
    """Run one engine per shard, with the run's recovery policy.

    ``runner(arrays, **scalars)`` runs one shard engine to completion
    and returns its record (books, round counts).  The parent
    :class:`~repro.runtime.ExecutionContext` supplies the budgets
    (retries, backoff, respawns), the fault plan, the tracer,
    and the fault counters — shard recovery shows up in the same
    ``fault.*`` digest as chunk recovery, under ``fault.shard.*``
    names.

    :meth:`run` returns one record per shard (the runner's return
    value plus timing/pid/RSS), or ``None`` when the respawn budget
    was exhausted and the caller must degrade to unsharded execution.
    """

    def __init__(self, ctx, plan: ShardPlan, runner):
        self.ctx = ctx
        self.plan = plan
        self.runner = runner
        self.respawns = 0
        self.degraded = False

    # The budgets live on the parent run's pool host, so sharded and
    # chunked recovery share one policy (and one $REPRO_* seam).

    @property
    def _host(self):
        return self.ctx._pool_host

    def _draw(self, sid: int, attempt: int):
        plan = self._host._faultplan
        if plan is None:
            return None
        spec = plan.draw_shard(sid, attempt)
        if spec is not None:
            self.ctx._fault_count(f"fault.injected.{spec.kind}", 0)
            if self.ctx.tracer.enabled:
                self.ctx.tracer.instant(f"fault.{spec.kind}", cat="fault",
                                        shard=sid, attempt=attempt)
        return spec

    def _respawn_or_degrade(self, sid: int) -> bool:
        """One shard worker died: True to keep going (respawned),
        False to degrade to unsharded execution."""
        host = self._host
        if self.respawns < host._max_respawns:
            self.respawns += 1
            self.ctx._fault_count("fault.shard.respawns", 0)
            self.ctx._fault_event({"kind": "shard-respawn", "shard": sid})
            return True
        self.degraded = True
        self.ctx._fault_count("fault.shard.degradations", 0)
        self.ctx._fault_event({"kind": "shard-degrade", "shard": sid})
        return False

    def _retry_or_raise(self, sid: int, attempt: int, exc) -> None:
        host = self._host
        if attempt > host._retries:
            raise ShardError(
                f"shard {sid} failed after {attempt} attempt(s): "
                f"{exc}") from exc
        self.ctx._fault_count("fault.retries", 0)
        if host._backoff > 0:
            time.sleep(min(1.0, host._backoff * (2 ** (attempt - 1))))

    def run(self, shard_arrays: list[dict],
            shard_scalars: list[dict]) -> list[dict] | None:
        """Execute every shard, in shard order, on the coordinator.

        ``shard_arrays[sid]`` maps array names to the shard's NumPy
        arrays; ``shard_scalars[sid]`` the keyword arguments for the
        runner, which mutates the caller's arrays (colors) in place.
        Each shard draws its faults at (shard, attempt) coordinates; an
        injected kill draws on the respawn budget, ending in unsharded
        degradation (``None``) once it is spent.
        """
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.count("shard.dispatched", len(shard_arrays))
        results: list[dict | None] = [None] * len(shard_arrays)
        for sid, (arrays, scalars) in enumerate(zip(shard_arrays,
                                                    shard_scalars)):
            attempt = 0
            while True:
                attempt += 1
                fault = self._draw(sid, attempt)
                try:
                    if fault is not None:
                        apply_fault(fault)
                    results[sid] = _call_runner(self.runner, arrays, scalars)
                    break
                except WorkerDeath:
                    if not self._respawn_or_degrade(sid):
                        return None
                except Exception as exc:
                    self._retry_or_raise(sid, attempt, exc)
        self._record_spans(results)
        return results

    def _record_spans(self, results) -> None:
        tracer = self.ctx.tracer
        if not tracer.enabled:
            return
        # Records stamp with perf_counter; anchor to the tracer epoch
        # (same monotonic clock).
        epoch = time.perf_counter() - tracer.now()
        for sid, rec in enumerate(results):
            if rec is None:
                continue
            tracer.record(f"shard{sid}", "shard", rec["t0"] - epoch,
                          rec["t1"] - epoch, tid=rec.get("pid"),
                          shard=sid)

    def digest(self) -> dict:
        """Execution half of the ``ColoringResult.shards`` record."""
        return {"respawns": self.respawns, "degraded": self.degraded}
