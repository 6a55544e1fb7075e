"""ADG: the parallel approximate degeneracy ordering (paper Alg. 1/2/6).

The core idea of the paper: instead of peeling one minimum-degree vertex
at a time (SL), remove *in parallel* every active vertex whose remaining
degree is at most ``(1 + eps) * delta_hat`` (the average degree of the
active subgraph).  Each batch gets the same level; levels are a partial
2(1+eps)-approximate degeneracy ordering (Lemma 4), the loop runs
O(log n) iterations (Lemma 1), and total work is O(n + m) under CRCW
(Lemma 2) or O(m + n d) under CREW (Lemma 5, ``update='pull'``).

Variants implemented, selected by keyword:

- ``variant='avg'``  — Alg. 1 (threshold from the average degree);
- ``variant='median'`` — ADG-M (SS V-D): remove the lower half by degree,
  a partial 4-approximate ordering (Lemma 15);
- ``update='push'``  — CRCW DecrementAndFetch scatter (Alg. 1 UPDATE);
- ``update='pull'``  — CREW per-vertex Count (Alg. 2);
- ``sort_batches=True`` — ADG-O (Alg. 6): each batch R is sorted by
  increasing remaining degree, giving an explicit total order (SS V-B);
- ``cache_degree_sums`` — maintain the running degree sum instead of
  re-reducing each iteration (SS V-F).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..primitives.kernels import ScratchArena, batch_neighbors
from ..primitives.sorting import argsort_by
from ..runtime import ExecutionContext
from .base import Ordering, random_tiebreak, total_order


# -- round kernels: pure over [lo, hi), scratch for intermediates only ------

def _select(lo: int, hi: int, D: np.ndarray, active: np.ndarray,
            threshold: float, ws: ScratchArena) -> np.ndarray:
    """Batch selection: active vertices at or below the degree threshold."""
    sel = np.less_equal(D[lo:hi], threshold,
                        out=ws.take("sel.le", hi - lo, bool))
    np.logical_and(sel, active[lo:hi], out=sel)
    picked = np.flatnonzero(sel)  # fresh
    picked += lo
    return picked


def _push(lo: int, hi: int, batch: np.ndarray, indptr: np.ndarray,
          indices: np.ndarray, active: np.ndarray, r_mask: np.ndarray,
          explicit: np.ndarray | None, ws: ScratchArena):
    """Push UPDATE (Alg. 1), fused with PRIORITIZE (Alg. 6) when
    ``explicit`` (the in-batch total order) is given.

    Returns ``(live neighbors, gathered count, DAG predecessor owners
    or None)``.
    """
    part = batch[lo:hi]
    seg, nbrs = batch_neighbors(indptr, indices, part, ws)
    k = nbrs.size
    live_nbr = np.take(active, nbrs, out=ws.take("push.live", k, bool))
    preds = None
    if explicit is not None:
        # UPDATEandPRIORITIZE (Alg. 6): a neighbor removed *after* v —
        # still active, or later in the sorted batch — is a DAG
        # predecessor of v.
        owner = np.take(part, seg, out=ws.take("push.owner", k))
        is_pred = np.take(r_mask, nbrs, out=ws.take("push.pred", k, bool))
        en = np.take(explicit, nbrs,
                     out=ws.take("push.en", k, explicit.dtype))
        eo = np.take(explicit, owner,
                     out=ws.take("push.eo", k, explicit.dtype))
        later = np.greater(en, eo, out=ws.take("push.later", k, bool))
        np.logical_and(is_pred, later, out=is_pred)
        np.logical_or(is_pred, live_nbr, out=is_pred)
        preds = np.compress(is_pred, owner)  # fresh
    return np.compress(live_nbr, nbrs), k, preds


def _pull(lo: int, hi: int, live: np.ndarray, indptr: np.ndarray,
          indices: np.ndarray, r_mask: np.ndarray, ws: ScratchArena):
    """Pull UPDATE (Alg. 2): per-vertex Count(N_U(v) cap R)."""
    part = live[lo:hi]
    seg, nbrs = batch_neighbors(indptr, indices, part, ws)
    in_r = np.take(r_mask, nbrs, out=ws.take("pull.inr", nbrs.size, bool))
    dec = np.zeros(part.size, dtype=np.int64)  # fresh: returned
    np.add.at(dec, seg, in_r)
    return dec, nbrs.size


def adg_ordering(
    g: CSRGraph,
    eps: float = 0.01,
    *,
    variant: str = "avg",
    update: str = "push",
    sort_batches: bool = False,
    sort_method: str = "counting",
    cache_degree_sums: bool = True,
    compute_ranks: bool = False,
    seed: int | None = 0,
    ctx: ExecutionContext | None = None,
    backend: str | None = None,
    workers: int | None = None,
    trace=None,
) -> Ordering:
    """Compute the (partial) approximate degeneracy ordering of ``g``.

    Returns an :class:`Ordering` whose ``levels`` array holds the
    1-based removal iteration of each vertex (the rho_ADG of the paper)
    and whose ``ranks`` impose the total order <rho_ADG, rho_R> — or the
    explicit sorted-batch order when ``sort_batches`` is set.

    Batch selection and the UPDATE scatters run as rounds of the
    execution context (``ctx``, or one built from
    ``backend``/``workers``); orderings and accounting are identical for
    every backend and worker count.  The ordering's cost/mem books are
    always its own (the paper splits run-times into reordering and
    coloring), so a caller's context contributes only its
    configuration, tracer, scratch and round counter.
    """
    if not eps >= 0:  # also rejects NaN
        raise ValueError(f"eps must be >= 0, got {eps}")
    if variant not in ("avg", "median"):
        raise ValueError(f"variant must be 'avg' or 'median', got {variant!r}")
    if update not in ("push", "pull"):
        raise ValueError(f"update must be 'push' or 'pull', got {update!r}")
    if compute_ranks and not sort_batches:
        # The fused DAG ranks (SS V-C) need the explicit total order of
        # Alg. 6; with random tie-breaking the final order is unknown
        # while the loop runs.
        raise ValueError("compute_ranks requires sort_batches=True")
    if compute_ranks and update != "push":
        raise ValueError("compute_ranks is fused into the push UPDATE")

    if ctx is not None:
        run = ctx.child(crew=(update == "pull"))
        owns = False
    else:
        run = ExecutionContext(backend=backend, workers=workers,
                               crew=(update == "pull"), trace=trace)
        owns = True
    tracer = run.tracer
    cost, mem = run.cost, run.mem
    ws = run.scratch  # buffers reused across iterations
    n = g.n
    indptr, indices = g.indptr, g.indices
    # D starts as a copy — CSRGraph.degrees is a cached, read-only array.
    D = g.degrees.copy()
    active = np.ones(n, dtype=bool)
    r_mask = np.zeros(n, dtype=bool)
    levels = np.zeros(n, dtype=np.int64)
    explicit = np.zeros(n, dtype=np.int64) if sort_batches else None
    pred_counts = np.zeros(n, dtype=np.int64) if compute_ranks else None
    counter = 0
    remaining = n
    sum_deg = int(D.sum()) if n else 0
    iteration = 0
    max_deg = g.max_degree

    phase_name = "order:adg" if variant == "avg" else "order:adg-m"
    try:
        with run.phase(phase_name):
            cost.reduce(n)  # initial degree sum
            while remaining:
                iteration += 1

                # -- select the removal batch R --------------------------------
                if variant == "avg":
                    if cache_degree_sums:
                        cost.round(2, 1)  # delta_hat from cached sum and count
                    else:
                        live = np.flatnonzero(active)
                        sum_deg = int(D[live].sum())
                        cost.reduce(remaining)
                        cost.reduce(remaining)
                        mem.stream(remaining, phase_name)
                    avg = sum_deg / remaining
                    threshold = (1.0 + eps) * avg
                    batch = run.map_chunks(
                        lambda lo, hi: _select(lo, hi, D, active,
                                               float(threshold), ws), n)
                    cost.parallel_for(remaining)
                    mem.stream(n, phase_name)
                    r_mask[:] = False
                    r_mask[batch] = True
                else:
                    # ADG-M: the floor(|U|/2)+parity smallest-degree vertices.
                    live = np.flatnonzero(active)
                    order = argsort_by(D[live], sort_method, cost=cost)
                    k = (remaining + 1) // 2
                    batch = np.sort(live[order[:k]])
                    r_mask[:] = False
                    r_mask[batch] = True
                    mem.stream(remaining, phase_name)

                if batch.size == 0:
                    # Cannot happen for valid inputs (the min degree is always
                    # <= the average), kept as a loud invariant check.
                    raise RuntimeError("ADG made no progress; invariant broken")

                levels[batch] = iteration
                removed_deg_sum = int(D[batch].sum())

                # -- explicit in-batch ordering (ADG-O, SS V-B) -----------------
                if sort_batches:
                    in_batch = argsort_by(D[batch], sort_method, cost=cost)
                    ordered = batch[in_batch]
                    explicit[ordered] = counter + np.arange(ordered.size)
                    counter += ordered.size
                    cost.parallel_for(batch.size)

                active[batch] = False
                remaining -= batch.size
                cost.round(batch.size, 1)  # U = U \ R via bitmap overwrite
                if tracer.enabled:
                    tracer.count("adg.batch", int(batch.size),
                                 round=iteration)
                    tracer.gauge("adg.remaining", int(remaining),
                                 round=iteration)

                # -- degree update ----------------------------------------------
                if update == "push":
                    live_targets, nbrs_total, preds = run.map_chunks(
                        lambda lo, hi: _push(lo, hi, batch, indptr, indices,
                                             active, r_mask, explicit
                                             if compute_ranks else None, ws),
                        batch.size)
                    mem.gather(nbrs_total, phase_name)
                    cost.scatter_decrement(nbrs_total)
                    if live_targets.size:
                        np.subtract.at(D, live_targets, 1)
                    cut = live_targets.size
                    if compute_ranks:
                        np.add.at(pred_counts, preds, 1)
                        cost.round(nbrs_total, 1)
                else:
                    live = np.flatnonzero(active)
                    dec, nbrs_total = run.map_chunks(
                        lambda lo, hi: _pull(lo, hi, live, indptr, indices,
                                             r_mask, ws), live.size)
                    mem.gather(nbrs_total, phase_name)
                    # Per-vertex Count(N_U(v) cap R): a Reduce over each row.
                    cost.round(nbrs_total + remaining,
                               log2_ceil(max(max_deg, 1)))
                    D[live] -= dec
                    cut = int(dec.sum())

                sum_deg = sum_deg - removed_deg_sum - cut
    finally:
        if owns:
            run.close()

    if sort_batches:
        ranks = total_order(explicit)
        name = "ADG-O" if variant == "avg" else "ADG-M-O"
    else:
        ranks = total_order(levels, random_tiebreak(n, seed))
        name = "ADG" if variant == "avg" else "ADG-M"
    return Ordering(name=name, ranks=ranks, levels=levels,
                    num_levels=iteration, cost=cost, mem=mem,
                    pred_counts=pred_counts)


def adg_m_ordering(g: CSRGraph, **kwargs) -> Ordering:
    """ADG-M: the median-degree variant (partial 4-approximate order)."""
    kwargs.setdefault("variant", "median")
    return adg_ordering(g, **kwargs)


def approximation_quality(g: CSRGraph, ordering: Ordering) -> int:
    """Max number of equal-or-higher-level neighbors over all vertices.

    For a partial k-approximate degeneracy ordering this is at most
    ``k * d`` (the quantity Lemma 4 bounds); tests compare it against
    ``2 (1 + eps) d`` using the exact degeneracy oracle.
    """
    if ordering.levels is None:
        raise ValueError("ordering has no level structure")
    if g.n == 0:
        return 0
    src, dst = g.edge_array()
    higher_or_equal = ordering.levels[dst] >= ordering.levels[src]
    counts = np.bincount(src[higher_or_equal], minlength=g.n)
    return int(counts.max()) if counts.size else 0
