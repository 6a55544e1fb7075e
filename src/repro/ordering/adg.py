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
from ..primitives.sorting import argsort_by
from ..runtime import ExecutionContext, Kernel
from .base import Ordering, random_tiebreak, total_order


def _row_weights(ws, key: str, indptr: np.ndarray,
                 verts: np.ndarray) -> np.ndarray:
    """CSR row lengths of ``verts`` into a reusable scratch buffer."""
    w = np.take(indptr[1:], verts, out=ws.take(key, verts.size, indptr.dtype))
    lo = np.take(indptr, verts,
                 out=ws.take(key + ".lo", verts.size, indptr.dtype))
    np.subtract(w, lo, out=w)
    return w


def _concat(ws, key: str, parts: list) -> np.ndarray:
    """Concatenate int64 chunk results into a reusable scratch buffer."""
    total = sum(p.size for p in parts)
    out = ws.take(key, total)
    if total:
        np.concatenate(parts, out=out)
    return out


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

    Batch selection and the UPDATE scatters run as ``adg.*`` kernels
    chunked through the execution context (``ctx``, or one built from
    ``backend``/``workers``), weighted by remaining batch degrees; every
    backend (serial / threaded) produces bit-identical orderings and
    accounting.  The ordering's cost/mem books are always its own (the
    paper splits run-times into reordering and coloring), so a caller's
    context contributes only its backend, workers, and pool.
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
    ws = run.scratch  # coordinator-side buffers reused across iterations
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
                    kern = Kernel("adg.select",
                                  arrays={"active": active, "D": D},
                                  scalars={"threshold": float(threshold)})
                    batch = np.concatenate(run.map_chunks(kern, n))
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
                    arrays = {"batch": batch, "indptr": indptr,
                              "indices": indices, "active": active}
                    if compute_ranks:
                        arrays["r_mask"] = r_mask
                        arrays["explicit"] = explicit
                    kern = Kernel("adg.push", arrays=arrays,
                                  scalars={"compute_ranks": compute_ranks})
                    results = run.map_chunks(
                        kern, batch.size,
                        weights=_row_weights(ws, "adg.bw", indptr, batch))
                    live_targets = _concat(ws, "adg.live",
                                           [r[0] for r in results])
                    nbrs_total = sum(r[1] for r in results)
                    mem.gather(nbrs_total, phase_name)
                    cost.scatter_decrement(nbrs_total)
                    if live_targets.size:
                        np.subtract.at(D, live_targets, 1)
                    cut = live_targets.size
                    if compute_ranks:
                        preds = _concat(ws, "adg.pred",
                                        [r[2] for r in results])
                        np.add.at(pred_counts, preds, 1)
                        cost.round(nbrs_total, 1)
                else:
                    live = np.flatnonzero(active)
                    kern = Kernel("adg.pull",
                                  arrays={"live": live, "indptr": indptr,
                                          "indices": indices,
                                          "r_mask": r_mask})
                    results = run.map_chunks(
                        kern, live.size,
                        weights=_row_weights(ws, "adg.lw", indptr, live))
                    dec = _concat(ws, "adg.dec", [r[0] for r in results])
                    nbrs_total = sum(r[1] for r in results)
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
