"""ADG: the parallel approximate degeneracy ordering (paper Alg. 1/2/6),
and the batched level peel it shares with ADG-M, ASL and SLL.

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

Table II's other two level orderings are the same loop under another
threshold rule (:data:`RULES`): ASL (:func:`asl_ordering`) removes every
live vertex at the live minimum degree, SLL (:func:`sll_ordering`)
every one at most 2^r, the threshold doubling (without counting a
round) while it is below the live minimum.  Neither carries an
approximation factor.

Every rule runs as one compiled pass (``csrc/adg.c``, in the library
:mod:`repro.primitives.cbuild` builds) whenever the library builds: a
single call runs every iteration — the rule's threshold (avg in the
same double arithmetic as the NumPy loop; ADG-M's k smallest degrees
by a counting pass, ties in the id order of the stable
:func:`~repro.primitives.sorting.argsort_by`), the batch and its level,
the in-batch stable counting sort and fused predecessor counts of
ADG-O, the push or pull UPDATE — and then builds the ranks <levels,
rho_R> by a counting sort over the random tie-break.  It returns seven
numbers per iteration (batch size, removed degree sum, neighbors
touched, cut, remaining, the batch's largest degree, and SLL's
doublings or ADG-M's largest live degree), from which :func:`_replay`
books ``cost``, ``mem`` and ADG's ``adg.*`` tracer series in the order
the NumPy loop books them; the two paths give identical levels, ranks
and books.  Without a C compiler every rule runs the NumPy loop
(:func:`_adg_numpy`), whose selection and UPDATE are plain calls of the
pure kernels below over all vertices at once; it is also the compiled
pass's test oracle.  The paper's parallelism lives in the work/depth
books each iteration charges.
"""

from __future__ import annotations


import numpy as np

from ..graphs.csr import CSRGraph
from ..machine.costmodel import log2_ceil
from ..primitives import cbuild
from ..primitives.kernels import batch_neighbors
from ..primitives.sorting import argsort_by, sort_books
from ..runtime import ExecutionContext
from .base import Ordering, ordering_context, random_tiebreak, total_order

#: The threshold rules of the peel -> ``repro_adg``'s rule id: ADG's
#: (1+eps) * average, ADG-M's median, ASL's minimum, SLL's doubling.
RULES = {"avg": 0, "median": 1, "min": 2, "doubling": 3}

#: The rules that book as Table II's baselines (ASL, SLL) always have:
#: no batch round, no ``adg.*`` series, the scatter charged per live
#: target.
BASELINE_RULES = ("min", "doubling")


# -- round kernels: pure ----------------------------------------------------

def _select(D: np.ndarray, active: np.ndarray,
            threshold: float) -> np.ndarray:
    """Batch selection: active vertices at or below the degree threshold."""
    return np.flatnonzero((D <= threshold) & active)


def _push(batch: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
          active: np.ndarray, r_mask: np.ndarray,
          explicit: np.ndarray | None):
    """Push UPDATE (Alg. 1), fused with PRIORITIZE (Alg. 6) when
    ``explicit`` (the in-batch total order) is given.

    Returns ``(live neighbors, gathered count, DAG predecessor owners
    or None)``.
    """
    seg, nbrs = batch_neighbors(indptr, indices, batch)
    live_nbr = active[nbrs]
    preds = None
    if explicit is not None:
        # UPDATEandPRIORITIZE (Alg. 6): a neighbor removed *after* v —
        # still active, or later in the sorted batch — is a DAG
        # predecessor of v.
        owner = batch[seg]
        later = r_mask[nbrs] & (explicit[nbrs] > explicit[owner])
        preds = owner[later | live_nbr]
    return nbrs[live_nbr], nbrs.size, preds


def _pull(live: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
          r_mask: np.ndarray):
    """Pull UPDATE (Alg. 2): per-vertex Count(N_U(v) cap R)."""
    seg, nbrs = batch_neighbors(indptr, indices, live)
    dec = np.zeros(live.size, dtype=np.int64)
    np.add.at(dec, seg, r_mask[nbrs])
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
    explicit sorted-batch order when ``sort_batches`` is set.  rho_R,
    drawn once from ``seed``, is kept as the ordering's ``tiebreak``
    (``None`` with ``sort_batches``).

    Both variants run the compiled pass when it builds, else the NumPy
    loop; both give the same ordering and books.  Both paths read
    ``g``'s bounds-checked arrays
    (:attr:`~repro.graphs.csr.CSRGraph.checked_arrays`).

    The context (``ctx``, or one built from ``backend``/``workers``)
    is recorded configuration: orderings and accounting are identical
    for every backend and worker count.  The ordering's cost/mem books
    are always its own (the paper splits run-times into reordering and
    coloring), so a caller's context contributes only its
    configuration and tracer.
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
    phase_name = "order:adg" if variant == "avg" else "order:adg-m"
    tiebreak = None if sort_batches else random_tiebreak(g.n, seed)
    try:
        with run.phase(phase_name):
            run.cost.reduce(g.n)  # initial degree sum
            levels, ranks, pred_counts, iterations = _peel(
                g, variant, tiebreak, run, eps=eps,
                update=update, sort_batches=sort_batches,
                sort_method=sort_method, compute_ranks=compute_ranks,
                cache_degree_sums=cache_degree_sums)
    finally:
        if owns:
            run.close()

    if sort_batches:
        name = "ADG-O" if variant == "avg" else "ADG-M-O"
    else:
        name = "ADG" if variant == "avg" else "ADG-M"
    return Ordering(name=name, ranks=ranks, levels=levels,
                    num_levels=iterations, cost=run.cost, mem=run.mem,
                    pred_counts=pred_counts, tiebreak=tiebreak)


def adg_m_ordering(g: CSRGraph, **kwargs) -> Ordering:
    """ADG-M: the median-degree variant (partial 4-approximate order)."""
    kwargs.setdefault("variant", "median")
    return adg_ordering(g, **kwargs)


def asl_ordering(g: CSRGraph, seed: int | None = 0,
                 ctx: ExecutionContext | None = None) -> Ordering:
    """ASL (approximate smallest-degree-last, Patwary, Gebremedhin and
    Pothen): each round removes every live vertex at the live minimum
    degree.  The batch can cascade degrees far above the degeneracy, so
    it carries no approximation factor (Table II)."""
    return _baseline(g, "ASL", "min", seed, ctx)


def sll_ordering(g: CSRGraph, seed: int | None = 0,
                 ctx: ExecutionContext | None = None) -> Ordering:
    """SLL (smallest-log-degree-last, Hasenplaugh et al.): round r
    removes every live vertex of degree at most 2^r, approximating SL
    in O(log Delta log n) depth, with no approximation factor."""
    return _baseline(g, "SLL", "doubling", seed, ctx)


def _baseline(g, name, rule, seed, ctx) -> Ordering:
    """ASL or SLL: the ``rule`` peel under phase ``order:<name>``,
    ranked <levels, rho_R> (later removal = higher rank)."""
    run = ordering_context(ctx)
    with run.phase(f"order:{name.lower()}"):
        levels, ranks, _, rounds = _peel(
            g, rule, random_tiebreak(g.n, seed), run,
            update="push", sort_batches=False, sort_method="counting",
            compute_ranks=False, cache_degree_sums=True)
    return Ordering(name=name, ranks=ranks, levels=levels,
                    num_levels=rounds, cost=run.cost, mem=run.mem)


def _peel(g, rule, tiebreak, run, eps=0.0, **opts):
    """The ``rule`` peel of ``g``: the compiled pass when it builds,
    else the NumPy loop.  Returns ``(levels, ranks, pred_counts or
    None, iterations)``."""
    indptr, indices = g.checked_arrays
    fn = cbuild.entry("repro_adg")
    if fn is not None:
        return _adg_c(fn, indptr, indices, g.max_degree, rule, eps,
                      tiebreak, run, **opts)
    return _adg_numpy(indptr, indices, g.max_degree, eps, rule, tiebreak,
                      run, **opts)


def _adg_c(fn, indptr, indices, max_deg, rule, eps, tiebreak, run,
           **opts):
    """The compiled pass, then its books replayed.  Returns ``(levels,
    ranks, pred_counts or None, iterations)``."""
    n = indptr.size - 1
    sort_batches, compute_ranks = opts["sort_batches"], opts["compute_ranks"]
    if tiebreak is None:
        tiebreak = np.empty(0, dtype=np.int64)
    levels = np.zeros(n, dtype=np.int64)
    ranks = np.empty(n, dtype=np.int64)
    pred = np.zeros(n if compute_ranks else 0, dtype=np.int64)
    books = np.zeros((7, n), dtype=np.int64)
    flags = ((opts["update"] == "pull") | 2 * sort_batches
             | 4 * compute_ranks)
    got = int(fn(n, indptr, indices, RULES[rule], float(eps), flags,
                 tiebreak, np.empty(n, dtype=np.int64), levels, ranks, pred,
                 np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
                 np.empty(max_deg + 1, dtype=np.int64), books))
    iterations = abs(got)
    _replay(books[:, :iterations], n, max_deg, rule, run,
            **opts)
    return levels, ranks, pred if compute_ranks else None, iterations


def _replay(books, n, max_deg, rule, run, *, update,
            sort_batches, sort_method, compute_ranks,
            cache_degree_sums) -> None:
    """Book each iteration of the compiled pass exactly as
    :func:`_adg_numpy` books it; raises where that loop raises."""
    cost, mem, tracer = run.cost, run.mem, run.tracer
    adg_books = rule not in BASELINE_RULES
    rows = zip(*(b.tolist() for b in books))
    for it, (size, _removed, touched, cut, left, bmax, extra) in \
            enumerate(rows, 1):
        remaining = left + size
        if rule == "avg":
            if cache_degree_sums:
                cost.round(2, 1)
            else:
                cost.reduce(remaining)
                cost.reduce(remaining)
                mem.stream(remaining)
            cost.parallel_for(remaining)
            mem.stream(n)
        elif rule == "median":
            sort_books(sort_method, remaining, extra, cost)
            mem.stream(remaining)
        elif rule == "min":
            cost.reduce(remaining)
            mem.stream(remaining)
            cost.parallel_for(remaining)
        else:
            for _ in range(extra + 1):  # each doubling, then the round
                cost.parallel_for(remaining)
                mem.stream(remaining)
        if size == 0:
            raise RuntimeError("ADG made no progress; invariant broken")
        if sort_batches:
            sort_books(sort_method, size, bmax, cost)
            cost.parallel_for(size)
        if adg_books:
            cost.round(size, 1)
            if tracer.enabled:
                tracer.count("adg.batch", size, round=it)
                tracer.gauge("adg.remaining", left, round=it)
        mem.gather(touched)
        if update == "push":
            cost.scatter_decrement(touched if adg_books else cut)
            if compute_ranks:
                cost.round(touched, 1)
        else:
            cost.round(touched + left, log2_ceil(max(max_deg, 1)))


def _adg_numpy(indptr, indices, max_deg, eps, rule, tiebreak, run,
               *, update, sort_batches, sort_method,
               compute_ranks, cache_degree_sums):
    """The NumPy loop.  Returns ``(levels, ranks, pred_counts or None,
    iterations)``."""
    tracer = run.tracer
    cost, mem = run.cost, run.mem
    n = indptr.size - 1
    D = np.diff(indptr)
    active = np.ones(n, dtype=bool)
    r_mask = np.zeros(n, dtype=bool)
    levels = np.zeros(n, dtype=np.int64)
    explicit = np.zeros(n, dtype=np.int64) if sort_batches else None
    pred_counts = np.zeros(n, dtype=np.int64) if compute_ranks else None
    adg_books = rule not in BASELINE_RULES
    counter = 0
    remaining = n
    sum_deg = int(D.sum()) if n else 0
    power = 1  # SLL's threshold 2^r
    iteration = 0

    while remaining:
        iteration += 1

        # -- select the removal batch R ----------------------------------------
        if rule == "avg":
            if cache_degree_sums:
                cost.round(2, 1)  # delta_hat from cached sum and count
            else:
                live = np.flatnonzero(active)
                sum_deg = int(D[live].sum())
                cost.reduce(remaining)
                cost.reduce(remaining)
                mem.stream(remaining)
            avg = sum_deg / remaining
            threshold = (1.0 + eps) * avg
            batch = _select(D, active, threshold)
            cost.parallel_for(remaining)
            mem.stream(n)
        elif rule == "median":
            # ADG-M: the floor(|U|/2)+parity smallest-degree vertices.
            live = np.flatnonzero(active)
            order = argsort_by(D[live], sort_method, cost=cost)
            k = (remaining + 1) // 2
            batch = np.sort(live[order[:k]])
            mem.stream(remaining)
        elif rule == "min":
            cost.reduce(remaining)
            mem.stream(remaining)
            batch = _select(D, active, D[active].min())
            cost.parallel_for(remaining)
        else:
            # SLL: a threshold below every live degree selects nothing;
            # it doubles and the round is not counted.
            low = D[active].min()
            while True:
                cost.parallel_for(remaining)
                mem.stream(remaining)
                if power >= low:
                    break
                power *= 2
            batch = _select(D, active, power)
        r_mask[:] = False
        r_mask[batch] = True

        if batch.size == 0:
            # Cannot happen for valid inputs (the min degree is always
            # <= the average), kept as a loud invariant check.
            raise RuntimeError("ADG made no progress; invariant broken")

        levels[batch] = iteration
        removed_deg_sum = int(D[batch].sum())

        # -- explicit in-batch ordering (ADG-O, SS V-B) -------------------------
        if sort_batches:
            in_batch = argsort_by(D[batch], sort_method, cost=cost)
            ordered = batch[in_batch]
            explicit[ordered] = counter + np.arange(ordered.size)
            counter += ordered.size
            cost.parallel_for(batch.size)

        active[batch] = False
        remaining -= batch.size
        if adg_books:
            cost.round(batch.size, 1)  # U = U \ R via bitmap overwrite
            if tracer.enabled:
                tracer.count("adg.batch", int(batch.size), round=iteration)
                tracer.gauge("adg.remaining", int(remaining),
                             round=iteration)

        # -- degree update ------------------------------------------------------
        if update == "push":
            live_targets, nbrs_total, preds = _push(
                batch, indptr, indices, active, r_mask,
                explicit if compute_ranks else None)
            mem.gather(nbrs_total)
            cost.scatter_decrement(nbrs_total if adg_books
                                   else live_targets.size)
            if live_targets.size:
                np.subtract.at(D, live_targets, 1)
            cut = live_targets.size
            if compute_ranks:
                np.add.at(pred_counts, preds, 1)
                cost.round(nbrs_total, 1)
        else:
            live = np.flatnonzero(active)
            dec, nbrs_total = _pull(live, indptr, indices, r_mask)
            mem.gather(nbrs_total)
            # Per-vertex Count(N_U(v) cap R): a Reduce over each row.
            cost.round(nbrs_total + remaining, log2_ceil(max(max_deg, 1)))
            D[live] -= dec
            cut = int(dec.sum())

        sum_deg = sum_deg - removed_deg_sum - cut
    ranks = (total_order(explicit) if sort_batches
             else total_order(levels, tiebreak))
    return levels, ranks, pred_counts, iteration


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
