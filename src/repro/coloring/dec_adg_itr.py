"""DEC-ADG-ITR: ADG decomposition driving the ITR speculative scheme.

The paper's contribution #4 (SS IV-C): keep DEC-ADG's low-degree
decomposition and bitmaps, but replace SIM-COL's random color draw with
ITR's choice of the *smallest* color not forbidden by B_v.  Conflicts
between same-round neighbors are resolved by a random priority; because
every vertex has at most k*d = 2(1+eps)*d constraining neighbors, the
smallest free color never exceeds k*d + 1, giving the 2(1+eps)d + 1
quality bound with ITR's practical speed.

The level loop is sequential (lower levels read higher levels'
colors), and the scheme is deterministic given the priority
permutation, so the whole interior runs as one pass on the calling
thread: ~120 lines of C built through :mod:`repro.primitives.cbuild`.
For each partition, top level first, the C walks the vertices' CSR
rows to build the in-partition CSR and the deg_l counts (which size
the bitmap), then again to fill the B_v bitmap rows from the higher
levels' colors; the synchronous ITR rounds then touch in-partition
neighbors only.  It returns per-partition and per-round books, and
:func:`itr_color_partitions` replays them into the cost and memory
books and the ``dec-itr.*`` tracer series in the order the rounds ran.
Without a C compiler the NumPy rounds below compute the same colors and
books; they are also the C path's test oracle.

The level loop is exposed as :func:`itr_color_partitions`, mirroring
:func:`repro.coloring.dec_adg.color_partitions`:
:class:`~repro.coloring.incremental.IncrementalColoring` re-runs it for
a full recompute.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..ordering.base import random_tiebreak
from ..primitives.cbuild import CLibrary, checked_csr
from ..primitives.kernels import segment_any
from ..runtime import ExecutionContext, resolve_context
from .dec_adg import partition_constraints, partitions_from_levels
from .result import ColoringResult

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ITR over the ADG level partitions, top level first.  Partition L is
   order[bounds[L-1]:bounds[L]].  loc (n slots) and the per-partition
   scratch lptr (largest partition + 1), lidx (largest partition degree
   sum), lcol, lprio, stamp and active (largest partition) need no
   initialization.  pb (4 x levels: degree sum, width, kept bits,
   rounds) and rb (5 x cap: active, neighbor sum, max degree, losers,
   committed pairs) start at 0.  Returns the number of rounds, -1 when
   a partition exceeds its round limit, -2 when a bitmap calloc fails. */
long long repro_itr_levels(long long n, const int64_t *indptr,
                           const int64_t *indices, const int64_t *levels,
                           const int64_t *priority, const int64_t *order,
                           const int64_t *bounds, long long num_levels,
                           long long max_rounds, long long cap,
                           int64_t *colors, int64_t *loc, int64_t *lptr,
                           int64_t *lidx, int64_t *lcol, int64_t *lprio,
                           int64_t *stamp, int64_t *active, int64_t *pb,
                           int64_t *rb)
{
    long long L, k = 0;
    for (L = num_levels; L >= 1; L--) {
        const int64_t *verts = order + bounds[L - 1];
        const int64_t nv = bounds[L] - bounds[L - 1];
        const int64_t limit = max_rounds >= 0 ? max_rounds : 4 * nv + 64;
        int64_t i, j, r, nact = nv, width, kept = 0, dsum = 0, top = 0, e = 0;
        unsigned char *bm;
        if (nv == 0)
            continue;
        for (i = 0; i < nv; i++)
            loc[verts[i]] = i;
        /* The in-partition CSR (local ids) and deg_l, the width bound. */
        lptr[0] = 0;
        for (i = 0; i < nv; i++) {
            const int64_t v = verts[i];
            int64_t ge = 0;
            for (j = indptr[v]; j < indptr[v + 1]; j++) {
                const int64_t lu = levels[indices[j]];
                ge += lu >= L;
                if (lu == L)
                    lidx[e++] = loc[indices[j]];
            }
            dsum += indptr[v + 1] - indptr[v];
            lptr[i + 1] = e;
            if (ge > top)
                top = ge;
            lprio[i] = priority[v];
            stamp[i] = 0;
            active[i] = i;
        }
        width = top + 3;
        bm = calloc((size_t)nv * (size_t)width, 1);
        if (bm == NULL)
            return -2;
        /* B_v: colors already taken by higher-partition neighbors. */
        for (i = 0; i < nv; i++) {
            const int64_t v = verts[i];
            for (j = indptr[v]; j < indptr[v + 1]; j++) {
                const int64_t u = indices[j], c = colors[u];
                if (levels[u] > L && c > 0 && c < width) {
                    bm[i * width + c] = 1;
                    kept++;
                }
            }
        }
        for (r = 1; nact > 0; r++) {
            int64_t a, nsum = 0, md = 0, nlost = 0, committed = 0;
            if (r > limit || k >= cap) {
                free(bm);
                return -1;
            }
            for (a = 0; a < nact; a++) {        /* first free bit */
                const int64_t v = active[a];
                const unsigned char *row = bm + v * width;
                const unsigned char *p = memchr(row + 1, 0, width - 1);
                lcol[v] = p ? p - row : 0;
                stamp[v] = r;
            }
            for (a = 0; a < nact; a++) {        /* losers: stamp -r */
                const int64_t v = active[a], d = lptr[v + 1] - lptr[v];
                nsum += d;
                if (d > md)
                    md = d;
                for (j = lptr[v]; j < lptr[v + 1]; j++) {
                    const int64_t u = lidx[j];
                    if ((stamp[u] == r || stamp[u] == -r)
                            && lcol[u] == lcol[v] && lprio[u] > lprio[v]) {
                        stamp[v] = -r;
                        break;
                    }
                }
            }
            /* Commit the winners' colors into the losers' rows; a
               loser's stale color is overwritten when it chooses again. */
            for (a = 0; a < nact; a++) {
                const int64_t v = active[a], lost = stamp[v] == -r;
                for (j = lptr[v]; j < lptr[v + 1]; j++) {
                    const int64_t u = lidx[j];
                    if (stamp[u] == r && lcol[u] > 0) {
                        committed++;
                        if (lost)
                            bm[v * width + lcol[u]] = 1;
                    }
                }
                if (lost)
                    active[nlost++] = v;
            }
            rb[k] = nact;
            rb[cap + k] = nsum;
            rb[2 * cap + k] = md;
            rb[3 * cap + k] = nlost;
            rb[4 * cap + k] = committed;
            k++;
            nact = nlost;
        }
        free(bm);
        for (i = 0; i < nv; i++)
            colors[verts[i]] = lcol[i];
        pb[L - 1] = dsum;
        pb[num_levels + L - 1] = width;
        pb[2 * num_levels + L - 1] = kept;
        pb[3 * num_levels + L - 1] = r - 1;
    }
    return k;
}
"""


def _bind(lib):
    fn = lib.repro_itr_levels
    arr = np.ctypeslib.ndpointer(dtype=np.int64,
                                 flags="C_CONTIGUOUS,ALIGNED")
    ll = ctypes.c_longlong
    fn.restype = ll
    fn.argtypes = [ll] + [arr] * 6 + [ll] * 3 + [arr] * 10
    return fn


_CITR = CLibrary("itrlevels", _C_SOURCE, _bind)


def _checked_vertex_array(a, n: int, name: str) -> np.ndarray:
    """``a`` as an aligned C-contiguous int64 array of length ``n``,
    else ``ValueError`` (the per-vertex bound the compiled pass relies
    on)."""
    a = np.asarray(a)
    if a.dtype != np.int64 or a.shape != (n,):
        raise ValueError(f"{name} must be an int64 array of length n")
    return np.require(a, np.int64, ["C", "A"])


def _itr_partition(part: CSRGraph, forbidden: np.ndarray,
                   priority: np.ndarray, ctx: ExecutionContext,
                   max_rounds: int | None) -> tuple[np.ndarray, int, int]:
    """ITR rounds within one partition, colors constrained by ``forbidden``
    (the NumPy path)."""
    cost, mem = ctx.cost, ctx.mem
    n = part.n
    colors = np.zeros(n, dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    rounds = 0
    conflicts = 0
    tracer = ctx.tracer
    limit = max_rounds if max_rounds is not None else 4 * n + 64
    width = forbidden.shape[1]
    deg = np.diff(part.indptr)
    still = np.zeros(n, dtype=bool)

    while active.size:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("DEC-ADG-ITR failed to converge")

        # Smallest color not forbidden for each active vertex: the first
        # False in its bitmap row (column 0 is the unused color 0).
        rows = forbidden[active]
        rows[:, 0] = True
        colors[active] = np.argmin(rows, axis=1)
        cost.round(active.size * width, log2_ceil(max(width, 1)))
        mem.stream(active.size * width, "dec-itr")

        # Conflict detection among same-round neighbors: the lower
        # priority of two equal colors loses.
        still[:] = False
        still[active] = True
        seg, nbrs = part.batch_neighbors(active)
        same = (colors[nbrs] == colors[active][seg]) & still[nbrs]
        same &= priority[nbrs] > priority[active][seg]
        lost = segment_any(same, seg, active.size)
        md = int(deg[active].max())
        cost.round(nbrs.size + active.size, log2_ceil(max(md, 1)) + 1)
        mem.gather(nbrs.size, "dec-itr")
        losers = active[lost]
        colors[losers] = 0
        conflicts += losers.size
        if tracer.enabled:
            tracer.gauge("dec-itr.active", int(active.size), round=rounds)
            tracer.count("dec-itr.conflicts", int(losers.size), round=rounds)
            tracer.count("dec-itr.colored",
                         int(active.size) - int(losers.size), round=rounds)

        # Record newly committed colors in active neighbors' bitmaps —
        # after the losers are reset, so only kept colors are forbidden.
        committed = (colors[nbrs] > 0) & still[nbrs]
        forbidden[active[seg[committed]], colors[nbrs[committed]]] = True
        cost.scatter_decrement(int(committed.sum()))
        active = losers
    return colors, rounds, conflicts


def _levels_numpy(g: CSRGraph, levels: np.ndarray, num_levels: int,
                  priority: np.ndarray, ctx: ExecutionContext,
                  max_rounds: int | None) -> tuple[np.ndarray, int, int]:
    """The level loop in NumPy: the no-compiler path and the oracle."""
    cost, tracer = ctx.cost, ctx.tracer
    colors = np.zeros(g.n, dtype=np.int64)
    partitions = partitions_from_levels(levels, num_levels)
    rounds_total = 0
    conflicts_total = 0
    for level in range(num_levels, 0, -1):
        verts = partitions[level - 1]
        if verts.size == 0:
            continue
        sub = induced_subgraph(g, verts)

        # deg_l(v) bounds the bitmap width: mex never exceeds degl + 1.
        counts_ge, taken, owners = partition_constraints(
            g.indptr, g.indices, g.max_degree, verts, levels, level,
            colors, ctx, "dec-itr", inline=True)
        width = int(counts_ge.max(initial=0)) + 3

        forbidden = np.zeros((verts.size, width), dtype=bool)
        keep = (taken > 0) & (taken < width)
        forbidden[owners[keep], taken[keep]] = True
        cost.scatter_decrement(int(keep.sum()))
        if tracer.enabled:
            tracer.gauge("dec-itr.partition", int(verts.size), round=level)
            tracer.gauge("dec-itr.palette", int(width), round=level)

        local_colors, rounds, conflicts = _itr_partition(
            sub.graph, forbidden, priority[verts], ctx, max_rounds)
        colors[verts] = local_colors
        rounds_total += rounds
        conflicts_total += conflicts
    return colors, rounds_total, conflicts_total


def _levels_c(fn, g: CSRGraph, indptr: np.ndarray, indices: np.ndarray,
              levels: np.ndarray, num_levels: int, priority: np.ndarray,
              ctx: ExecutionContext,
              max_rounds: int | None) -> tuple[np.ndarray, int, int]:
    """The level loop as one compiled pass, its books replayed after."""
    n = g.n
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(1, num_levels + 2),
                             side="left")
    sizes = np.diff(bounds)
    # Scratch is sized by the largest partition: its vertex count and
    # its full-graph degree sum (an upper bound on its in-partition CSR).
    big = int(sizes.max(initial=0))
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.diff(indptr)[order], out=prefix[1:])
    lidx = np.empty(int(np.diff(prefix[bounds]).max(initial=0)),
                    dtype=np.int64)
    loc = np.empty(n, dtype=np.int64)
    lptr = np.empty(big + 1, dtype=np.int64)
    lcol, lprio, stamp, active = np.empty((4, big), dtype=np.int64)
    # Every round commits the top-priority active vertex, so a partition
    # runs at most nv rounds (fewer when max_rounds cuts it off).
    limit = -1 if max_rounds is None else max(max_rounds, 0)
    cap = int(np.minimum(sizes, n if limit < 0 else limit).sum())
    colors = np.zeros(n, dtype=np.int64)
    pb = np.zeros((4, max(num_levels, 0)), dtype=np.int64)
    rb = np.zeros((5, cap), dtype=np.int64)
    done = int(fn(n, indptr, indices, levels, priority, order, bounds,
                  num_levels, limit, cap, colors, loc, lptr, lidx, lcol,
                  lprio, stamp, active, pb, rb))
    if done == -2:
        raise MemoryError("DEC-ADG-ITR bitmap allocation failed")
    if done < 0:
        raise RuntimeError("DEC-ADG-ITR failed to converge")

    # Replay the books exactly as the NumPy rounds record them.
    cost, mem, tracer = ctx.cost, ctx.mem, ctx.tracer
    gather_depth = log2_ceil(max(g.max_degree, 1))
    nv_by_level = sizes.tolist()
    degsum, widths, kept, rounds = pb.tolist()
    books = iter(zip(*rb[:, :done].tolist()))
    for level in range(num_levels, 0, -1):
        nv = nv_by_level[level - 1]
        if nv == 0:
            continue
        width = widths[level - 1]
        cost.round(degsum[level - 1] + nv, gather_depth)
        mem.gather(degsum[level - 1], "dec-itr")
        cost.scatter_decrement(kept[level - 1])
        if tracer.enabled:
            tracer.gauge("dec-itr.partition", nv, round=level)
            tracer.gauge("dec-itr.palette", width, round=level)
        choose_depth = log2_ceil(max(width, 1))
        for r in range(1, rounds[level - 1] + 1):
            act, nsum, md, lost, committed = next(books)
            cost.round(act * width, choose_depth)
            mem.stream(act * width, "dec-itr")
            cost.round(nsum + act, log2_ceil(max(md, 1)) + 1)
            mem.gather(nsum, "dec-itr")
            if tracer.enabled:
                tracer.gauge("dec-itr.active", act, round=r)
                tracer.count("dec-itr.conflicts", lost, round=r)
                tracer.count("dec-itr.colored", act - lost, round=r)
            cost.scatter_decrement(committed)
    return colors, done, int(rb[3, :done].sum())


def itr_color_partitions(g: CSRGraph, levels: np.ndarray, num_levels: int,
                         priority: np.ndarray, ctx: ExecutionContext,
                         max_rounds: int | None = None
                         ) -> tuple[np.ndarray, int, int]:
    """The DEC-ADG-ITR interior: ITR over the level partitions, top down.

    ``levels`` and ``priority`` are ``g``'s ADG level ids and tiebreak
    permutation (int64 arrays of length n, else ``ValueError``); the
    smallest-free color stays bounded by deg_l + 1, which gives the
    2(1+eps)d + 1 quality bound.  Runs the compiled pass when it
    builds, else the NumPy rounds; both return the same colors and
    record the same books.  Returns ``(colors, rounds, conflicts)``.
    """
    n = g.n
    levels = _checked_vertex_array(levels, n, "levels")
    priority = _checked_vertex_array(priority, n, "priority")
    indptr, indices = checked_csr(g.indptr, g.indices, n)
    fn = _CITR.load()
    with ctx.phase("dec-itr:color"):
        if fn is None:
            g64 = CSRGraph(indptr=indptr, indices=indices, name=g.name)
            return _levels_numpy(g64, levels, num_levels, priority, ctx,
                                 max_rounds)
        return _levels_c(fn, g, indptr, indices, levels, num_levels,
                         priority, ctx, max_rounds)


def dec_adg_itr(g: CSRGraph, eps: float = 0.01, seed: int | None = 0,
                variant: str = "avg", max_rounds: int | None = None,
                ctx: ExecutionContext | None = None,
                backend: str | None = None,
                workers: int | None = None,
                trace=None) -> ColoringResult:
    """Run DEC-ADG-ITR (quality <= 2(1+eps)d + 1)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers,
                                trace=trace)
    try:
        t0 = time.perf_counter()
        ordering = adg_ordering(g, eps=eps, variant=variant, seed=seed,
                                ctx=ctx)
        reorder_wall = time.perf_counter() - t0
        assert ordering.levels is not None

        priority_global = random_tiebreak(g.n, seed)
        t0 = time.perf_counter()
        colors, rounds_total, conflicts_total = itr_color_partitions(
            g, ordering.levels, ordering.num_levels, priority_global, ctx,
            max_rounds=max_rounds)
        wall = time.perf_counter() - t0

        name = "DEC-ADG-ITR" if variant == "avg" else "DEC-ADG-ITR-M"
        out = ColoringResult(algorithm=name, colors=colors, cost=ctx.cost,
                             mem=ctx.mem, reorder_cost=ordering.cost,
                             reorder_mem=ordering.mem, rounds=rounds_total,
                             conflicts_resolved=conflicts_total,
                             wall_seconds=wall,
                             reorder_wall_seconds=reorder_wall,
                             backend=ctx.backend, workers=ctx.workers,
                             phase_walls=dict(ctx.wall_by_phase),
                             trace_summary=ctx.trace_summary(),
                             resources=ctx.resource_record())
        if owns:
            ctx.ledger_record(out, graph=g, eps=eps)
        return out
    finally:
        if owns:
            ctx.close()
