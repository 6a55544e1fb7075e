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
thread: ~150 lines of C (``csrc/itrlevels.c``) in the library
:mod:`repro.primitives.cbuild` builds.  For each partition, top level
first, the C reads each vertex's CSR row once, in one branch-free walk
that counts deg_l(v), collects the in-partition CSR and the higher
levels' colors; a short loop then fills the B_v bitmap rows from those
colors.  Each row B_v is sized by its own deg_l(v) + 2: deg_l bounds
its set colors, so a color in 1..deg_l(v) + 1 is always free.  The
bitmap thus holds at most the partition's degree sum plus two bytes a
vertex, however skewed its degrees.  One read of the running color
array tells the three kinds of neighbor apart: 0 for a lower level, a
negative local id in the partition, a color above it.  The synchronous
ITR rounds touch in-partition neighbors only, and each round's winners
commit their colors from their own rows: ``CSRGraph`` rows are
symmetric, so these are the (loser, winner) pairs a walk of every
active row would find, without rescanning the losers.  Without a C
compiler the NumPy rounds below compute the same colors on the same
per-row bitmap; they are also the C path's test oracle.

Both paths book nothing: :func:`itr_levels` returns the colors and the
pass's log, per partition and per round.  :func:`itr_color_partitions`
replays that log into the cost and memory books and the ``dec-itr.*``
tracer series in the order the rounds ran, and is the level loop's
entry point, mirroring :func:`repro.coloring.dec_adg.color_partitions`:
:class:`~repro.coloring.incremental.IncrementalColoring` re-runs it for
a full recompute.  The ITR and ITR-ASL baselines
(:mod:`repro.coloring.speculative`) run :func:`itr_levels` with every
vertex on one level and replay the log into their own books.
"""

from __future__ import annotations


import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.subgraph import induced_subgraph
from ..machine.costmodel import log2_ceil
from ..ordering.adg import adg_ordering
from ..primitives import cbuild
from ..primitives.kernels import multi_slice_gather, segment_any
from ..runtime import ExecutionContext
from .dec_adg import _constraints, partitions_from_levels
from .driver import drive
from .result import ColoringResult

#: DEC-ADG-ITR's default ε, ADG's slack: <= 2(1+ε)d + 1 colors.
DEC_ADG_ITR_EPS = 0.01


def _checked_vertex_array(a, n: int, name: str) -> np.ndarray:
    """``a`` as an aligned C-contiguous int64 array of length ``n``,
    else ``ValueError`` (the per-vertex bound the compiled pass relies
    on)."""
    a = np.asarray(a)
    if a.dtype != np.int64 or a.shape != (n,):
        raise ValueError(f"{name} must be an int64 array of length n")
    return np.require(a, np.int64, ["C", "A"])


def _rounds(part: CSRGraph, deg_l: np.ndarray, owners: np.ndarray,
            taken: np.ndarray, priority: np.ndarray, max_rounds: int | None,
            engine: str, log: list) -> np.ndarray:
    """ITR rounds within one partition (the NumPy path), one ``log``
    entry per round.  B_v is a flat bitmap laid out as the C pass's,
    deg_l(v) + 2 colors a row, first set from the (``owners``,
    ``taken``) colors of higher-partition neighbors."""
    n = part.n
    rowlen = deg_l + 2
    boff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rowlen, out=boff[1:])
    bm = np.zeros(int(boff[-1]), dtype=bool)
    fits = taken < rowlen[owners]
    bm[boff[owners[fits]] + taken[fits]] = True
    colors = np.zeros(n, dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    deg = np.diff(part.indptr)
    on = np.zeros(n, dtype=bool)
    limit = max_rounds if max_rounds is not None else 4 * n + 64
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > limit:
            raise RuntimeError(f"{engine} failed to converge")
        # Smallest free color: the first clear bit of each active row
        # past column 0 (one of 1..deg_l + 1 always is).
        span = rowlen[active] - 1
        start = np.zeros(active.size, dtype=np.int64)
        np.cumsum(span[:-1], out=start[1:])
        free = np.flatnonzero(~multi_slice_gather(bm, boff[active] + 1, span))
        colors[active] = free[np.searchsorted(free, start)] - start + 1

        # Conflict detection among same-round neighbors: the lower
        # priority of two equal colors loses.
        on[active] = True
        seg, nbrs = part.batch_neighbors(active)
        mine = active[seg]
        same = on[nbrs] & (colors[nbrs] == colors[mine])
        same &= priority[nbrs] > priority[mine]
        lost = segment_any(same, seg, active.size)
        losers = active[lost]
        colors[losers] = 0
        won = on[nbrs] & (colors[nbrs] > 0)
        on[active] = False
        log.append((active.size, nbrs.size, int(deg[active].max()),
                    losers.size, int(np.count_nonzero(won))))

        # A loser's B_v gains its winning neighbors' colors; one past
        # its row cannot be its first free color.
        fresh = won & lost[seg]
        owner, color = mine[fresh], colors[nbrs[fresh]]
        fits = color < rowlen[owner]
        bm[boff[owner[fits]] + color[fits]] = True
        active = losers
    return colors


def _levels_numpy(g: CSRGraph, levels: np.ndarray, num_levels: int,
                  priority: np.ndarray, max_rounds: int | None,
                  engine: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level loop in NumPy: the no-compiler path and the oracle."""
    colors = np.zeros(g.n, dtype=np.int64)
    pb = np.zeros((5, max(num_levels, 0)), dtype=np.int64)
    log: list = []
    partitions = partitions_from_levels(levels, num_levels)
    for level in range(num_levels, 0, -1):
        verts = partitions[level - 1]
        if verts.size == 0:
            continue
        counts_ge, owners, taken, dsum = _constraints(
            g.indptr, g.indices, verts, levels, level, colors)
        width = int(counts_ge.max()) + 3
        first = len(log)
        colors[verts] = _rounds(induced_subgraph(g, verts).graph, counts_ge,
                                owners, taken, priority[verts], max_rounds,
                                engine, log)
        pb[:, level - 1] = (verts.size, dsum, width,
                            np.count_nonzero(taken < width), len(log) - first)
    return colors, pb, np.array(log, dtype=np.int64).reshape(-1, 5).T


def _levels_c(fn, indptr: np.ndarray, indices: np.ndarray,
              levels: np.ndarray, num_levels: int, priority: np.ndarray,
              max_rounds: int | None,
              engine: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level loop as one compiled pass."""
    n = levels.size
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(1, num_levels + 2),
                             side="left")
    sizes = np.diff(bounds)
    # Scratch is sized by the largest partition: its vertex count and
    # its full-graph degree sum (an upper bound on its in-partition CSR
    # and on its higher-level neighbors).
    big = int(sizes.max(initial=0))
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.diff(indptr)[order], out=prefix[1:])
    span = int(np.diff(prefix[bounds]).max(initial=0))
    lidx, hbuf = np.empty((2, span), dtype=np.int64)
    lptr, boff = np.empty((2, big + 1), dtype=np.int64)
    lcol, lprio, stamp, active = np.empty((4, big), dtype=np.int64)
    # Every round commits the top-priority active vertex, so a partition
    # runs at most nv rounds (fewer when max_rounds cuts it off).
    limit = -1 if max_rounds is None else max(max_rounds, 0)
    cap = int(np.minimum(sizes, n if limit < 0 else limit).sum())
    colors = np.zeros(n, dtype=np.int64)
    pb = np.zeros((5, max(num_levels, 0)), dtype=np.int64)
    rb = np.zeros((5, cap), dtype=np.int64)
    done = int(fn(indptr, indices, priority, order, bounds, num_levels,
                  limit, cap, colors, lptr, lidx, hbuf, lcol, lprio, stamp,
                  active, boff, pb, rb))
    if done == -2:
        raise MemoryError(f"{engine} bitmap allocation failed")
    if done < 0:
        raise RuntimeError(f"{engine} failed to converge")
    return colors, pb, rb[:, :done]


def itr_levels(g: CSRGraph, levels: np.ndarray, num_levels: int,
               priority: np.ndarray, max_rounds: int | None,
               engine: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ITR over the level partitions, top level first; books nothing.

    ``levels`` and ``priority`` are ``g``'s level ids and priority
    permutation (int64 arrays of length n, levels in 1..num_levels,
    else ``ValueError``).  Runs the compiled pass when it builds, else
    the NumPy rounds; both return the same ``(colors, pb, rb)``:
    ``pb[:, L - 1]`` is partition L's (vertices, degree sum, palette
    width, kept higher-level colors, rounds) and ``rb[:, k]`` the k-th
    round's (active, neighbor sum, max degree, losers, committed
    pairs), in the order the rounds ran.  A round limit or bitmap
    allocation failure is raised in the name of ``engine``.
    """
    n = g.n
    levels = _checked_vertex_array(levels, n, "levels")
    if n and not 1 <= levels.min() <= levels.max() <= num_levels:
        raise ValueError("levels must lie in 1..num_levels")
    priority = _checked_vertex_array(priority, n, "priority")
    indptr, indices = g.checked_arrays
    fn = cbuild.entry("repro_itr_levels")
    if fn is None:
        g64 = CSRGraph(indptr=indptr, indices=indices, name=g.name)
        return _levels_numpy(g64, levels, num_levels, priority, max_rounds,
                             engine)
    return _levels_c(fn, indptr, indices, levels, num_levels, priority,
                     max_rounds, engine)


def _book_levels(ctx: ExecutionContext, max_degree: int, pb: np.ndarray,
                 rb: np.ndarray) -> None:
    """Replay :func:`itr_levels`' log into ``ctx``'s cost and memory
    books and ``dec-itr.*`` tracer series, in the order the rounds ran."""
    cost, mem, tracer = ctx.cost, ctx.mem, ctx.tracer
    gather_depth = log2_ceil(max(max_degree, 1))
    parts = pb.T.tolist()
    books = iter(zip(*rb.tolist()))
    for level in range(len(parts), 0, -1):
        nv, degsum, width, kept, rounds = parts[level - 1]
        if nv == 0:
            continue
        cost.round(degsum + nv, gather_depth)
        mem.gather(degsum)
        cost.scatter_decrement(kept)
        if tracer.enabled:
            tracer.gauge("dec-itr.partition", nv, round=level)
            tracer.gauge("dec-itr.palette", width, round=level)
        choose_depth = log2_ceil(max(width, 1))
        for r in range(1, rounds + 1):
            act, nsum, md, lost, committed = next(books)
            cost.round(act * width, choose_depth)
            mem.stream(act * width)
            cost.round(nsum + act, log2_ceil(max(md, 1)) + 1)
            mem.gather(nsum)
            if tracer.enabled:
                tracer.gauge("dec-itr.active", act, round=r)
                tracer.count("dec-itr.conflicts", lost, round=r)
                tracer.count("dec-itr.colored", act - lost, round=r)
            cost.scatter_decrement(committed)


def itr_color_partitions(g: CSRGraph, levels: np.ndarray, num_levels: int,
                         priority: np.ndarray, ctx: ExecutionContext,
                         max_rounds: int | None = None
                         ) -> tuple[np.ndarray, int, int]:
    """The DEC-ADG-ITR interior: ITR over the level partitions, top down.

    ``levels`` and ``priority`` are ``g``'s ADG level ids and tiebreak
    permutation (as in :func:`itr_levels`); the smallest-free color
    stays bounded by deg_l + 1, which gives the 2(1+eps)d + 1 quality
    bound.  Runs :func:`itr_levels` and books its log into ``ctx``.
    Returns ``(colors, rounds, conflicts)``.
    """
    with ctx.phase("dec-itr:color"):
        colors, pb, rb = itr_levels(g, levels, num_levels, priority,
                                    max_rounds, "DEC-ADG-ITR")
        _book_levels(ctx, g.max_degree, pb, rb)
    return colors, rb.shape[1], int(rb[3].sum())


def dec_adg_itr(g: CSRGraph, eps: float = DEC_ADG_ITR_EPS,
                seed: int | None = 0, variant: str = "avg",
                max_rounds: int | None = None,
                **run) -> ColoringResult:
    """Run DEC-ADG-ITR (quality <= 2(1+eps)d + 1); ``run`` as for
    :func:`~repro.coloring.driver.drive`.  ADG's rho_R tiebreak doubles
    as the ITR priority permutation."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return drive(
        g, "DEC-ADG-ITR" if variant == "avg" else "DEC-ADG-ITR-M",
        lambda g, o, ctx: itr_color_partitions(
            g, o.levels, o.num_levels, o.tiebreak, ctx,
            max_rounds=max_rounds),
        order=lambda g, ctx: adg_ordering(g, eps=eps, variant=variant,
                                          seed=seed, ctx=ctx),
        eps=eps, **run)
