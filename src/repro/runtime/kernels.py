"""Module-level round kernels + the kernel-descriptor protocol.

Every engine round is expressed as a *kernel*: a module-level function

    kernel(lo, hi, a, **scalars) -> chunk result

where ``a`` maps short logical array names to NumPy arrays.  Engines
wrap one round as a :class:`Kernel` descriptor (kernel name + the
arrays + scalars) and hand it to :meth:`ExecutionContext.map_chunks`,
which calls it per chunk — inline on the serial backend, on pool
threads on the threaded backend, always over the engine's own arrays
by reference.  The name keys the adaptive dispatcher's per-kernel cost
model.

One function per round on every backend is what makes the bit-identical
contract easy to keep: there is no second implementation to drift.
Kernels never mutate shared arrays — they return chunk results and the
coordinator combines them in chunk order.  That purity is also what the
fault layer (:mod:`repro.runtime.faults`) leans on: a kernel chunk can
be retried after a failure, re-dispatched after a worker death, or
re-run on a degraded backend, and it recomputes exactly the same result
— so recovery never perturbs colors, rounds, or the accounting books.
Any new kernel added to :data:`KERNELS` must keep this property.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..primitives.kernels import (
    ScratchArena,
    multi_slice_gather,
    segment_any,
    segment_ids,
)


@dataclass(frozen=True)
class Kernel:
    """One round's per-chunk work: a :data:`KERNELS` name, the arrays
    it reads, and its scalar arguments.

    Calling the descriptor runs the kernel on the arrays as given.
    """

    name: str
    arrays: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def __call__(self, lo: int, hi: int):
        return KERNELS[self.name](lo, hi, self.arrays, **self.scalars)


_TLS = threading.local()


def scratch() -> ScratchArena:
    """The calling thread's kernel scratch arena (created on first use).

    Kernels run on the coordinator (serial, inlined rounds) or on pool
    threads; each execution lane gets its own arena, so scratch-backed
    intermediates never race, and the buffers persist across rounds — a
    pool thread that serves every ADG iteration stops allocating once
    its arena has grown to the round's working set.

    Scratch backs *intermediates only*: every array a kernel returns to
    the coordinator is freshly allocated (see :class:`ScratchArena`).
    """
    ws = getattr(_TLS, "arena", None)
    if ws is None:
        ws = _TLS.arena = ScratchArena()
    return ws


def _batch_neighbors(indptr: np.ndarray, indices: np.ndarray,
                     batch: np.ndarray,
                     ws: ScratchArena | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """CSR batch-neighborhood gather (same as CSRGraph.batch_neighbors,
    over the raw arrays a kernel receives).

    With ``ws`` the returned ``(seg, nbrs)`` are scratch-backed views —
    valid until the same thread's next kernel call, so callers must
    only derive *fresh* arrays from them before returning.  Kernels
    whose contract is to return ``seg``/``nbrs`` themselves
    (``simcol.trial``) must not pass ``ws``.
    """
    if ws is None:
        counts = (indptr[batch + 1] - indptr[batch]).astype(np.int64)
        nbrs = multi_slice_gather(indices, indptr[batch], counts)
        return segment_ids(counts), nbrs
    b = batch.size
    counts = np.take(indptr[1:], batch, out=ws.take("bn.cnt", b))
    starts = np.take(indptr, batch, out=ws.take("bn.start", b))
    np.subtract(counts, starts, out=counts)
    total = int(counts.sum())
    seg = segment_ids(counts, out=ws.take("bn.seg", total))
    nbrs = multi_slice_gather(indices, starts, counts,
                              out=ws.take("bn.nbrs", total),
                              seg=seg, scratch=ws)
    return seg, nbrs


# -- ADG ---------------------------------------------------------------------

def adg_select(lo: int, hi: int, a: dict, *, threshold: float):
    """Batch selection: active vertices at or below the degree threshold."""
    ws = scratch()
    sel = np.less_equal(a["D"][lo:hi], threshold,
                        out=ws.take("sel.le", hi - lo, bool))
    np.logical_and(sel, a["active"][lo:hi], out=sel)
    picked = np.flatnonzero(sel)  # fresh
    picked += lo
    return picked


def adg_push(lo: int, hi: int, a: dict, *, compute_ranks: bool):
    """Push UPDATE (Alg. 1), optionally fused with PRIORITIZE (Alg. 6)."""
    part = a["batch"][lo:hi]
    ws = scratch()
    seg, nbrs = _batch_neighbors(a["indptr"], a["indices"], part, ws)
    k = nbrs.size
    live_nbr = np.take(a["active"], nbrs, out=ws.take("push.live", k, bool))
    preds = None
    if compute_ranks:
        # UPDATEandPRIORITIZE (Alg. 6): a neighbor removed *after* v —
        # still active, or later in the sorted batch — is a DAG
        # predecessor of v.
        explicit = a["explicit"]
        owner = np.take(part, seg, out=ws.take("push.owner", k))
        is_pred = np.take(a["r_mask"], nbrs, out=ws.take("push.pred", k, bool))
        en = np.take(explicit, nbrs,
                     out=ws.take("push.en", k, explicit.dtype))
        eo = np.take(explicit, owner,
                     out=ws.take("push.eo", k, explicit.dtype))
        later = np.greater(en, eo, out=ws.take("push.later", k, bool))
        np.logical_and(is_pred, later, out=is_pred)
        np.logical_or(is_pred, live_nbr, out=is_pred)
        preds = np.compress(is_pred, owner)  # fresh
    return np.compress(live_nbr, nbrs), k, preds


def adg_pull(lo: int, hi: int, a: dict):
    """Pull UPDATE (Alg. 2): per-vertex Count(N_U(v) cap R)."""
    part = a["live"][lo:hi]
    ws = scratch()
    seg, nbrs = _batch_neighbors(a["indptr"], a["indices"], part, ws)
    in_r = np.take(a["r_mask"], nbrs, out=ws.take("pull.inr", nbrs.size, bool))
    dec = np.zeros(part.size, dtype=np.int64)  # fresh: returned
    np.add.at(dec, seg, in_r)
    return dec, nbrs.size


# -- SIM-COL -----------------------------------------------------------------

def simcol_trial(lo: int, hi: int, a: dict):
    """Trial evaluation (Alg. 5): reject equal active-neighbor draws
    and draws forbidden by the B_v bitmap.

    ``seg``/``nbrs`` are part of the return contract (the coordinator
    replays them for the bitmap commit), so the neighborhood gather
    deliberately does *not* use scratch — only the masks do.
    """
    mine = a["active"][lo:hi]
    colors, still = a["colors"], a["still"]
    seg, nbrs = _batch_neighbors(a["indptr"], a["indices"], mine)
    ws = scratch()
    k = nbrs.size
    cn = np.take(colors, nbrs, out=ws.take("sc.cn", k))
    cm = np.take(colors, mine, out=ws.take("sc.cm", mine.size))
    cms = np.take(cm, seg, out=ws.take("sc.cms", k))
    same = np.equal(cn, cms, out=ws.take("sc.eq", k, bool))
    stn = np.take(still, nbrs, out=ws.take("sc.st", k, bool))
    np.logical_and(same, stn, out=same)
    clash = segment_any(same, seg, mine.size)  # fresh
    clash |= a["forbidden"][mine, colors[mine]]
    md = int(np.bincount(seg, minlength=mine.size).max()) if k else 0
    return clash, seg, nbrs, md


# -- DEC-ADG -----------------------------------------------------------------

def dec_constraints(lo: int, hi: int, a: dict, *, level: int):
    """Per-partition gather: deg_l counts and higher-partition colors."""
    part = a["verts"][lo:hi]
    levels = a["levels"]
    ws = scratch()
    seg, nbrs = _batch_neighbors(a["indptr"], a["indices"], part, ws)
    k = nbrs.size
    lv = np.take(levels, nbrs, out=ws.take("dec.lv", k, levels.dtype))
    ge = np.greater_equal(lv, level, out=ws.take("dec.ge", k, bool))
    cg = np.bincount(np.compress(ge, seg), minlength=part.size)  # fresh
    higher = np.greater(lv, level, out=ws.take("dec.hi", k, bool))
    kept = int(np.count_nonzero(higher))
    owners = np.compress(higher, seg)  # fresh
    owners += lo
    nb_h = np.compress(higher, nbrs, out=ws.take("dec.nbh", kept))
    return cg, owners, np.take(a["colors"], nb_h), k


#: Name -> kernel function; the lookup table for descriptors.
KERNELS: dict[str, Callable] = {
    "adg.select": adg_select,
    "adg.push": adg_push,
    "adg.pull": adg_pull,
    "simcol.trial": simcol_trial,
    "dec.constraints": dec_constraints,
}

# The streaming-ingestion parse kernel lives with the graph substrate
# (repro.graphs.ingest imports no runtime modules at import time, so
# this bottom-of-module registration cannot cycle).
from ..graphs.ingest import ingest_parse_kernel  # noqa: E402

KERNELS["ingest.parse"] = ingest_parse_kernel
