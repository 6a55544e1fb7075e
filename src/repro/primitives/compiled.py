"""Compiled (numba) tier of the segmented kernel trio.

The NumPy tier of :func:`~repro.primitives.kernels.grouped_mex` pays a
lexsort plus ~10 full-array passes; the fused loops here do one pass.
Each kernel is written as a plain-Python function and decorated with
``numba.njit(cache=True, nogil=True)`` *only when numba is importable*
— without numba the undecorated functions still run (slowly), so the
logic is testable on any machine and the property suites prove the
implementations equivalent to the NumPy tier even where the compiled
tier cannot be selected.

Contracts mirror the NumPy tier exactly:

- same ``out=`` / ``seg=`` / ``scratch=`` keyword surface —
  ``scratch`` backs intermediates only, anything returned to a caller
  is freshly allocated;
- bit-identical results (same values, same dtypes, same ordering) on
  every input — only walls move;
- ``nogil=True`` so the threaded backend overlaps chunks inside the
  compiled loops exactly as it does inside NumPy's C kernels;
- ``cache=True`` so recompilation across processes hits the on-disk
  cache; :func:`prime` additionally runs every jitted entry on tiny
  inputs so the tier switch (or benchmark warm-up) absorbs the
  compile outside any timed span.

:func:`jp_wave_fused` is the fused gather+mex for the JP wave shape:
one pass over the frontier chunk's CSR rows computes the per-vertex
minimum excludant over predecessor colors with an epoch-stamped
presence array (no clearing between vertices), collects successors,
and tracks the wave's work/degree counters — no gather intermediates
at all.
"""

from __future__ import annotations

import threading

import numpy as np

from .kernels import ScratchArena, fallback_arena

try:
    import numba
    HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised on numba-free hosts
    numba = None
    HAVE_NUMBA = False


def _jit(fn):
    """``numba.njit(cache=True, nogil=True)`` when numba is present,
    the plain function otherwise (testable-everywhere fallback)."""
    if HAVE_NUMBA:
        return numba.njit(cache=True, nogil=True)(fn)
    return fn


# -- jitted loops (plain functions when numba is absent) ----------------------

@_jit
def _segment_ids_fill(counts, out):
    pos = 0
    for i in range(counts.size):
        for _ in range(counts[i]):
            out[pos] = i
            pos += 1
    return pos


@_jit
def _gather_fill(data, starts, counts, out):
    pos = 0
    for i in range(starts.size):
        s = starts[i]
        for j in range(counts[i]):
            out[pos] = data[s + j]
            pos += 1
    return pos


@_jit
def _grouped_mex_fill(group, values, counts, offsets, present, out):
    """Counting-mex without the lexsort.

    A group with ``c`` positive values has mex <= c + 1, so each group
    probes a private window of ``c + 1`` presence slots: count the
    positive values per group, prefix-sum the window offsets, mark
    presence (values past the window cannot lower the mex and are
    skipped — the capping the NumPy tier applies with ``minimum``),
    then scan each window for its first free slot.  One pass each.
    """
    n_groups = out.size
    for g in range(n_groups):
        counts[g] = 0
    for j in range(group.size):
        if values[j] > 0:
            counts[group[j]] += 1
    total = 0
    for g in range(n_groups):
        offsets[g] = total
        total += counts[g] + 1
    for j in range(total):
        present[j] = False
    for j in range(group.size):
        v = values[j]
        if v > 0:
            g = group[j]
            if v <= counts[g] + 1:
                present[offsets[g] + v - 1] = True
    for g in range(n_groups):
        base = offsets[g]
        c = 1
        while present[base + c - 1]:
            c += 1
        out[g] = c


@_jit
def _jp_wave_fill(indptr, indices, part, ranks, colors, present, epoch0,
                  succ_buf, chunk_colors):
    """One fused pass over a JP wave chunk.

    For each frontier vertex: walk its CSR row once, stamping the
    colors of predecessors (higher rank) into ``present`` and
    appending successors to ``succ_buf``; then probe ``present`` for
    the smallest unstamped color.  ``present`` holds per-vertex epoch
    stamps (``epoch0 + i``), so it is never cleared — the caller
    guarantees stamps are globally fresh.  Colors above ``deg + 1``
    cannot be the mex and are not stamped (the NumPy tier's cap).
    """
    ns = 0
    k = 0
    wave_deg = 0
    for i in range(part.size):
        v = part[i]
        s = indptr[v]
        e = indptr[v + 1]
        deg = e - s
        if deg > wave_deg:
            wave_deg = deg
        k += deg
        stamp = epoch0 + i
        rv = ranks[v]
        for j in range(s, e):
            u = indices[j]
            if ranks[u] > rv:
                c = colors[u]
                if 0 < c <= deg + 1:
                    present[c] = stamp
            else:
                succ_buf[ns] = u
                ns += 1
        c = 1
        while present[c] == stamp:
            c += 1
        chunk_colors[i] = c
    return ns, k, wave_deg


# -- wrappers (NumPy-tier contracts) ------------------------------------------

def segment_ids(counts: np.ndarray, *,
                out: np.ndarray | None = None) -> np.ndarray:
    """Compiled :func:`repro.primitives.kernels.segment_ids`."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64) if out is None else out[:0]
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    if out is None:
        res = np.empty(total, dtype=np.int64)
    else:
        if out.size < total:
            raise ValueError(f"out must hold {total} items, has {out.size}")
        res = out[:total]
    _segment_ids_fill(counts, res)
    return res


def multi_slice_gather(data: np.ndarray, starts: np.ndarray,
                       counts: np.ndarray, *,
                       out: np.ndarray | None = None,
                       seg: np.ndarray | None = None,
                       scratch: ScratchArena | None = None) -> np.ndarray:
    """Compiled :func:`repro.primitives.kernels.multi_slice_gather`.

    The fused loop needs no index intermediates, so ``seg`` and
    ``scratch`` are accepted for signature parity and unused.
    """
    del seg, scratch
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    total = int(counts.sum())
    if total == 0:
        return data[:0] if out is None else out[:0]
    if out is None:
        res = np.empty(total, dtype=data.dtype)
    else:
        if out.size < total:
            raise ValueError(f"out must hold {total} items, has {out.size}")
        res = out[:total]
    _gather_fill(data, starts, counts, res)
    return res


def grouped_mex(group: np.ndarray, values: np.ndarray, n_groups: int, *,
                scratch: ScratchArena | None = None) -> np.ndarray:
    """Compiled :func:`repro.primitives.kernels.grouped_mex`.

    The returned array is always freshly allocated; ``scratch`` (the
    caller's, else the module's thread-local fallback arena) backs the
    count/offset/presence intermediates only.
    """
    group = np.ascontiguousarray(group, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.int64)
    if group.shape != values.shape:
        raise ValueError("group and values must have the same shape")
    out = np.empty(n_groups, dtype=np.int64)
    if group.size == 0:
        out[:] = 1
        return out
    ws = scratch if scratch is not None else fallback_arena()
    counts = ws.take("cmx.cnt", n_groups)
    offsets = ws.take("cmx.off", n_groups)
    present = ws.take("cmx.present", group.size + n_groups, bool)
    _grouped_mex_fill(group, values, counts, offsets, present, out)
    return out


#: Thread-local epoch-stamped presence buffer for the fused JP wave.
#: Not a ScratchArena buffer: stamps must survive across calls (only
#: slots equal to the *current* vertex's stamp read as present), so the
#: buffer is zeroed at (re)allocation and the epoch counter is strictly
#: increasing per thread — a stale stamp can never collide.
_TLS = threading.local()


def _presence(size: int) -> np.ndarray:
    buf = getattr(_TLS, "present", None)
    if buf is None or buf.size < size:
        cap = max(size, 2 * (buf.size if buf is not None else 0), 16)
        buf = np.zeros(cap, dtype=np.int64)
        _TLS.present = buf
    return buf


def jp_wave_fused(indptr: np.ndarray, indices: np.ndarray,
                  part: np.ndarray, ranks: np.ndarray, colors: np.ndarray,
                  max_degree: int | None = None, *,
                  scratch: ScratchArena | None = None):
    """Fused gather+mex for one JP wave chunk.

    Returns ``(chunk_colors, succ, k, wave_deg)`` — exactly the
    derived outputs of the NumPy-tier ``jp.wave`` kernel body, with
    ``chunk_colors``/``succ`` freshly allocated (they return to the
    coordinator).  ``max_degree`` bounds the presence array; when not
    given it is derived from the chunk's own rows.
    """
    b = int(part.size)
    chunk_colors = np.empty(b, dtype=np.int64)
    if b == 0:
        return chunk_colors, indices[:0].copy(), 0, 0
    ws = scratch if scratch is not None else fallback_arena()
    starts = np.take(indptr, part, out=ws.take("jpf.s", b))
    ends = np.take(indptr[1:], part, out=ws.take("jpf.e", b))
    total = int(ends.sum() - starts.sum())
    if max_degree is None:
        max_degree = int(np.max(ends - starts)) if b else 0
    present = _presence(int(max_degree) + 2)
    epoch0 = getattr(_TLS, "epoch", 0) + 1
    _TLS.epoch = epoch0 + b  # strictly fresh stamps for the next call
    succ_buf = ws.take("jpf.succ", total, indices.dtype)
    ns, k, wave_deg = _jp_wave_fill(indptr, indices, part, ranks, colors,
                                    present, epoch0, succ_buf, chunk_colors)
    return chunk_colors, succ_buf[:ns].copy(), int(k), int(wave_deg)


def prime() -> None:
    """Compile every jitted kernel on tiny inputs (no-op without numba).

    Called by :func:`repro.primitives.tiers.set_kernel_tier` on the
    switch to the numba tier, so compilation cost lands at setup time
    — never inside a timed span.
    """
    if not HAVE_NUMBA:
        return
    counts = np.array([2, 0, 1], dtype=np.int64)
    out3 = np.empty(3, dtype=np.int64)
    _segment_ids_fill(counts, out3)
    data = np.arange(4, dtype=np.int64)
    starts = np.array([0, 2, 3], dtype=np.int64)
    _gather_fill(data, starts, counts, out3)
    group = np.array([0, 0, 1], dtype=np.int64)
    values = np.array([1, 3, 0], dtype=np.int64)
    _grouped_mex_fill(group, values, np.zeros(2, dtype=np.int64),
                      np.zeros(2, dtype=np.int64),
                      np.zeros(5, dtype=bool), np.empty(2, dtype=np.int64))
    # A 2-path: vertex 0 precedes vertex 1 (rank 1 > rank 0).
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    _jp_wave_fill(indptr, indices, np.array([1], dtype=np.int64),
                  np.array([0, 1], dtype=np.int64),
                  np.array([0, 0], dtype=np.int64),
                  np.zeros(4, dtype=np.int64), 1,
                  np.empty(1, dtype=np.int64), np.empty(1, dtype=np.int64))
