"""Segmented NumPy kernels used by every ordering and coloring algorithm.

These are the vectorized forms of the per-vertex parallel loops in the
paper's pseudocode: gathering the concatenated neighborhoods of a vertex
batch, reducing per-segment, and computing the per-vertex minimum
excludant (the ``GetColor`` routine of JP, Alg. 3 lines 25-28).
"""

from __future__ import annotations

import numpy as np


class ScratchArena:
    """Keyed pool of reusable NumPy buffers for allocation-free hot paths.

    ``take(key, size, dtype)`` returns an exact-size view of a buffer
    that persists under ``key`` and grows geometrically, so a kernel
    that runs every round with roughly the same working-set size stops
    allocating after the first few rounds.  The contents of a taken
    buffer are *undefined* — callers must fully overwrite it (``out=``
    ufunc/take targets do).

    The one rule: scratch may only back *intermediates*.  Anything a
    round kernel returns to its caller must be freshly allocated,
    because the next take under the same key reuses the buffer.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}
        self._iota = np.empty(0, dtype=np.int64)
        self.hits = 0
        self.misses = 0

    def take(self, key: str, size: int, dtype=np.int64) -> np.ndarray:
        # Buffers are keyed on (key, dtype): a key alternating between
        # two dtypes (e.g. an int64 buffer name reused for a bool mask)
        # keeps one buffer per dtype instead of evicting and
        # reallocating on every call.
        size = int(size)
        dtype = np.dtype(dtype)
        slot = (key, dtype)
        buf = self._bufs.get(slot)
        if buf is None or buf.size < size:
            cap = max(size, 2 * (buf.size if buf is not None else 0), 16)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[slot] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf[:size]

    def iota(self, size: int) -> np.ndarray:
        """Read-only ``arange(size)`` view (shared, never mutated)."""
        size = int(size)
        if self._iota.size < size:
            grown = np.arange(max(size, 2 * self._iota.size, 16),
                              dtype=np.int64)
            grown.flags.writeable = False
            self._iota = grown
            self.misses += 1
        else:
            self.hits += 1
        return self._iota[:size]

    def describe(self) -> dict:
        return {"buffers": len(self._bufs),
                "bytes": int(sum(b.nbytes for b in self._bufs.values())
                             + self._iota.nbytes),
                "hits": self.hits, "misses": self.misses}


def segment_ids(counts: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Expand per-segment counts into a flat array of segment indices.

    ``segment_ids([2, 0, 3]) == [0, 0, 2, 2, 2]``.

    With ``out`` (an int64 buffer of at least ``counts.sum()`` items,
    e.g. from a :class:`ScratchArena`) the expansion is computed in
    place — mark segment starts, prefix-sum — and the filled ``out``
    view is returned; no allocation proportional to the total.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64) if out is None else out[:0]
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if out is None:
        return np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    total = int(counts.sum())
    if out.size < total:
        raise ValueError(f"out must hold {total} items, has {out.size}")
    ids = out[:total]
    ids[:] = 0
    if counts.size > 1 and total:
        bumps = np.cumsum(counts[:-1])
        # Empty segments stack bumps on one position; trailing empties
        # would land one past the end — drop those.
        np.add.at(ids, bumps[bumps < total], 1)
    np.cumsum(ids, out=ids)
    return ids


def multi_slice_gather(data: np.ndarray, starts: np.ndarray,
                       counts: np.ndarray, *,
                       out: np.ndarray | None = None,
                       seg: np.ndarray | None = None,
                       scratch: ScratchArena | None = None) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i]+counts[i]]`` for all i.

    This is the vectorized "for all v in batch: for all u in N(v)" gather:
    with CSR ``starts = indptr[batch]`` and ``counts = degrees[batch]`` it
    returns the concatenated neighbor lists of the batch, in batch order.

    ``out`` (a buffer of ``data``'s dtype, >= ``counts.sum()`` items)
    receives the gather in place.  ``scratch`` eliminates the index
    intermediates too; ``seg`` passes precomputed
    ``segment_ids(counts)`` so it is not rebuilt.  The result is
    bit-identical on every path — only where the temporaries live moves.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    total = int(counts.sum())
    if total == 0:
        return data[:0] if out is None else out[:0]
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # index[j] = starts[seg(j)] + (j - offsets[seg(j)])
    if scratch is None:
        if seg is None:
            idx = np.arange(total, dtype=np.int64)
            idx -= np.repeat(offsets, counts)
            idx += np.repeat(starts, counts)
        else:
            idx = starts[seg] - offsets[seg] + np.arange(total,
                                                         dtype=np.int64)
    else:
        if seg is None:
            seg = segment_ids(counts, out=scratch.take("msg.seg", total))
        idx = scratch.take("msg.idx", total)
        np.take(starts, seg, out=idx)
        tmp = scratch.take("msg.tmp", total)
        np.take(offsets, seg, out=tmp)
        np.subtract(idx, tmp, out=idx)
        np.add(idx, scratch.iota(total), out=idx)
    if out is None:
        return data[idx]
    if out.size < total:
        raise ValueError(f"out must hold {total} items, has {out.size}")
    res = out[:total]
    np.take(data, idx, out=res)
    return res


def batch_neighbors(indptr: np.ndarray, indices: np.ndarray,
                    batch: np.ndarray, ws: ScratchArena | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """CSR batch-neighborhood gather over raw arrays: ``(seg, nbrs)``
    with ``seg[j]`` the batch position owning ``nbrs[j]`` (the same as
    :meth:`~repro.graphs.csr.CSRGraph.batch_neighbors`).

    With ``ws`` both arrays are scratch-backed views, valid until the
    arena's next ``bn.*``/``msg.*`` take — derive fresh arrays from them
    before returning them to a caller.
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


def segment_sum(values: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` grouped by segment id (segments may be empty)."""
    out = np.zeros(n_segments, dtype=np.asarray(values).dtype)
    np.add.at(out, seg, values)
    return out


def segment_max(values: np.ndarray, seg: np.ndarray, n_segments: int,
                initial: int = 0) -> np.ndarray:
    """Per-segment maximum with ``initial`` for empty segments."""
    out = np.full(n_segments, initial, dtype=np.asarray(values).dtype)
    np.maximum.at(out, seg, values)
    return out


def segment_any(flags: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Per-segment logical OR of boolean ``flags``."""
    out = np.zeros(n_segments, dtype=bool)
    np.logical_or.at(out, seg, flags)
    return out


def segment_count(seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Number of elements per segment."""
    return np.bincount(seg, minlength=n_segments).astype(np.int64)


def grouped_mex(group: np.ndarray, values: np.ndarray,
                n_groups: int) -> np.ndarray:
    """Smallest positive integer absent from each group's value set.

    ``values <= 0`` are ignored (color 0 means "uncolored" throughout the
    library).  Groups with no positive values get mex 1.  This is the
    batched ``GetColor``: for a frontier of vertices, ``group`` is the
    frontier position of each (vertex, neighbor-color) pair and
    ``values`` the neighbor colors; the result is the smallest color not
    taken by any already-colored neighbor.

    Work O(k) (integer-sort based), depth O(log k) in the paper's model.

    With a single group the lexsort is skipped entirely: a group with
    ``c`` positive values has mex <= c + 1, so a presence bitmap over
    ``1..c+1`` answers directly — the common shape of late rounds,
    where one straggler vertex colors alone.
    """
    group = np.asarray(group, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if group.shape != values.shape:
        raise ValueError("group and values must have the same shape")
    out = np.ones(n_groups, dtype=np.int64)
    if group.size == 0:
        return out

    pos = values > 0
    kept = int(np.count_nonzero(pos))
    if kept == 0:
        return out

    if n_groups == 1:
        # Direct mex, no sort: cap values at kept+1, mark presence,
        # first unmarked slot >= 1 is the answer (a False slot always
        # exists: <= kept distinct values over kept+1 slots).
        present = np.zeros(kept + 2, dtype=bool)
        present[np.minimum(values[pos], kept + 1)] = True
        out[0] = int(np.argmin(present[1:])) + 1
        return out

    group = group[pos]
    values = values[pos]
    # Values larger than the group size cannot lower the mex (a group
    # with c values has mex <= c + 1); cap them so the sort key stays
    # small (keeps counting-sort linear even for huge sparse colors).
    gcount = np.bincount(group, minlength=n_groups)
    values = np.minimum(values, gcount[group] + 1)
    order = np.lexsort((values, group))
    g = group[order]
    v = values[order]
    keep = np.ones(g.size, dtype=bool)
    keep[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    g = g[keep]
    v = v[keep]

    # Rank of each kept value within its group (0-based).
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    counts = np.diff(np.r_[starts, g.size])
    rank = np.arange(g.size, dtype=np.int64) - np.repeat(starts, counts)

    # Mex = 1 + length of the prefix where sorted unique values are
    # exactly 1, 2, 3, ...  (v[rank] == rank + 1).
    consec = v == rank + 1
    falses_before = np.cumsum(~consec)  # inclusive count of breaks
    base = falses_before[starts] - (~consec[starts]).astype(np.int64)
    prefix_ok = falses_before - np.repeat(base, counts) == 0
    prefix_len = segment_sum(prefix_ok.astype(np.int64), np.repeat(
        np.arange(starts.size, dtype=np.int64), counts), starts.size)
    out[g[starts]] = prefix_len + 1
    return out


def grouped_mex_bruteforce(group: np.ndarray, values: np.ndarray,
                           n_groups: int) -> np.ndarray:
    """Reference implementation of :func:`grouped_mex` (tests/oracles)."""
    sets: list[set[int]] = [set() for _ in range(n_groups)]
    for gi, vi in zip(np.asarray(group).tolist(), np.asarray(values).tolist()):
        if vi > 0:
            sets[gi].add(vi)
    out = np.empty(n_groups, dtype=np.int64)
    for i, s in enumerate(sets):
        c = 1
        while c in s:
            c += 1
        out[i] = c
    return out
