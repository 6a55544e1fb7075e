"""Segmented NumPy kernels used by every ordering and coloring algorithm.

These are the vectorized forms of the per-vertex parallel loops in the
paper's pseudocode: gathering the concatenated neighborhoods of a vertex
batch, reducing per-segment, and computing the per-vertex minimum
excludant (the ``GetColor`` routine of JP, Alg. 3 lines 25-28).
"""

from __future__ import annotations

import numpy as np


def segment_ids(counts: np.ndarray) -> np.ndarray:
    """Expand per-segment counts into a flat array of segment indices.

    ``segment_ids([2, 0, 3]) == [0, 0, 2, 2, 2]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def multi_slice_gather(data: np.ndarray, starts: np.ndarray,
                       counts: np.ndarray) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i]+counts[i]]`` for all i.

    This is the vectorized "for all v in batch: for all u in N(v)" gather:
    with CSR ``starts = indptr[batch]`` and ``counts = degrees[batch]`` it
    returns the concatenated neighbor lists of the batch, in batch order.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    total = int(counts.sum())
    if total == 0:
        return data[:0]
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # index[j] = starts[seg(j)] + (j - offsets[seg(j)])
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - offsets, counts)
    return data[idx]


def batch_neighbors(indptr: np.ndarray, indices: np.ndarray,
                    batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR neighbor lists of a vertex batch: ``(seg, nbrs)``
    with ``seg[j]`` the *position in the batch* owning ``nbrs[j]`` —
    the flattened "for all v in batch: for all u in N(v)" loop.
    """
    batch = np.asarray(batch, dtype=np.int64)
    counts = (indptr[batch + 1] - indptr[batch]).astype(np.int64)
    nbrs = multi_slice_gather(indices, indptr[batch], counts)
    return segment_ids(counts), nbrs


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
