"""Linear-time integer sorts used to order removal batches (paper SS V-B).

ADG-O sorts each removed batch R by remaining degree with a linear-time
integer sort; the paper evaluates radix sort, counting sort, and
quicksort.  All three are implemented here over NumPy arrays so the
ablation benchmark (A4 in DESIGN.md) can compare them; each returns the
*argsort* (a stable permutation) so callers reorder companion arrays.
"""

from __future__ import annotations

import numpy as np

from ..machine.costmodel import CostModel, log2_ceil


def counting_argsort(keys: np.ndarray, key_range: int | None = None,
                     cost: CostModel | None = None) -> np.ndarray:
    """Stable counting-sort permutation of non-negative integer keys."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(keys < 0):
        raise ValueError("counting sort requires non-negative keys")
    if key_range is None:
        key_range = int(keys.max()) + 1
    if cost is not None:
        cost.integer_sort(keys.size, key_range)
    counts = np.bincount(keys, minlength=key_range)
    starts = np.zeros(key_range, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    out = np.empty(keys.size, dtype=np.int64)
    # Stable scatter: positions within each bucket follow input order.
    within = _rank_within_bucket(keys, key_range)
    out[starts[keys] + within] = np.arange(keys.size, dtype=np.int64)
    return out


def _rank_within_bucket(keys: np.ndarray, key_range: int) -> np.ndarray:
    """For each element, its 0-based occurrence index among equal keys."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    counts = np.diff(np.r_[starts, keys.size])
    ranks_sorted = np.arange(keys.size, dtype=np.int64) - np.repeat(starts, counts)
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def radix_argsort(keys: np.ndarray, radix_bits: int = 8,
                  cost: CostModel | None = None) -> np.ndarray:
    """Stable LSD radix-sort permutation of non-negative integer keys."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(keys < 0):
        raise ValueError("radix sort requires non-negative keys")
    if not 1 <= radix_bits <= 16:
        raise ValueError("radix_bits must be in [1, 16]")
    max_key = int(keys.max())
    perm = np.arange(keys.size, dtype=np.int64)
    shift = 0
    mask = (1 << radix_bits) - 1
    while (max_key >> shift) > 0 or shift == 0:
        digits = (keys[perm] >> shift) & mask
        pass_perm = counting_argsort(digits, key_range=mask + 1, cost=cost)
        perm = perm[pass_perm]
        shift += radix_bits
        if (max_key >> shift) == 0:
            break
    return perm


def quick_argsort(keys: np.ndarray, cost: CostModel | None = None) -> np.ndarray:
    """Comparison-sort permutation (NumPy stable mergesort under the hood).

    Charged as O(n log n) work — the paper's quicksort baseline.
    """
    keys = np.asarray(keys)
    if cost is not None and keys.size > 0:
        cost.round(keys.size * max(1, log2_ceil(keys.size)),
                   2 * max(1, log2_ceil(keys.size)))
    return np.argsort(keys, kind="stable").astype(np.int64)


SORTERS = {
    "counting": counting_argsort,
    "radix": radix_argsort,
    "quick": quick_argsort,
}


def argsort_by(keys: np.ndarray, method: str = "counting",
               cost: CostModel | None = None) -> np.ndarray:
    """Dispatch to one of the integer sorters by name."""
    try:
        fn = SORTERS[method]
    except KeyError:
        raise ValueError(f"unknown sort method {method!r}; "
                         f"options: {sorted(SORTERS)}") from None
    return fn(keys, cost=cost)


def sort_books(method: str, n_items: int, max_key: int,
               cost: CostModel) -> None:
    """Book what ``argsort_by(keys, method, cost)`` books for
    ``n_items`` non-negative keys whose largest is ``max_key``, without
    sorting (a compiled pass sorts; its books are replayed here)."""
    if method not in SORTERS:
        raise ValueError(f"unknown sort method {method!r}; "
                         f"options: {sorted(SORTERS)}")
    if n_items <= 0:
        return
    if method == "counting":
        cost.integer_sort(n_items, max_key + 1)
    elif method == "radix":
        # One 8-bit counting pass per digit of max_key, at least one.
        for _ in range(max(1, -(-max_key.bit_length() // 8))):
            cost.integer_sort(n_items, 256)
    else:
        cost.round(n_items * max(1, log2_ceil(n_items)),
                   2 * max(1, log2_ceil(n_items)))
