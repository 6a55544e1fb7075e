"""PRAM compute primitives (paper SS II-D) and vectorized segment kernels."""

from .atomics import decrement_and_fetch, fetch_and_add
from .kernels import (
    batch_neighbors,
    grouped_mex,
    grouped_mex_bruteforce,
    multi_slice_gather,
    segment_any,
    segment_count,
    segment_ids,
    segment_max,
    segment_sum,
)
from .reduce_ops import average, count, count_members, reduce_sum, reduce_with
from .scan import pack_indices, prefix_sum
from .sorting import (
    SORTERS,
    argsort_by,
    counting_argsort,
    quick_argsort,
    radix_argsort,
)

__all__ = [
    "decrement_and_fetch", "fetch_and_add",
    "batch_neighbors",
    "grouped_mex", "grouped_mex_bruteforce", "multi_slice_gather",
    "segment_any", "segment_count", "segment_ids", "segment_max", "segment_sum",
    "average", "count", "count_members", "reduce_sum", "reduce_with",
    "pack_indices", "prefix_sum",
    "SORTERS", "argsort_by", "counting_argsort", "quick_argsort", "radix_argsort",
]
