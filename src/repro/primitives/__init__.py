"""Vectorized segment kernels, sorting, and the compiled-kernel builder."""

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
from .sorting import (
    SORTERS,
    argsort_by,
    counting_argsort,
    quick_argsort,
    radix_argsort,
)

__all__ = [
    "batch_neighbors",
    "grouped_mex", "grouped_mex_bruteforce", "multi_slice_gather",
    "segment_any", "segment_count", "segment_ids", "segment_max", "segment_sum",
    "SORTERS", "argsort_by", "counting_argsort", "quick_argsort", "radix_argsort",
]
