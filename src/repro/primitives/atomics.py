"""Atomic read-modify-write primitives of the CRCW setting (paper SS II-D).

``DecrementAndFetch`` (DAF) atomically decrements and returns the new
value; ``Join`` releases a waiter when its counter hits zero (JP's test
that all predecessors of a vertex are colored, Alg. 3 line 22 — the
sweep engine books those scatters through
:meth:`CostModel.scatter_decrement` instead of running them).
In the vectorized implementation a whole batch of DAFs is applied with a
scatter-add; ties are resolved exactly as hardware atomics would —
each counter reaches zero exactly once.
"""

from __future__ import annotations

import numpy as np

from ..machine.costmodel import CostModel


def decrement_and_fetch(counters: np.ndarray, targets: np.ndarray,
                        cost: CostModel | None = None) -> np.ndarray:
    """Apply one DAF per entry of ``targets`` (duplicates allowed), in place.

    Returns the indices whose counter reached exactly zero as a result of
    this batch — the set of vertices ``Join`` would release.  A vertex
    already at zero before the batch is *not* returned (it was released
    earlier), matching the exactly-once semantics of DAF+Join.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if cost is not None:
        dec = np.bincount(targets, minlength=1)
        max_coll = int(dec.max()) if dec.size else 1
        cost.scatter_decrement(targets.size, max_coll)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    before_positive = counters > 0
    np.subtract.at(counters, targets, 1)
    hit = np.unique(targets)
    released = hit[(counters[hit] <= 0) & before_positive[hit]]
    return released


def fetch_and_add(counters: np.ndarray, targets: np.ndarray, amount: int = 1,
                  cost: CostModel | None = None) -> None:
    """Batched atomic add (the dual of DAF), in place."""
    targets = np.asarray(targets, dtype=np.int64)
    if cost is not None:
        cost.scatter_decrement(targets.size)
    if targets.size:
        np.add.at(counters, targets, amount)
