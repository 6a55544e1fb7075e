"""Theoretical bounds of Tables II and III, as evaluable formulas.

Each algorithm's proven guarantees — quality (number of colors), work,
and depth — are encoded as functions of the graph parameters (n, m,
Delta, d) and epsilon, so the benchmark harness can print
measured-vs-bound columns and the tests can assert that measured
quality never exceeds the proven bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GraphParams:
    """The parameters the paper's bounds are stated in."""

    n: int
    m: int
    max_degree: int
    degeneracy: int

    @property
    def log_n(self) -> float:
        return math.log2(max(self.n, 2))

    @property
    def log_d(self) -> float:
        return math.log2(max(self.degeneracy, 2))

    @property
    def log_delta(self) -> float:
        return math.log2(max(self.max_degree, 2))


def quality_bound(algorithm: str, params: GraphParams,
                  eps: float | None = 0.01) -> int:
    """The proven worst-case color count for ``algorithm`` (Table III).

    Returns the bound with the paper's ceilings applied:
    JP-ADG / DEC-ADG-ITR: ceil(2(1+eps)d) + 1; JP-ADG-M: 4d + 1;
    DEC-ADG: ceil((2+eps)d); DEC-ADG-M: ceil((4+eps)d); JP-SL /
    Greedy-SL: d + 1; everything else: Delta + 1.  Only the ε bounds
    read ``eps``; it may be ``None`` for the rest (a result's ``eps``
    for an algorithm without one).
    """
    d = params.degeneracy
    if algorithm in ("JP-ADG", "JP-ADG-O", "DEC-ADG-ITR"):
        return math.ceil(2 * (1 + eps) * d) + 1
    if algorithm == "DEC-ADG":
        return math.ceil((2 + eps) * d)
    if algorithm == "DEC-ADG-M":
        return math.ceil((4 + eps) * d)
    if algorithm in ("JP-ADG-M", "JP-ADG-M-O", "DEC-ADG-ITR-M"):
        return 4 * d + 1
    if algorithm in ("JP-SL", "Greedy-SL"):
        return d + 1
    return params.max_degree + 1


def adg_iteration_bound(n: int, eps: float) -> int:
    """Lemma 1: ADG performs at most ceil(log n / log(1+eps)) + 1 iterations."""
    if n <= 1:
        return 1
    if eps <= 0:
        return n  # no guarantee without slack; SL-like worst case
    return math.ceil(math.log(n) / math.log(1.0 + eps)) + 1


def adg_m_iteration_bound(n: int) -> int:
    """Lemma 14: ADG-M halves U each iteration -> ceil(log2 n) + 1."""
    if n <= 1:
        return 1
    return math.ceil(math.log2(n)) + 1


def adg_approx_factor(eps: float, variant: str = "avg") -> float:
    """The k of the partial k-approximate degeneracy order ADG outputs.

    Lemma 4: k = 2(1+eps) for the average variant; Lemma 15: k = 4 for
    the median variant.
    """
    if variant == "avg":
        return 2.0 * (1.0 + eps)
    if variant == "median":
        return 4.0
    raise ValueError(f"unknown variant {variant!r}")


def work_bound(algorithm: str, params: GraphParams, crew: bool = False) -> float:
    """Asymptotic work bound, as the dominating term's value (no constants).

    All the paper's algorithms are work-efficient — O(n + m) — except the
    CREW ADG variants, which pay O(m + n d) (Lemma 5).
    """
    nm = params.n + 2 * params.m
    if crew and algorithm in ("ADG", "JP-ADG", "DEC-ADG", "ADG-M"):
        return params.m * 2 + params.n * max(params.degeneracy, 1)
    return nm


def depth_bound(algorithm: str, params: GraphParams, eps: float = 0.01) -> float:
    """Asymptotic depth bound value (no constants), Table III formulas."""
    n, d = params.n, max(params.degeneracy, 1)
    log_n, log_d, log_delta = params.log_n, params.log_d, params.log_delta
    loglog_n = math.log2(max(params.log_n, 2))
    sqrt_m = math.sqrt(max(params.m, 1))
    delta = max(params.max_degree, 1)

    if algorithm in ("ADG", "ADG-M"):
        return log_n ** 2
    if algorithm in ("JP-ADG", "JP-ADG-M"):
        return (log_n ** 2
                + log_delta * (d * log_n + log_d * log_n ** 2 / loglog_n))
    if algorithm in ("DEC-ADG", "DEC-ADG-M"):
        return log_d * log_n ** 2
    if algorithm == "JP-R":
        return log_n + log_delta * min(sqrt_m, delta + log_delta * log_n / loglog_n)
    if algorithm == "JP-LLF":
        return log_n + log_delta * (min(delta, sqrt_m)
                                    + log_delta ** 2 * log_n / loglog_n)
    if algorithm == "JP-SLL":
        return log_delta * log_n + log_delta * (
            min(delta, sqrt_m) + log_delta ** 2 * log_n / loglog_n)
    if algorithm in ("JP-SL", "JP-FF", "Greedy-SL", "Greedy-FF", "Greedy-ID",
                     "Greedy-SD", "ID", "SD", "SL"):
        return float(n)  # Omega(n) worst cases / sequential
    if algorithm == "JP-LF":
        return float(delta ** 2)
    return float(n)  # unknown: no bound claimed


def sqrt_m_lower_bound_holds(params: GraphParams) -> bool:
    """Lemma 13: sqrt(m) >= d / 2 for every d-degenerate graph."""
    return math.sqrt(max(params.m, 0)) >= params.degeneracy / 2.0


# Formula strings for rendering Table II / Table III.
DEPTH_FORMULAS = {
    "ADG": "O(log^2 n)",
    "ADG-M": "O(log^2 n)",
    "SL": "O(n)",
    "SLL": "O(log Delta log n)",
    "ASL": "O(n)",
    "JP-ADG": "O(log^2 n + log Delta (d log n + log d log^2 n / loglog n))",
    "JP-ADG-M": "O(log^2 n + log Delta (d log n + log d log^2 n / loglog n))",
    "DEC-ADG": "O(log d log^2 n) w.h.p.",
    "DEC-ADG-M": "O(log d log^2 n) w.h.p.",
    "DEC-ADG-ITR": "O(I d log n)",
    "JP-R": "O(log n + log Delta min(sqrt m, Delta + log Delta log n/loglog n))",
    "JP-LLF": "O(log n + log Delta (min(Delta, sqrt m) + log^2 Delta log n/loglog n))",
    "JP-SLL": "O(log Delta log n + log Delta (min(Delta, sqrt m) + log^2 Delta log n/loglog n))",
    "JP-FF": "no general bound; Omega(n) for some graphs",
    "JP-LF": "no general bound; Omega(Delta^2) for some graphs",
    "JP-SL": "no general bound; Omega(n) for some graphs",
}

QUALITY_FORMULAS = {
    "JP-ADG": "2(1+eps)d + 1",
    "JP-ADG-M": "4d + 1",
    "DEC-ADG": "(2+eps)d",
    "DEC-ADG-M": "(4+eps)d",
    "DEC-ADG-ITR": "2(1+eps)d + 1",
    "JP-SL": "d + 1",
    "Greedy-SL": "d + 1",
}
