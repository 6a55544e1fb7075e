"""Calibration of the work-depth cost model against wall-clock time.

Substitution S1 (DESIGN.md) replaces the paper's hardware measurements
with the analytic cost model; this module quantifies how faithful that
is on the one axis we *can* measure — single-thread execution: across a
graph-size sweep, the recorded work W of an algorithm should predict
its vectorized wall-clock time up to a near-constant factor.  The bench
asserts a strong rank correlation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..coloring.registry import color
from ..graphs.csr import CSRGraph


@dataclass(frozen=True)
class CalibrationPoint:
    """One (algorithm, graph) pairing of model work and measured time."""

    algorithm: str
    graph: str
    n: int
    m: int
    model_work: int
    wall_seconds: float


def calibrate(graphs: list[CSRGraph], algorithms: list[str],
              seed: int = 0, eps: float | None = None,
              repeats: int = 3) -> list[CalibrationPoint]:
    """Measure wall-clock (best of ``repeats``) and model work per pair."""
    points: list[CalibrationPoint] = []
    for g in graphs:
        for alg in algorithms:
            best = float("inf")
            res = None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                res = color(alg, g, seed=seed, eps=eps)
                best = min(best, time.perf_counter() - t0)
            assert res is not None
            points.append(CalibrationPoint(
                algorithm=alg, graph=g.name, n=g.n, m=g.m,
                model_work=res.total_work, wall_seconds=best))
    return points


def spearman_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (no scipy dependency needed)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        return 1.0
    rx = np.argsort(np.argsort(x)).astype(np.float64)
    ry = np.argsort(np.argsort(y)).astype(np.float64)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


def work_time_correlation(points: list[CalibrationPoint],
                          per_algorithm: bool = True) -> dict[str, float]:
    """Spearman correlation of model work vs wall time, per algorithm."""
    out: dict[str, float] = {}
    algs = {p.algorithm for p in points} if per_algorithm else {"<all>"}
    for alg in algs:
        sel = [p for p in points
               if not per_algorithm or p.algorithm == alg]
        out[alg] = spearman_correlation(
            np.asarray([p.model_work for p in sel]),
            np.asarray([p.wall_seconds for p in sel]))
    return out
