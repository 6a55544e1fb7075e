"""Memory-pressure comparison (paper Fig. 4), via the locality model.

The paper reports, per algorithm, the fraction of L3 misses and of
stalled CPU cycles (PAPI counters).  Here the L3-miss proxy is the
fraction of randomly indexed memory touches recorded by
:class:`repro.machine.memmodel.MemoryModel`, and the stalled-cycle proxy
is the barrier idle fraction of the Brent simulation (DESIGN.md S3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coloring.registry import color
from ..graphs.csr import CSRGraph
from ..machine.brent import simulate


@dataclass(frozen=True)
class MemoryPoint:
    """One algorithm's locality metrics on one graph."""

    algorithm: str
    graph: str
    random_fraction: float   # L3-miss-rate proxy
    idle_fraction: float     # stalled-cycles proxy
    total_touches: int
    colors: int


def memory_pressure(g: CSRGraph, algorithms: list[str],
                    processors: int = 32, seed: int = 0,
                    eps: float | None = None) -> list[MemoryPoint]:
    """Run each algorithm and report its locality metrics."""
    points: list[MemoryPoint] = []
    for alg in algorithms:
        res = color(alg, g, seed=seed, eps=eps)
        mem = res.combined_mem()
        sim = simulate(res.combined_cost(), processors)
        points.append(MemoryPoint(
            algorithm=alg, graph=g.name,
            random_fraction=mem.random_fraction,
            idle_fraction=sim.idle_fraction,
            total_touches=mem.total, colors=res.num_colors))
    return points
