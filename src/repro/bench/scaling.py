"""Strong- and weak-scaling sweeps (paper Fig. 2).

Strong scaling: fix a graph, sweep processor counts, report the
Brent-simulated time T(P) = W/P + D of each algorithm (DESIGN.md S1).
Weak scaling: Kronecker graphs with a growing edge factor paired with a
matching processor count (the paper's '1+1 ... 32+32' x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coloring.registry import color
from ..graphs.csr import CSRGraph
from ..graphs.generators import kronecker
from ..machine.brent import simulate


@dataclass(frozen=True)
class ScalingPoint:
    """One (algorithm, configuration, processors) simulated measurement."""

    algorithm: str
    graph: str
    processors: int
    work: int
    depth: int
    sim_time: float
    speedup: float
    colors: int


def strong_scaling(g: CSRGraph, algorithms: list[str],
                   processor_counts: list[int] | None = None,
                   seed: int = 0, eps: float | None = None,
                   ) -> list[ScalingPoint]:
    """T(P) for each algorithm over a processor sweep on a fixed graph.

    The computation (hence W and D) is P-independent in this machine
    model, so each algorithm runs once and is then scheduled at every P.
    """
    processor_counts = processor_counts or [1, 2, 4, 8, 16, 32]
    points: list[ScalingPoint] = []
    for alg in algorithms:
        res = color(alg, g, seed=seed, eps=eps)
        cost = res.combined_cost()
        t1 = simulate(cost, 1).time
        for p in processor_counts:
            t = simulate(cost, p)
            points.append(ScalingPoint(
                algorithm=alg, graph=g.name, processors=p,
                work=cost.work, depth=cost.depth, sim_time=t.time,
                speedup=t1 / t.time, colors=res.num_colors))
    return points


def weak_scaling(algorithms: list[str], scale: int = 12,
                 edge_factors: list[int] | None = None,
                 seed: int = 0,
                 eps: float | None = None) -> list[ScalingPoint]:
    """The paper's weak-scaling axis: edge factor k paired with k threads.

    Vertices stay fixed (the paper uses n = 1M; here n = 2**scale) while
    edges/vertex and processors grow together, so per-processor work is
    roughly constant and a flat curve means perfect weak scaling.
    """
    edge_factors = edge_factors or [1, 2, 4, 8, 16, 32]
    points: list[ScalingPoint] = []
    for k in edge_factors:
        g = kronecker(scale=scale, edge_factor=k, seed=seed + k,
                      name=f"kron{scale}x{k}")
        for alg in algorithms:
            res = color(alg, g, seed=seed, eps=eps)
            cost = res.combined_cost()
            t = simulate(cost, k)
            t1 = simulate(cost, 1).time
            points.append(ScalingPoint(
                algorithm=alg, graph=g.name, processors=k,
                work=cost.work, depth=cost.depth, sim_time=t.time,
                speedup=t1 / t.time, colors=res.num_colors))
    return points
