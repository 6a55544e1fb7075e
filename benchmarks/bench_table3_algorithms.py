"""Table III reproduction: the full coloring-algorithm comparison.

For every implemented algorithm, regenerates the measured counterparts
of Table III's theoretical columns: color count vs the proven bound,
work vs O(n+m), and depth — on a representative scale-free stand-in.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import GraphParams, quality_bound
from repro.analysis.tables import format_markdown
from repro.bench.datasets import dataset
from repro.coloring.registry import ALGORITHMS, color
from repro.graphs.properties import degeneracy

from .conftest import save_report

ALG_NAMES = sorted(ALGORITHMS)


@pytest.fixture(scope="module")
def graph():
    return dataset("s_flx")


@pytest.mark.parametrize("name", ALG_NAMES)
def test_bench_algorithm(benchmark, name, graph):
    """Wall-clock of each coloring algorithm on the s-flx stand-in."""
    benchmark.pedantic(lambda: color(name, graph, seed=0),
                       rounds=1, iterations=1)


def test_report_table3(benchmark, graph):
    """Emit Table III rows: quality vs bound, work efficiency, depth."""
    d = degeneracy(graph)
    params = GraphParams(n=graph.n, m=graph.m, max_degree=graph.max_degree,
                         degeneracy=d)
    rows = []
    for name in ALG_NAMES:
        res = color(name, graph, seed=0)
        bound = quality_bound(name, params, res.eps)
        rows.append({
            "algorithm": name,
            "colors": res.num_colors,
            "bound": bound,
            "within": res.num_colors <= bound,
            "work/(n+m)": round(res.total_work / (graph.n + 2 * graph.m), 2),
            "depth": res.total_depth,
            "rounds": res.rounds,
        })
        assert res.num_colors <= bound, f"{name} violated its quality bound"
    rows.sort(key=lambda r: r["colors"])
    body = format_markdown(rows)
    save_report("table3_algorithms",
                f"Table III - coloring algorithms on {graph.name} "
                f"(n={graph.n}, m={graph.m}, Delta={graph.max_degree}, d={d})",
                body)
