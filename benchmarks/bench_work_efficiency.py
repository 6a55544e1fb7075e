"""Work-efficiency sweep: the O(n+m) work column of Table III as a series.

Runs the headline algorithms over a doubling sequence of Kronecker
graphs and reports work/(n+m) at each size.  A work-efficient algorithm
shows a flat series; a super-linear one grows.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_markdown
from repro.coloring.registry import color
from repro.graphs.generators import kronecker

from .conftest import save_report

ALGS = ["JP-ADG", "JP-R", "JP-LLF", "ITR", "DEC-ADG-ITR", "DEC-ADG", "Luby"]
SCALES = [9, 10, 11, 12]


@pytest.fixture(scope="module")
def sweep():
    return [kronecker(scale=s, edge_factor=8, seed=s, name=f"kron{s}")
            for s in SCALES]


@pytest.mark.parametrize("alg", ALGS)
def test_bench_largest_instance(benchmark, alg, sweep):
    g = sweep[-1]
    benchmark.pedantic(lambda: color(alg, g, seed=0), rounds=1,
                       iterations=1)


def test_report_work_efficiency(benchmark, sweep):
    rows = []
    ratios: dict[str, list[float]] = {a: [] for a in ALGS}
    for g in sweep:
        nm = g.n + 2 * g.m
        for alg in ALGS:
            res = color(alg, g, seed=0)
            ratio = res.total_work / nm
            ratios[alg].append(ratio)
            rows.append({"graph": g.name, "n": g.n, "m": g.m,
                         "algorithm": alg, "work": res.total_work,
                         "work/(n+m)": round(ratio, 2)})
    save_report("work_efficiency",
                "Work efficiency - work/(n+m) across a size sweep "
                "(flat = work-efficient, Table III column)",
                format_markdown(rows))
    # Every claimed-work-efficient algorithm stays within a flat band.
    for alg in ALGS:
        series = ratios[alg]
        assert max(series) / min(series) < 3.0, (alg, series)
        assert max(series) < 40, (alg, series)
