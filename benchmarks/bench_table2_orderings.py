"""Table II reproduction: ordering heuristics — work, depth, approximation.

Regenerates the paper's comparison of ordering heuristics: measured work
and depth of each ordering on a representative scale-free graph, plus
the measured degeneracy-order approximation quality against the exact
degeneracy (only ADG carries a proven factor).
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_markdown
from repro.bench.datasets import dataset
from repro.graphs.properties import degeneracy
from repro.ordering import ORDERINGS, get_ordering
from repro.ordering.adg import approximation_quality

from .conftest import save_report

ORDER_NAMES = sorted(ORDERINGS)


@pytest.fixture(scope="module")
def graph():
    return dataset("h_bai")


@pytest.mark.parametrize("name", ORDER_NAMES)
def test_bench_ordering(benchmark, name, graph):
    """Wall-clock of each ordering heuristic on the h-bai stand-in."""
    benchmark.pedantic(lambda: get_ordering(name, graph, seed=0),
                       rounds=1, iterations=1)


def test_report_table2_approx_sweep(benchmark):
    """Approximation factors of the degeneracy-order family across the
    structurally distinct stand-ins: ADG/ADG-M stay under their proven
    factors everywhere; SLL and ASL carry no proven factor, though on
    these stand-ins ASL measures exact and SLL at or below ADG."""
    from repro.bench.datasets import dataset

    rows = []
    for key in ["h_bai", "m_wta", "s_flx", "v_skt", "v_usa"]:
        g = dataset(key)
        d = degeneracy(g)
        for name in ["ADG", "ADG-M", "SLL", "ASL", "SL"]:
            o = get_ordering(name, g, seed=0)
            factor = approximation_quality(g, o) / max(d, 1)
            rows.append({"graph": key, "d": d, "ordering": name,
                         "measured_factor": round(factor, 3)})
            if name == "ADG":
                assert factor <= 2.02, (key, factor)
            if name == "ADG-M":
                assert factor <= 4.0, (key, factor)
            if name == "SL":
                assert factor <= 1.0, (key, factor)
    save_report("table2_approx_sweep",
                "Table II - measured degeneracy-order approximation "
                "factors across the dataset suite",
                format_markdown(rows))


def test_report_table2(benchmark, graph):
    """Emit the Table II rows: work, depth, and approximation quality."""
    d = degeneracy(graph)
    rows = []
    for name in ORDER_NAMES:
        o = get_ordering(name, graph, seed=0)
        approx = (approximation_quality(graph, o) / max(d, 1)
                  if o.levels is not None else None)
        rows.append({
            "ordering": name,
            "work": o.cost.work,
            "work/(n+m)": round(o.cost.work / (graph.n + 2 * graph.m), 2),
            "depth": o.cost.depth,
            "levels": o.num_levels,
            "measured_approx_factor": round(approx, 2) if approx else "n/a",
            "proven_factor": {"ADG": "2(1+eps)", "ADG-M": "4",
                              "SL": "exact"}.get(name, "none"),
        })
    body = format_markdown(rows)
    save_report("table2_orderings",
                f"Table II - ordering heuristics on {graph.name} "
                f"(n={graph.n}, m={graph.m}, d={d})", body)
    assert len(rows) == len(ORDER_NAMES)
