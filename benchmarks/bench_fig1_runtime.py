"""Fig. 1 (run-time columns): per-graph run-times, reorder + color split.

Regenerates the 1st/3rd columns of the paper's Fig. 1: for each stand-in
graph and each algorithm of the SC and JP classes, the reordering and
coloring work, total depth, and the 32-processor Brent-simulated time.
"""

from __future__ import annotations

import pytest

from repro.bench.report import fig1_runtime_report
from repro.coloring.registry import color

from .conftest import save_report


@pytest.mark.parametrize("alg", ["JP-ADG", "JP-LLF", "JP-R", "ITR",
                                 "DEC-ADG-ITR"])
def test_bench_fig1_representative(benchmark, small_suite, alg):
    """Wall-clock of the headline algorithms on the h-bai stand-in."""
    g = small_suite["h_bai"]
    benchmark.pedantic(lambda: color(alg, g, seed=0),
                       rounds=1, iterations=1)


def test_report_fig1_runtime_small(benchmark, fig1_result):
    """Emit the smaller-graphs run-time block of Fig. 1."""
    body = fig1_runtime_report(fig1_result)
    save_report("fig1_runtime_small",
                "Fig. 1 (smaller graphs) - run-times, reorder + color split",
                body)
    # shape check: JP-ADG's coloring work is comparable to JP-LLF's
    # (the JP skeleton dominates), its reordering adds the ADG overhead
    for gname in {r.graph for r in fig1_result.records}:
        adg = fig1_result.get("JP-ADG", gname)
        llf = fig1_result.get("JP-LLF", gname)
        assert adg.coloring_work <= 4 * llf.coloring_work
        assert adg.reorder_work > llf.reorder_work


def test_report_fig1_runtime_large(benchmark, fig1_large_result):
    """Emit the larger-graphs run-time block of Fig. 1."""
    body = fig1_runtime_report(fig1_large_result)
    save_report("fig1_runtime_large",
                "Fig. 1 (larger graphs) - run-times, reorder + color split",
                body)


def test_fig1_shape_jp_adg_faster_than_sl(benchmark, fig1_result):
    """The paper: JP-ADG is consistently >= 1.5x faster than JP-SL.

    In the simulated-machine substitution the speed gap appears as
    depth: SL's sequential peeling gives it Omega(n) depth while ADG's
    is polylog-times-d.
    """
    for gname in {r.graph for r in fig1_result.records}:
        adg = fig1_result.get("JP-ADG", gname)
        sl = fig1_result.get("JP-SL", gname)
        assert adg.sim_time_32 < sl.sim_time_32, gname


def test_fig1_shape_jp_adg_within_overhead_of_fast_jp(benchmark, fig1_result):
    """JP-ADG's total simulated time stays within a modest factor of the
    fastest JP baselines (the paper reports within 1.3-1.4x; the
    simulated machine is coarser, so we assert a conservative 4x)."""
    for gname in {r.graph for r in fig1_result.records}:
        adg = fig1_result.get("JP-ADG", gname).sim_time_32
        fastest = min(fig1_result.get(a, gname).sim_time_32
                      for a in ["JP-R", "JP-LLF", "JP-LF", "JP-FF"])
        assert adg <= 4.0 * fastest, gname
