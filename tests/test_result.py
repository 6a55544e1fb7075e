"""Tests for the ColoringResult container."""

import numpy as np
import pytest

from repro.coloring.result import ColoringResult
from repro.machine.costmodel import CostModel
from repro.machine.memmodel import MemoryModel


def make_result():
    cost = CostModel()
    cost.round(100, 10)
    reorder = CostModel()
    reorder.round(50, 5)
    mem = MemoryModel()
    mem.gather(10)
    rmem = MemoryModel()
    rmem.stream(20)
    return ColoringResult(algorithm="X", colors=np.array([1, 2, 1]),
                          cost=cost, mem=mem, reorder_cost=reorder,
                          reorder_mem=rmem, rounds=3,
                          wall_seconds=0.5, reorder_wall_seconds=0.25)


class TestColoringResult:
    def test_num_colors(self):
        assert make_result().num_colors == 2

    def test_num_colors_empty(self):
        r = ColoringResult(algorithm="X", colors=np.array([], dtype=np.int64))
        assert r.num_colors == 0

    def test_total_work_and_depth(self):
        r = make_result()
        assert r.total_work == 150
        assert r.total_depth == 15

    def test_totals_without_reorder(self):
        r = ColoringResult(algorithm="X", colors=np.array([1]))
        r.cost.round(7, 2)
        assert r.total_work == 7 and r.total_depth == 2

    def test_combined_cost(self):
        c = make_result().combined_cost()
        assert c.work == 150 and c.depth == 15

    def test_combined_mem(self):
        m = make_result().combined_mem()
        assert m.total == 30
        assert m.random_fraction == pytest.approx(10 / 30)

    def test_simulated_time(self):
        r = make_result()
        assert r.simulated_time(1) == pytest.approx(165.0)
        assert r.simulated_time(150) == pytest.approx(16.0)

    def test_total_wall(self):
        assert make_result().total_wall_seconds == pytest.approx(0.75)

    def test_summary_keys(self):
        s = make_result().summary()
        assert s["algorithm"] == "X"
        assert s["colors"] == 2
        assert s["work"] == 150
        assert set(s) >= {"n", "depth", "rounds", "conflicts", "wall_s"}

    def test_summary_reports_numpy_kernel_tier(self):
        assert make_result().summary()["kernel_tier"] == "numpy"
