"""Tests for the memory-locality accounting model."""

import pytest

from repro.machine.memmodel import MemoryModel, NullMemoryModel, ensure_mem


class TestMemoryModel:
    def test_starts_empty(self):
        m = MemoryModel()
        assert m.total == 0
        assert m.random_fraction == 0.0

    def test_stream_and_gather(self):
        m = MemoryModel()
        m.stream(30)
        m.gather(10)
        assert m.sequential == 30 and m.random == 10
        assert m.random_fraction == pytest.approx(0.25)

    def test_zero_or_negative_ignored(self):
        m = MemoryModel()
        m.stream(0)
        m.gather(-5)
        assert m.total == 0

    def test_phases(self):
        m = MemoryModel()
        with m.phase("a"):
            m.stream(4)
            with m.phase("b"):
                m.stream(1)
            m.gather(6)
        m.gather(2)
        assert m.by_phase["a"] == (4, 6)
        assert m.by_phase["b"] == (1, 0)
        assert m.by_phase["<toplevel>"] == (0, 2)

    def test_merge(self):
        a, b = MemoryModel(), MemoryModel()
        with a.phase("x"):
            a.stream(5)
        with b.phase("x"):
            b.gather(5)
        with b.phase("y"):
            b.stream(2)
        a.merge(b)
        assert a.by_phase["x"] == (5, 5)
        assert a.by_phase["y"] == (2, 0)
        assert a.total == 12

    def test_null_records_nothing(self):
        m = NullMemoryModel()
        m.stream(100)
        m.gather(100)
        assert m.total == 0

    def test_ensure_mem(self):
        m = MemoryModel()
        assert ensure_mem(m) is m
        assert isinstance(ensure_mem(None), MemoryModel)
