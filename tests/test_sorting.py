"""Tests for the linear-time integer sorts (paper SS V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.costmodel import CostModel
from repro.primitives.sorting import (
    SORTERS,
    argsort_by,
    counting_argsort,
    quick_argsort,
    radix_argsort,
    sort_books,
)

ALL_METHODS = sorted(SORTERS)


@pytest.mark.parametrize("method", ALL_METHODS)
class TestSortCorrectness:
    def test_sorts(self, method):
        keys = np.array([5, 3, 8, 1, 9, 2, 2])
        perm = argsort_by(keys, method)
        assert np.all(np.diff(keys[perm]) >= 0)

    def test_is_permutation(self, method):
        keys = np.array([4, 4, 1, 0, 7])
        perm = argsort_by(keys, method)
        np.testing.assert_array_equal(np.sort(perm), np.arange(keys.size))

    def test_empty(self, method):
        assert argsort_by(np.array([], dtype=np.int64), method).size == 0

    def test_single(self, method):
        np.testing.assert_array_equal(
            argsort_by(np.array([42]), method), [0])

    def test_stable(self, method):
        keys = np.array([1, 0, 1, 0, 1])
        perm = argsort_by(keys, method)
        # equal keys keep input order
        zeros = perm[keys[perm] == 0]
        ones = perm[keys[perm] == 1]
        assert list(zeros) == sorted(zeros)
        assert list(ones) == sorted(ones)

    @given(st.lists(st.integers(0, 1000), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, method, lst):
        keys = np.asarray(lst, dtype=np.int64)
        perm = argsort_by(keys, method)
        np.testing.assert_array_equal(keys[perm], np.sort(keys))


class TestCountingSort:
    def test_negative_raises(self):
        with pytest.raises(ValueError):
            counting_argsort(np.array([-1, 2]))

    def test_explicit_key_range(self):
        keys = np.array([2, 0, 1])
        perm = counting_argsort(keys, key_range=5)
        np.testing.assert_array_equal(keys[perm], [0, 1, 2])

    def test_cost_linear(self):
        c = CostModel()
        counting_argsort(np.arange(100)[::-1].copy(), cost=c)
        assert c.work == 300


class TestRadixSort:
    def test_negative_raises(self):
        with pytest.raises(ValueError):
            radix_argsort(np.array([-1]))

    def test_bad_radix_bits(self):
        with pytest.raises(ValueError):
            radix_argsort(np.array([1]), radix_bits=0)

    def test_large_keys(self):
        keys = np.array([1 << 40, 1, 1 << 20, 0], dtype=np.int64)
        perm = radix_argsort(keys)
        np.testing.assert_array_equal(keys[perm], np.sort(keys))

    def test_narrow_radix(self):
        keys = np.array([255, 256, 254, 0])
        perm = radix_argsort(keys, radix_bits=4)
        np.testing.assert_array_equal(keys[perm], np.sort(keys))


class TestQuickSort:
    def test_charges_nlogn(self):
        c = CostModel()
        quick_argsort(np.arange(64)[::-1].copy(), cost=c)
        assert c.work == 64 * 6


def test_unknown_method_raises():
    with pytest.raises(ValueError):
        argsort_by(np.array([1]), "bogus")


class TestSortBooks:
    """``sort_books`` books what the sorter would, without sorting."""

    @given(st.lists(st.integers(0, 1 << 20), min_size=0, max_size=50),
           st.sampled_from(ALL_METHODS))
    @settings(max_examples=80, deadline=None)
    def test_matches_argsort_by(self, keys, method):
        keys = np.asarray(keys, dtype=np.int64)
        sorted_cost, booked = CostModel(), CostModel()
        argsort_by(keys, method, cost=sorted_cost)
        sort_books(method, keys.size, int(keys.max(initial=0)), booked)
        assert booked.round_log == sorted_cost.round_log

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("max_key", [0, 1, 255, 256, 65535, 65536])
    def test_radix_digit_boundaries(self, method, max_key):
        keys = np.array([max_key, 0, max_key // 2], dtype=np.int64)
        sorted_cost, booked = CostModel(), CostModel()
        argsort_by(keys, method, cost=sorted_cost)
        sort_books(method, keys.size, max_key, booked)
        assert booked.round_log == sorted_cost.round_log

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            sort_books("bogus", 3, 1, CostModel())
