"""Unit and property tests for the segmented NumPy kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.kernels import (
    grouped_mex,
    grouped_mex_bruteforce,
    multi_slice_gather,
    segment_any,
    segment_count,
    segment_ids,
    segment_max,
    segment_sum,
)


class TestSegmentIds:
    def test_basic(self):
        np.testing.assert_array_equal(segment_ids(np.array([2, 0, 3])),
                                      [0, 0, 2, 2, 2])

    def test_empty(self):
        assert segment_ids(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert segment_ids(np.array([0, 0, 0])).size == 0

    def test_single(self):
        np.testing.assert_array_equal(segment_ids(np.array([4])), [0, 0, 0, 0])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            segment_ids(np.array([1, -1]))


class TestMultiSliceGather:
    def test_basic(self):
        data = np.arange(10) * 10
        out = multi_slice_gather(data, np.array([0, 5]), np.array([2, 3]))
        np.testing.assert_array_equal(out, [0, 10, 50, 60, 70])

    def test_empty_slices(self):
        data = np.arange(10)
        out = multi_slice_gather(data, np.array([3, 7]), np.array([0, 0]))
        assert out.size == 0

    def test_mixed_empty(self):
        data = np.arange(10)
        out = multi_slice_gather(data, np.array([0, 4, 9]),
                                 np.array([1, 0, 1]))
        np.testing.assert_array_equal(out, [0, 9])

    def test_no_slices(self):
        out = multi_slice_gather(np.arange(5), np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        assert out.size == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            multi_slice_gather(np.arange(5), np.array([0]), np.array([1, 2]))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_python_slices(self, data):
        arr = np.arange(50)
        k = data.draw(st.integers(0, 6))
        starts, counts = [], []
        for _ in range(k):
            s = data.draw(st.integers(0, 49))
            c = data.draw(st.integers(0, 50 - s))
            starts.append(s)
            counts.append(c)
        expected = np.concatenate(
            [arr[s:s + c] for s, c in zip(starts, counts)]) if k else arr[:0]
        got = multi_slice_gather(arr, np.array(starts, dtype=np.int64),
                                 np.array(counts, dtype=np.int64))
        np.testing.assert_array_equal(got, expected)


class TestSegmentReductions:
    def test_segment_sum(self):
        out = segment_sum(np.array([1, 2, 3, 4]), np.array([0, 0, 2, 2]), 3)
        np.testing.assert_array_equal(out, [3, 0, 7])

    def test_segment_sum_empty(self):
        out = segment_sum(np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64), 4)
        np.testing.assert_array_equal(out, [0, 0, 0, 0])

    def test_segment_max(self):
        out = segment_max(np.array([5, 1, 9, 2]), np.array([0, 0, 1, 1]), 3)
        np.testing.assert_array_equal(out, [5, 9, 0])

    def test_segment_max_initial(self):
        out = segment_max(np.array([1]), np.array([1]), 2, initial=-7)
        np.testing.assert_array_equal(out, [-7, 1])

    def test_segment_any(self):
        flags = np.array([False, True, False, False])
        out = segment_any(flags, np.array([0, 0, 1, 2]), 4)
        np.testing.assert_array_equal(out, [True, False, False, False])

    def test_segment_count(self):
        out = segment_count(np.array([0, 0, 2]), 4)
        np.testing.assert_array_equal(out, [2, 0, 1, 0])


class TestGroupedMex:
    def test_basic(self):
        group = np.array([0, 0, 1, 1, 1])
        values = np.array([1, 2, 1, 3, 5])
        np.testing.assert_array_equal(grouped_mex(group, values, 3),
                                      [3, 2, 1])

    def test_empty_segments(self):
        # Interior empty segments (groups 1 and 2) get mex 1.
        group = np.array([0, 0, 3])
        values = np.array([1, 2, 1])
        np.testing.assert_array_equal(grouped_mex(group, values, 5),
                                      [3, 1, 1, 2, 1])

    def test_ignores_nonpositive(self):
        group = np.array([0, 0, 0])
        values = np.array([0, -3, 1])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [2])

    def test_empty(self):
        out = grouped_mex(np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(out, [1, 1, 1])

    def test_duplicates(self):
        group = np.array([0] * 6)
        values = np.array([1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [4])

    def test_gap(self):
        group = np.array([0, 0, 0])
        values = np.array([1, 2, 4])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [3])

    def test_large_values_do_not_block(self):
        group = np.array([0, 0])
        values = np.array([100, 200])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            grouped_mex(np.array([0]), np.array([1, 2]), 1)

    def test_unordered_groups(self):
        # groups interleaved in the input
        group = np.array([1, 0, 1, 0])
        values = np.array([1, 1, 2, 3])
        np.testing.assert_array_equal(grouped_mex(group, values, 2), [2, 3])

    def test_huge_sparse_values_capped(self):
        """Regression: astronomically large color values must not blow
        up the sort key — the cap clamps them to group size + 1 without
        changing any mex."""
        group = np.array([0, 0, 0, 1, 1, 2])
        values = np.array([1, 2, 2**62, 10**15, 1, 2**60])
        np.testing.assert_array_equal(grouped_mex(group, values, 4),
                                      [3, 2, 1, 1])

    def test_cap_boundary_value_exact(self):
        # A value exactly at count+1 is the group's own mex candidate:
        # [1, 2, 3] with count 3 -> mex 4; clamp must not disturb it.
        group = np.zeros(3, dtype=np.int64)
        values = np.array([1, 2, 3])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [4])
        # ... while count+1 among duplicates stays a gap detector.
        group = np.zeros(3, dtype=np.int64)
        values = np.array([1, 1, 4])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [2])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, data):
        n_groups = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(0, 40))
        group = np.asarray(data.draw(st.lists(
            st.integers(0, n_groups - 1), min_size=k, max_size=k)),
            dtype=np.int64)
        values = np.asarray(data.draw(st.lists(
            st.integers(-2, 12), min_size=k, max_size=k)), dtype=np.int64)
        np.testing.assert_array_equal(
            grouped_mex(group, values, n_groups),
            grouped_mex_bruteforce(group, values, n_groups))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_sparse_values(self, data):
        """Bruteforce parity with huge sparse draws (exercises the cap)."""
        n_groups = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(0, 25))
        group = np.asarray(data.draw(st.lists(
            st.integers(0, n_groups - 1), min_size=k, max_size=k)),
            dtype=np.int64)
        values = np.asarray(data.draw(st.lists(
            st.one_of(st.integers(-2, 6), st.integers(10**9, 2**62)),
            min_size=k, max_size=k)), dtype=np.int64)
        np.testing.assert_array_equal(
            grouped_mex(group, values, n_groups),
            grouped_mex_bruteforce(group, values, n_groups))


class TestGroupedMexSingleGroup:
    """The n_groups == 1 fast path (presence bitmap, no lexsort) — the
    shape of late JP waves where one straggler vertex colors alone."""

    def test_basic(self):
        group = np.zeros(4, dtype=np.int64)
        values = np.array([1, 2, 4, 2])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [3])

    def test_empty_and_nonpositive(self):
        np.testing.assert_array_equal(
            grouped_mex(np.empty(0, np.int64), np.empty(0, np.int64), 1),
            [1])
        group = np.zeros(3, dtype=np.int64)
        np.testing.assert_array_equal(
            grouped_mex(group, np.array([0, -5, 0]), 1), [1])

    def test_dense_prefix(self):
        group = np.zeros(5, dtype=np.int64)
        values = np.array([1, 2, 3, 4, 5])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [6])

    def test_huge_values_capped(self):
        group = np.zeros(3, dtype=np.int64)
        values = np.array([2**62, 1, 10**15])
        np.testing.assert_array_equal(grouped_mex(group, values, 1), [2])

    def test_results_are_fresh(self):
        # The single-group fast path returns a new array each call: a
        # second call must not clobber the first result.
        group = np.zeros(4, dtype=np.int64)
        first = grouped_mex(group, np.array([3, 1, 1, 7]), 1)
        second = grouped_mex(group, np.array([1, 2, 3, 4]), 1)
        np.testing.assert_array_equal(first, [2])
        np.testing.assert_array_equal(second, [5])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, data):
        k = data.draw(st.integers(0, 40))
        values = np.asarray(data.draw(st.lists(
            st.one_of(st.integers(-2, 12), st.integers(10**9, 2**62)),
            min_size=k, max_size=k)), dtype=np.int64)
        group = np.zeros(k, dtype=np.int64)
        np.testing.assert_array_equal(
            grouped_mex(group, values, 1),
            grouped_mex_bruteforce(group, values, 1))
