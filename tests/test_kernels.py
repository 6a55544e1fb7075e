"""Unit and property tests for the segmented NumPy kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.kernels import (
    ScratchArena,
    fallback_arena,
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

    def test_with_scratch(self):
        ws = ScratchArena()
        group = np.zeros(4, dtype=np.int64)
        values = np.array([3, 1, 1, 7])
        first = grouped_mex(group, values, 1, scratch=ws)
        np.testing.assert_array_equal(first, [2])
        # The returned array must be fresh, not a scratch view: a
        # second call must not clobber the first result.
        second = grouped_mex(group, np.array([1, 2, 3, 4]), 1, scratch=ws)
        np.testing.assert_array_equal(first, [2])
        np.testing.assert_array_equal(second, [5])

    def test_single_group_no_scratch_uses_fallback_arena(self):
        # The scratch-less fast path draws its presence buffer from the
        # thread-local fallback arena instead of allocating fresh each
        # call.
        ws = fallback_arena()
        h0, m0 = ws.hits, ws.misses
        group = np.zeros(6, dtype=np.int64)
        values = np.arange(1, 7, dtype=np.int64)
        for _ in range(4):
            np.testing.assert_array_equal(grouped_mex(group, values, 1), [7])
        assert ws.hits > h0  # warm takes hit the persistent buffers
        assert ws.misses - m0 <= 3  # one miss per (key, dtype) at most

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, data):
        k = data.draw(st.integers(0, 40))
        values = np.asarray(data.draw(st.lists(
            st.one_of(st.integers(-2, 12), st.integers(10**9, 2**62)),
            min_size=k, max_size=k)), dtype=np.int64)
        group = np.zeros(k, dtype=np.int64)
        ws = data.draw(st.booleans())
        np.testing.assert_array_equal(
            grouped_mex(group, values, 1,
                        scratch=ScratchArena() if ws else None),
            grouped_mex_bruteforce(group, values, 1))


class TestScratchArena:
    def test_exact_size_views(self):
        ws = ScratchArena()
        a = ws.take("k", 10)
        assert a.size == 10 and a.dtype == np.int64
        b = ws.take("k", 7, np.float64)
        assert b.size == 7 and b.dtype == np.float64

    def test_reuse_same_buffer(self):
        ws = ScratchArena()
        a = ws.take("k", 100)
        b = ws.take("k", 50)
        assert np.shares_memory(a, b)
        assert ws.hits == 1 and ws.misses == 1

    def test_growth_reallocates(self):
        ws = ScratchArena()
        small = ws.take("k", 16)
        big = ws.take("k", 1000)
        assert big.size == 1000
        assert not np.shares_memory(small, big)

    def test_distinct_keys_distinct_buffers(self):
        ws = ScratchArena()
        a = ws.take("a", 32)
        b = ws.take("b", 32)
        assert not np.shares_memory(a, b)

    def test_iota_read_only_and_shared(self):
        ws = ScratchArena()
        i = ws.iota(10)
        np.testing.assert_array_equal(i, np.arange(10))
        with pytest.raises(ValueError):
            i[0] = 5
        j = ws.iota(4)
        assert np.shares_memory(i, j)

    def test_describe(self):
        ws = ScratchArena()
        ws.take("k", 64)
        ws.take("k", 32)
        d = ws.describe()
        assert d["buffers"] == 1
        assert d["bytes"] >= 64 * 8
        assert d["hits"] == 1 and d["misses"] == 1

    def test_dtype_alternation_no_thrash(self):
        # Regression: a key alternating between two dtypes used to
        # evict and reallocate every call; buffers are keyed on
        # (key, dtype), so after one miss per dtype every further take
        # is a hit against a stable buffer.
        ws = ScratchArena()
        a0 = ws.take("k", 32)               # miss (int64)
        b0 = ws.take("k", 32, bool)         # miss (bool)
        assert ws.describe()["buffers"] == 2
        assert ws.hits == 0 and ws.misses == 2
        for _ in range(5):
            a = ws.take("k", 32)
            b = ws.take("k", 32, bool)
            assert np.shares_memory(a, a0)
            assert np.shares_memory(b, b0)
        d = ws.describe()
        assert d["buffers"] == 2
        assert d["hits"] == 10 and d["misses"] == 2


class TestOutParameterParity:
    """out=/scratch=/seg= move where temporaries live, never the bits."""

    def test_segment_ids_out(self):
        counts = np.array([2, 0, 3, 1, 0])
        plain = segment_ids(counts)
        buf = np.empty(16, dtype=np.int64)
        np.testing.assert_array_equal(segment_ids(counts, out=buf), plain)

    def test_segment_ids_out_too_small(self):
        with pytest.raises(ValueError, match="out must hold"):
            segment_ids(np.array([4, 4]), out=np.empty(3, dtype=np.int64))

    def test_segment_ids_out_empty(self):
        got = segment_ids(np.empty(0, np.int64),
                          out=np.empty(4, dtype=np.int64))
        assert got.size == 0

    def test_gather_out_scratch_seg(self):
        data = np.arange(100, dtype=np.int64) * 3
        starts = np.array([5, 40, 0, 90])
        counts = np.array([10, 0, 4, 7])
        plain = multi_slice_gather(data, starts, counts)
        ws = ScratchArena()
        buf = ws.take("g", int(counts.sum()))
        seg = segment_ids(counts)
        for kwargs in ({"out": buf}, {"scratch": ws},
                       {"out": buf, "scratch": ws},
                       {"out": buf, "scratch": ws, "seg": seg}):
            np.testing.assert_array_equal(
                multi_slice_gather(data, starts, counts, **kwargs), plain)

    def test_gather_out_too_small(self):
        with pytest.raises(ValueError, match="out must hold"):
            multi_slice_gather(np.arange(10), np.array([0]), np.array([5]),
                               out=np.empty(3, dtype=np.int64))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_parity(self, data):
        n = data.draw(st.integers(1, 50))
        k = data.draw(st.integers(0, 12))
        arr = np.arange(n, dtype=np.int64) * 7 - 3
        starts = np.asarray(data.draw(st.lists(
            st.integers(0, n - 1), min_size=k, max_size=k)), np.int64)
        counts = np.asarray([data.draw(st.integers(0, n - int(s)))
                             for s in starts], np.int64)
        plain = multi_slice_gather(arr, starts, counts)
        ws = ScratchArena()
        scratched = multi_slice_gather(arr, starts, counts, scratch=ws,
                                       out=ws.take("out", counts.sum()))
        np.testing.assert_array_equal(scratched, plain)
        np.testing.assert_array_equal(
            segment_ids(counts, out=ws.take("seg", counts.sum())),
            segment_ids(counts))
