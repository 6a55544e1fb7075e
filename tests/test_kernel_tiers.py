"""Kernel-tier registry, compiled-tier parity, and tier observability.

These tests run on every host, numba or not:

- the *implementations* in :mod:`repro.primitives.compiled` are plain
  Python when numba is absent, so their bit-identical parity with the
  NumPy tier is proven everywhere;
- tier *selection* branches on :func:`numba_available` with explicit
  if/else assertions — never a skip — so the numba-free path (``auto``
  silently degrading to numpy, explicit ``numba`` raising) is a tested
  contract, not an untested fallback.

Under ``REPRO_KERNEL_TIER=numba`` (the CI numba-parity job) the same
suite exercises the jitted kernels end to end.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import compiled
from repro.primitives.kernels import (
    ScratchArena,
    fallback_arena,
    grouped_mex,
    grouped_mex_bruteforce,
    multi_slice_gather,
    segment_ids,
)
from repro.primitives.tiers import (
    KERNEL_TIERS,
    active_kernel_tier,
    default_kernel_tier,
    numba_available,
    resolve_kernel_tier,
    set_kernel_tier,
)


class TestTierRegistry:
    def test_tiers_constant(self):
        assert KERNEL_TIERS == ("auto", "numpy", "numba")

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        assert default_kernel_tier() == "auto"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
        assert default_kernel_tier() == "numpy"
        assert resolve_kernel_tier(None) == "numpy"

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "cython")
        with pytest.raises(ValueError, match="REPRO_KERNEL_TIER"):
            default_kernel_tier()

    def test_resolve_invalid_raises(self):
        with pytest.raises(ValueError, match="kernel_tier"):
            resolve_kernel_tier("fortran")

    def test_resolve_is_concrete(self):
        # auto resolves by probing numba once; both arms are asserted
        # (no skips): with numba the compiled tier wins, without it the
        # fallback is silent.
        resolved = resolve_kernel_tier("auto")
        if numba_available():
            assert resolved == "numba"
        else:
            assert resolved == "numpy"

    def test_explicit_numba_without_numba_raises(self):
        # An explicit pin must fail loudly, not silently degrade.
        if numba_available():
            assert resolve_kernel_tier("numba") == "numba"
        else:
            with pytest.raises(RuntimeError, match="not importable"):
                resolve_kernel_tier("numba")

    def test_set_and_active(self):
        prev = active_kernel_tier()
        try:
            assert set_kernel_tier("numpy") == "numpy"
            assert active_kernel_tier() == "numpy"
        finally:
            set_kernel_tier(prev)


def _with_tier(tier):
    """Run compiled-tier wrappers directly — the dispatch seam in
    kernels.py is exercised by the end-to-end tests below."""
    return compiled if tier == "compiled" else None


class TestCompiledTrioParity:
    """compiled.* must be bit-identical to the NumPy tier — the
    wrappers run as plain Python without numba, so this parity holds
    on every host."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_grouped_mex_matches_numpy_and_oracle(self, data):
        n_groups = data.draw(st.integers(1, 8))
        size = data.draw(st.integers(0, 60))
        group = np.array(data.draw(st.lists(
            st.integers(0, n_groups - 1), min_size=size, max_size=size)),
            dtype=np.int64)
        # Mix of nonpositive values and huge sparse colors (cap path).
        values = np.array(data.draw(st.lists(
            st.one_of(st.integers(-3, 12), st.integers(10**6, 10**9)),
            min_size=size, max_size=size)), dtype=np.int64)
        oracle = grouped_mex_bruteforce(group, values, n_groups)
        a = grouped_mex(group, values, n_groups)
        b = compiled.grouped_mex(group, values, n_groups)
        np.testing.assert_array_equal(a, oracle)
        np.testing.assert_array_equal(b, oracle)
        assert a.dtype == b.dtype == np.int64
        ws = ScratchArena()
        np.testing.assert_array_equal(
            compiled.grouped_mex(group, values, n_groups, scratch=ws),
            oracle)

    def test_grouped_mex_empty_segments(self):
        group = np.array([0, 0, 3], dtype=np.int64)
        values = np.array([1, 2, 1], dtype=np.int64)
        for fn in (grouped_mex, compiled.grouped_mex):
            np.testing.assert_array_equal(fn(group, values, 5),
                                          [3, 1, 1, 2, 1])

    def test_grouped_mex_all_nonpositive(self):
        group = np.array([0, 1, 1], dtype=np.int64)
        values = np.array([0, -5, 0], dtype=np.int64)
        for fn in (grouped_mex, compiled.grouped_mex):
            np.testing.assert_array_equal(fn(group, values, 2), [1, 1])

    def test_grouped_mex_empty_input(self):
        for fn in (grouped_mex, compiled.grouped_mex):
            np.testing.assert_array_equal(
                fn(np.empty(0, np.int64), np.empty(0, np.int64), 3),
                [1, 1, 1])

    def test_grouped_mex_huge_sparse_colors(self):
        # Cap path: values far above the group size must not allocate
        # presence proportional to the color value.
        group = np.zeros(4, dtype=np.int64)
        values = np.array([1, 2, 10**9, 10**9 - 1], dtype=np.int64)
        for fn in (grouped_mex, compiled.grouped_mex):
            np.testing.assert_array_equal(fn(group, values, 1), [3])

    def test_grouped_mex_single_group(self):
        group = np.zeros(5, dtype=np.int64)
        values = np.array([2, 1, 4, 1, 2], dtype=np.int64)
        for fn in (grouped_mex, compiled.grouped_mex):
            np.testing.assert_array_equal(fn(group, values, 1), [3])

    def test_single_group_no_scratch_uses_fallback_arena(self):
        # Satellite fix: the scratch-less single-group fast path draws
        # its presence buffer from the thread-local fallback arena
        # instead of allocating fresh each call.
        ws = fallback_arena()
        h0, m0 = ws.hits, ws.misses
        group = np.zeros(6, dtype=np.int64)
        values = np.arange(1, 7, dtype=np.int64)
        for _ in range(4):
            np.testing.assert_array_equal(grouped_mex(group, values, 1), [7])
        assert ws.hits > h0  # warm takes hit the persistent buffers
        assert ws.misses - m0 <= 3  # one miss per (key, dtype) at most

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_segment_ids_and_gather_match_numpy(self, data):
        k = data.draw(st.integers(0, 8))
        counts = np.array(data.draw(st.lists(
            st.integers(0, 6), min_size=k, max_size=k)), dtype=np.int64)
        np.testing.assert_array_equal(compiled.segment_ids(counts),
                                      segment_ids(counts))
        data_arr = np.arange(100, dtype=np.int64) * 7
        starts = np.array(data.draw(st.lists(
            st.integers(0, 90), min_size=k, max_size=k)), dtype=np.int64)
        np.testing.assert_array_equal(
            compiled.multi_slice_gather(data_arr, starts, counts),
            multi_slice_gather(data_arr, starts, counts))

    def test_compiled_out_contracts(self):
        counts = np.array([2, 0, 3], dtype=np.int64)
        buf = np.empty(16, dtype=np.int64)
        got = compiled.segment_ids(counts, out=buf)
        assert np.shares_memory(got, buf)
        np.testing.assert_array_equal(got, segment_ids(counts))
        with pytest.raises(ValueError, match="out must hold"):
            compiled.segment_ids(np.array([4, 4]),
                                 out=np.empty(3, dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            compiled.segment_ids(np.array([1, -1]))
        data_arr = np.arange(50, dtype=np.int64)
        starts = np.array([5, 20], dtype=np.int64)
        cnts = np.array([4, 3], dtype=np.int64)
        gbuf = np.empty(16, dtype=np.int64)
        got = compiled.multi_slice_gather(data_arr, starts, cnts, out=gbuf)
        assert np.shares_memory(got, gbuf)
        np.testing.assert_array_equal(
            got, multi_slice_gather(data_arr, starts, cnts))
        with pytest.raises(ValueError, match="same shape"):
            compiled.multi_slice_gather(data_arr, starts, cnts[:1])
        with pytest.raises(ValueError, match="out must hold"):
            compiled.multi_slice_gather(data_arr, starts, cnts,
                                        out=np.empty(2, dtype=np.int64))


class TestFusedJPWave:
    def _wave_inputs(self, seed, n=200, m=900, frac=0.5):
        from repro.graphs import generators

        g = generators.gnm_random(n, m, seed=seed)
        rng = np.random.default_rng(seed + 1)
        ranks = rng.permutation(g.n).astype(np.int64)
        colors = rng.integers(0, 8, g.n).astype(np.int64)
        frontier = np.flatnonzero(rng.random(g.n) < frac).astype(np.int64)
        return g, ranks, colors, frontier

    def test_matches_numpy_wave_kernel(self):
        from repro.runtime.kernels import jp_wave

        for seed in (0, 1, 2):
            g, ranks, colors, frontier = self._wave_inputs(seed)
            a = {"frontier": frontier, "ranks": ranks, "colors": colors,
                 "indptr": g.indptr, "indices": g.indices}
            prev = active_kernel_tier()
            set_kernel_tier("numpy")
            try:
                _, c1, s1, k1, d1 = jp_wave(0, frontier.size, a)
            finally:
                set_kernel_tier(prev)
            c2, s2, k2, d2 = compiled.jp_wave_fused(
                g.indptr, g.indices, frontier, ranks, colors)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(s1, s2)
            assert (k1, d1) == (k2, d2)
            assert c2.dtype == c1.dtype and s2.dtype == s1.dtype

    def test_epoch_stamps_fresh_across_calls(self):
        # Repeated calls on the same thread reuse the presence buffer;
        # stale stamps from earlier calls must never read as present.
        g, ranks, colors, frontier = self._wave_inputs(3)
        first = compiled.jp_wave_fused(g.indptr, g.indices, frontier,
                                       ranks, colors)
        for _ in range(5):
            again = compiled.jp_wave_fused(g.indptr, g.indices, frontier,
                                           ranks, colors)
            np.testing.assert_array_equal(first[0], again[0])
            np.testing.assert_array_equal(first[1], again[1])

    def test_empty_chunk(self):
        g, ranks, colors, _ = self._wave_inputs(4)
        c, s, k, d = compiled.jp_wave_fused(
            g.indptr, g.indices, np.empty(0, dtype=np.int64), ranks, colors)
        assert c.size == 0 and s.size == 0 and k == 0 and d == 0


class TestTierFallbackEndToEnd:
    """``auto`` without numba must be byte-identical to ``numpy`` —
    with numba, ``numba`` must be byte-identical to ``numpy``.  Either
    way: two tiers, identical colors and books, no skips."""

    def _run(self, tier, backend="serial", workers=1):
        from repro.coloring.jp import jp_adg
        from repro.graphs import generators
        from repro.runtime import ExecutionContext

        g = generators.gnm_random(400, 2400, seed=5)
        with ExecutionContext(backend=backend, workers=workers,
                              kernel_tier=tier) as ctx:
            res = jp_adg(g, eps=0.01, seed=5, ctx=ctx)
        return res

    def test_auto_matches_numpy(self):
        base = self._run("numpy")
        assert base.kernel_tier == "numpy"
        auto = self._run("auto")
        if numba_available():
            assert auto.kernel_tier == "numba"
        else:
            assert auto.kernel_tier == "numpy"
        np.testing.assert_array_equal(base.colors, auto.colors)
        assert base.cost.work == auto.cost.work
        assert base.cost.depth == auto.cost.depth
        assert base.num_colors == auto.num_colors

    def test_threaded_parity_across_tiers(self):
        base = self._run("numpy", backend="threaded", workers=4)
        auto = self._run("auto", backend="threaded", workers=4)
        np.testing.assert_array_equal(base.colors, auto.colors)
        assert base.cost.work == auto.cost.work

    def test_result_summary_reports_tier(self):
        res = self._run("numpy")
        assert res.summary()["kernel_tier"] == "numpy"


class TestTierThreading:
    def test_context_resolves_and_exposes_tier(self):
        from repro.runtime import ExecutionContext

        with ExecutionContext(kernel_tier="numpy") as ctx:
            assert ctx.kernel_tier == "numpy"
            assert ctx.describe()["kernel_tier"] == "numpy"
        with ExecutionContext(kernel_tier="auto") as ctx:
            assert ctx.kernel_tier in ("numpy", "numba")
            assert ctx.kernel_tier == resolve_kernel_tier("auto")

    def test_context_rejects_unknown_tier(self):
        from repro.runtime import ExecutionContext

        with pytest.raises(ValueError, match="kernel_tier"):
            ExecutionContext(kernel_tier="rust")

    def test_child_context_inherits_tier(self):
        from repro.machine.costmodel import CostModel
        from repro.machine.memmodel import MemoryModel
        from repro.runtime import ExecutionContext

        with ExecutionContext(kernel_tier="numpy") as ctx:
            child = ctx.child(CostModel(), MemoryModel())
            assert child.kernel_tier == "numpy"

    def test_estimator_keys_are_tier_qualified(self):
        # Per-key unit costs are only learned for rounds whose mean
        # chunk size clears UNIT_FLOOR, so drive map_chunks with a
        # round big enough to register rather than a whole coloring.
        from repro.runtime import ExecutionContext
        from repro.runtime.adaptive import UNIT_FLOOR

        def touch_span(lo, hi):
            return hi - lo

        n = UNIT_FLOOR * 4 * 4 * 8  # >> workers * CHUNKS_PER_WORKER floor
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="on", kernel_tier="numpy") as ctx:
            for _ in range(3):
                out = ctx.map_chunks(touch_span, n)
            assert sum(out) == n
            rec = ctx._estimator.record()
        keys = list(rec["unit_s"])
        assert keys, "expected learned unit costs"
        assert all(k.endswith("@numpy") for k in keys), keys
        assert any(k.startswith("touch_span@") for k in keys), keys


class TestLedgerTierCell:
    def test_cell_key_includes_tier(self):
        from repro.obs.ledger import cell_key

        assert cell_key("g", "JP-ADG", "serial", 1, 0) \
            == "g|JP-ADG|serial|1|0|numpy"
        assert cell_key("g", "JP-ADG", "serial", 1, 0, "numba") \
            == "g|JP-ADG|serial|1|0|numba"

    def test_run_record_carries_tier(self):
        from repro.coloring.result import ColoringResult
        from repro.obs.ledger import run_record, validate_ledger_record

        res = ColoringResult(algorithm="JP-ADG",
                             colors=np.array([1, 2, 1]),
                             kernel_tier="numpy")
        rec = run_record(res, valid=True)
        assert rec["kernel_tier"] == "numpy"
        assert rec["cell"].endswith("|numpy")
        validate_ledger_record(rec)

    def test_validator_accepts_legacy_cells(self):
        from repro.coloring.result import ColoringResult
        from repro.obs.ledger import run_record, validate_ledger_record

        res = ColoringResult(algorithm="JP-ADG",
                             colors=np.array([1, 2, 1]))
        rec = run_record(res, valid=True)
        # A pre-tier record: 4-pipe cell, no kernel_tier field.
        rec["cell"] = "g|JP-ADG|serial|1|0"
        rec.pop("kernel_tier")
        validate_ledger_record(rec)

    def test_gate_reports_tier_mismatch(self):
        from repro.obs.regress import check

        def rec(cell):
            return {"kind": "run", "cell": cell, "wall_s": 0.1,
                    "reorder_wall_s": 0.0, "colors": 5, "work": 100,
                    "valid": True}

        baseline = {"k": 1, "thresholds": {}, "cells": {
            "g|JP-ADG|serial|1|0|numpy": {"wall_s": 0.1, "colors": 5,
                                          "work": 100, "valid": True}}}
        # Head ran the same configuration under another tier: every
        # baseline metric fails as TIER-MISMATCH, not as wall deltas.
        rows, failures = check([rec("g|JP-ADG|serial|1|0|numba")], baseline)
        assert failures == len(rows) > 0
        assert {r["status"] for r in rows} == {"TIER-MISMATCH"}
        # A head missing the cell entirely stays MISSING.
        rows, failures = check([rec("other|JP-ADG|serial|1|0|numpy")],
                               baseline)
        assert {r["status"] for r in rows} == {"MISSING"}
        # Same tier, same walls: clean pass.
        rows, failures = check([rec("g|JP-ADG|serial|1|0|numpy")], baseline)
        assert failures == 0


class TestCLITier:
    def test_color_json_reports_tier(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        assert main(["color", "--gen", "gnm:300,900",
                     "--algorithm", "JP-ADG", "--json",
                     "--kernel-tier", "numpy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel_tier"] == "numpy"

    def test_env_seam_restored(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        main(["color", "--gen", "gnm:300,900", "--algorithm", "JP-ADG",
              "--json", "--kernel-tier", "numpy"])
        assert "REPRO_KERNEL_TIER" not in os.environ

    def test_explicit_numba_flag_without_numba_raises(self):
        from repro.cli import main

        if numba_available():
            assert main(["color", "--gen", "gnm:300,900",
                         "--algorithm", "JP-ADG", "--json",
                         "--kernel-tier", "numba"]) == 0
        else:
            with pytest.raises(RuntimeError, match="not importable"):
                main(["color", "--gen", "gnm:300,900",
                      "--algorithm", "JP-ADG", "--json",
                      "--kernel-tier", "numba"])
