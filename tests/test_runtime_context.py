"""Unit tests for the ExecutionContext runtime."""

import time

import numpy as np
import pytest

from repro.machine.costmodel import CostModel
from repro.machine.memmodel import MemoryModel
from repro.machine.parallel import split_chunks, split_chunks_weighted
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import (
    BACKENDS,
    CHUNKS_PER_WORKER,
    ChunkError,
    ExecutionContext,
    default_backend,
    default_weighted_chunks,
    resolve_context,
)


class TestConstruction:
    def test_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ctx = ExecutionContext()
        assert ctx.backend == "serial"
        assert ctx.workers == 1

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionContext(backend="cuda")

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(backend="threaded", workers=0)

    def test_serial_forces_one_worker(self):
        ctx = ExecutionContext(backend="serial", workers=8)
        assert ctx.workers == 1

    def test_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        assert default_backend() == "threaded"
        ctx = ExecutionContext()
        assert ctx.backend == "threaded"

    def test_env_backend_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend()

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ctx = ExecutionContext(backend="threaded")
        assert ctx.workers == 3

    def test_supplied_books_are_used(self):
        cost, mem = CostModel(), MemoryModel()
        ctx = ExecutionContext(cost=cost, mem=mem)
        assert ctx.cost is cost and ctx.mem is mem

    def test_backends_constant(self):
        assert BACKENDS == ("serial", "threaded")

    def test_describe(self):
        ctx = ExecutionContext(backend="threaded", workers=2)
        assert ctx.describe() == {"backend": "threaded", "workers": 2,
                                  "adaptive": ctx.adaptive,
                                  "wall_by_phase": {}}

    def test_describe_includes_phase_walls(self):
        ctx = ExecutionContext()
        with ctx.phase("p"):
            pass
        d = ctx.describe()
        assert set(d["wall_by_phase"]) == {"p"}
        assert d["wall_by_phase"]["p"] >= 0.0


class TestMapChunks:
    def test_serial_single_chunk(self):
        ctx = ExecutionContext(backend="serial")
        calls = []
        out = ctx.map_chunks(lambda lo, hi: calls.append((lo, hi)) or hi - lo,
                             100)
        assert calls == [(0, 100)]
        assert out == [100]

    def test_threaded_one_worker_single_chunk(self):
        ctx = ExecutionContext(backend="threaded", workers=1)
        out = ctx.map_chunks(lambda lo, hi: (lo, hi), 50)
        assert out == [(0, 50)]

    def test_threaded_chunk_order_and_coverage(self):
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            spans = ctx.map_chunks(lambda lo, hi: (lo, hi), 1000)
        assert spans[0][0] == 0 and spans[-1][1] == 1000
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c  # contiguous, in chunk order
        assert len(spans) <= 4 * CHUNKS_PER_WORKER

    def test_threaded_concat_equals_serial(self):
        x = np.arange(1000) % 7
        pick = lambda lo, hi: np.flatnonzero(x[lo:hi] == 0) + lo
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            par = np.concatenate(ctx.map_chunks(pick, x.size))
        np.testing.assert_array_equal(par, np.flatnonzero(x == 0))

    def test_empty_range(self):
        with ExecutionContext(backend="threaded", workers=2) as ctx:
            assert ctx.map_chunks(lambda lo, hi: hi - lo, 0) == []


class TestWeightedSplit:
    """Property tests for the prefix-sum work-balanced chunking."""

    @staticmethod
    def _check_cover(spans, n):
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
        assert all(lo < hi for lo, hi in spans)

    def test_covers_range_exactly_and_contiguous(self):
        rng = np.random.default_rng(0)
        for n, k in [(1, 1), (7, 3), (100, 8), (1000, 16)]:
            w = rng.integers(0, 50, size=n)
            spans = split_chunks_weighted(n, k, w)
            self._check_cover(spans, n)
            assert len(spans) <= k

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        w = rng.integers(0, 100, size=500)
        assert split_chunks_weighted(500, 8, w) == \
            split_chunks_weighted(500, 8, w.copy())

    def test_balances_work_not_count(self):
        # 10 heavy items then 990 light ones: uniform chunking piles the
        # heavy prefix into one chunk; weighted splits it up.
        w = np.concatenate([np.full(10, 1000), np.ones(990)])
        spans = split_chunks_weighted(1000, 8, w)
        self._check_cover(spans, 1000)
        per_chunk = [w[lo:hi].sum() for lo, hi in spans]
        # Every chunk's weight is within one max item of the ideal.
        assert max(per_chunk) <= w.sum() / 8 + w.max()
        uniform = split_chunks(1000, 8)
        heavy_uniform = max(w[lo:hi].sum() for lo, hi in uniform)
        assert max(per_chunk) < heavy_uniform

    def test_zero_weights_fall_back_to_uniform(self):
        w = np.zeros(100)
        assert split_chunks_weighted(100, 4, w) == split_chunks(100, 4)

    def test_one_giant_item_gets_own_boundary(self):
        w = np.ones(100)
        w[37] = 10_000
        spans = split_chunks_weighted(100, 8, w)
        self._check_cover(spans, 100)
        # The chunk holding the giant closes right after it.
        (giant,) = [s for s in spans if s[0] <= 37 < s[1]]
        assert giant[1] == 38

    def test_empty_range(self):
        assert split_chunks_weighted(0, 4, np.empty(0)) == []

    def test_single_chunk(self):
        assert split_chunks_weighted(10, 1, np.arange(10)) == [(0, 10)]

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            split_chunks_weighted(3, 2, np.array([1.0, -1.0, 1.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            split_chunks_weighted(3, 2, np.ones(4))

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WEIGHTED_CHUNKS", raising=False)
        assert default_weighted_chunks() is True
        monkeypatch.setenv("REPRO_WEIGHTED_CHUNKS", "0")
        assert default_weighted_chunks() is False
        monkeypatch.setenv("REPRO_WEIGHTED_CHUNKS", "on")
        assert default_weighted_chunks() is True
        monkeypatch.setenv("REPRO_WEIGHTED_CHUNKS", "maybe")
        with pytest.raises(ValueError, match="REPRO_WEIGHTED_CHUNKS"):
            default_weighted_chunks()


class TestWeightedMapChunks:
    def test_weights_change_boundaries_not_results(self):
        x = np.arange(2000) % 11
        w = np.concatenate([np.full(20, 500), np.ones(1980)])
        pick = lambda lo, hi: np.flatnonzero(x[lo:hi] == 0) + lo
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            plain = np.concatenate(ctx.map_chunks(pick, x.size))
            weighted = np.concatenate(ctx.map_chunks(pick, x.size,
                                                     weights=w))
        np.testing.assert_array_equal(plain, weighted)
        np.testing.assert_array_equal(weighted, np.flatnonzero(x == 0))

    def test_weighted_chunks_off_ignores_weights(self):
        with ExecutionContext(backend="threaded", workers=4,
                              weighted_chunks=False) as ctx:
            spans = ctx.map_chunks(
                lambda lo, hi: (lo, hi), 1000,
                weights=np.concatenate([np.full(10, 1e6), np.ones(990)]))
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            uniform = ctx.map_chunks(lambda lo, hi: (lo, hi), 1000)
        assert spans == uniform


class TestRemovedBackend:
    """The deleted process backend fails loudly at every entry point."""

    def test_constructor_rejects_process(self):
        with pytest.raises(ValueError, match="process backend was removed"):
            ExecutionContext(backend="process")

    def test_env_rejects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        with pytest.raises(ValueError,
                           match=r"\$REPRO_BACKEND.*process backend was "
                                 r"removed"):
            ExecutionContext()

    def test_cli_rejects_process(self):
        from repro.cli import main

        with pytest.raises(ValueError,
                           match="--backend.*process backend was removed"):
            main(["color", "--gen", "gnm:50,100", "--backend", "process"])


class TestPoolLifecycle:
    def test_pool_lazy_and_closed(self):
        ctx = ExecutionContext(backend="threaded", workers=2)
        assert ctx._pool is None
        ctx.map_chunks(lambda lo, hi: None, 100)
        assert ctx._pool is not None
        ctx.close()
        assert ctx._pool is None

    def test_child_shares_pool(self):
        with ExecutionContext(backend="threaded", workers=2) as ctx:
            ctx.map_chunks(lambda lo, hi: None, 100)
            kid = ctx.child()
            assert kid._pool_host is ctx
            assert kid._acquire_pool() is ctx._pool
            kid.close()  # non-host close is a no-op on the pool
            assert ctx._pool is not None

    def test_child_fresh_books(self):
        ctx = ExecutionContext(backend="threaded", workers=2)
        ctx.cost.round(10, 1)
        kid = ctx.child()
        assert kid.cost is not ctx.cost and kid.cost.work == 0
        assert kid.mem is not ctx.mem
        assert (kid.backend, kid.workers) == (ctx.backend, ctx.workers)
        ctx.close()


class TestPhase:
    def test_phase_records_wall_and_cost(self):
        ctx = ExecutionContext()
        with ctx.phase("build"):
            ctx.cost.round(5, 2)
        with ctx.phase("build"):
            ctx.cost.round(3, 1)
        assert ctx.wall_by_phase["build"] >= 0.0
        assert ctx.cost.snapshot()["build"]["work"] == 8

    def test_phase_accumulates(self):
        ctx = ExecutionContext()
        with ctx.phase("p"):
            pass
        first = ctx.wall_by_phase["p"]
        with ctx.phase("p"):
            pass
        assert ctx.wall_by_phase["p"] >= first


class TestNestedPhases:
    def test_nested_phase_records_exclusive_time(self):
        ctx = ExecutionContext()
        with ctx.phase("outer"):
            time.sleep(0.02)
            with ctx.phase("inner"):
                time.sleep(0.02)
        outer, inner = ctx.wall_by_phase["outer"], ctx.wall_by_phase["inner"]
        assert inner >= 0.02
        # Outer's wall is self time only: the inner sleep is not
        # double-counted, so outer stays well below outer+inner elapsed.
        assert outer >= 0.02
        assert outer < inner + 0.02

    def test_phase_walls_sum_bounded_by_elapsed(self):
        ctx = ExecutionContext()
        t0 = time.perf_counter()
        with ctx.phase("a"):
            with ctx.phase("b"):
                with ctx.phase("c"):
                    time.sleep(0.01)
        elapsed = time.perf_counter() - t0
        assert sum(ctx.wall_by_phase.values()) <= elapsed + 1e-6

    def test_reentrant_same_name_accumulates_self_time(self):
        ctx = ExecutionContext()
        with ctx.phase("p"):
            with ctx.phase("p"):
                time.sleep(0.01)
        # Both frames contribute: the inner full wall plus the outer
        # self time, accumulated under one key.
        assert ctx.wall_by_phase["p"] >= 0.01


class TestChunkErrors:
    @staticmethod
    def _boom(lo, hi):
        if lo == 0:
            raise ValueError("bad chunk")
        return hi - lo

    def test_serial_raises_chunk_error_with_range(self):
        ctx = ExecutionContext(backend="serial")
        with pytest.raises(ChunkError, match=r"\[0, 100\) of 100 items"):
            ctx.map_chunks(self._boom, 100)

    def test_serial_chains_original_exception(self):
        ctx = ExecutionContext(backend="serial")
        with pytest.raises(ChunkError) as ei:
            ctx.map_chunks(self._boom, 10)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_threaded_raises_chunk_error_with_range(self):
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            with pytest.raises(ChunkError) as ei:
                ctx.map_chunks(self._boom, 1000)
            assert "of 1000 items failed" in str(ei.value)
            assert isinstance(ei.value.__cause__, ValueError)
            # The pool survives the failed round and stays usable.
            assert ctx.map_chunks(lambda lo, hi: hi - lo, 100) is not None

    def test_threaded_traced_still_raises(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            with pytest.raises(ChunkError):
                ctx.map_chunks(self._boom, 500)


class TestTracedRounds:
    def test_null_tracer_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        ctx = ExecutionContext()
        assert ctx.tracer is NULL_TRACER
        ctx.map_chunks(lambda lo, hi: None, 100)
        with ctx.phase("p"):
            pass
        assert ctx.trace_summary() is None

    def test_traced_round_and_chunk_events(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            with ctx.phase("work"):
                ctx.map_chunks(lambda lo, hi: hi - lo, 1000)
            tracer = ctx.tracer
        rounds = tracer.spans(cat="round")
        chunks = tracer.spans(cat="chunk")
        assert len(rounds) == 1
        assert rounds[0].args["phase"] == "work"
        assert rounds[0].args["items"] == 1000
        assert rounds[0].args["chunks"] == len(chunks)
        assert rounds[0].args["imbalance"] >= 1.0
        assert sum(s.args["size"] for s in chunks) == 1000
        # Chunk events carry small stable worker ids.
        assert all(isinstance(s.tid, int) and s.tid >= 0 for s in chunks)
        assert len({s.tid for s in chunks}) >= 1

    def test_traced_results_identical(self):
        fn = lambda lo, hi: list(range(lo, hi))
        with ExecutionContext(backend="threaded", workers=4) as plain:
            a = plain.map_chunks(fn, 777)
        with ExecutionContext(backend="threaded", workers=4,
                              trace=True) as traced:
            b = traced.map_chunks(fn, 777)
        assert a == b

    def test_child_shares_tracer(self):
        with ExecutionContext(trace=True) as ctx:
            kid = ctx.child()
            assert kid.tracer is ctx.tracer
            with kid.phase("kid-phase"):
                pass
            assert ctx.tracer.spans("kid-phase")

    def test_phase_span_records_self_time(self):
        with ExecutionContext(trace=True) as ctx:
            with ctx.phase("outer"):
                with ctx.phase("inner"):
                    time.sleep(0.01)
            (outer,) = ctx.tracer.spans("outer")
            (inner,) = ctx.tracer.spans("inner")
        assert outer.args["self_s"] <= outer.dur
        assert inner.args["self_s"] >= 0.01

    def test_trace_summary_shape(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            with ctx.phase("p"):
                ctx.map_chunks(lambda lo, hi: None, 200)
            summary = ctx.trace_summary()
        assert summary["events"] >= 2
        assert "round" in summary["events_by_cat"]
        assert "p" in summary["phase_self_s"]
        assert summary["imbalance"]["rounds"] >= 0


class TestResolveContext:
    def test_passthrough(self):
        ctx = ExecutionContext()
        got, owns = resolve_context(ctx)
        assert got is ctx and owns is False

    def test_fresh(self):
        got, owns = resolve_context(None, backend="threaded", workers=2)
        assert owns is True
        assert (got.backend, got.workers) == ("threaded", 2)
        got.close()
