"""Unit tests for the ExecutionContext runtime."""

import threading
import time

import numpy as np
import pytest

from repro.coloring.jp import jp_by_name
from repro.coloring.registry import color
from repro.graphs.generators import gnm_random
from repro.machine.costmodel import CostModel
from repro.machine.memmodel import MemoryModel
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import (
    BACKENDS,
    ExecutionContext,
    default_backend,
    default_workers,
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

    @pytest.mark.parametrize("value,match", [
        ("abc", r"\$REPRO_WORKERS must be a int, got 'abc'"),
        ("0", r"\$REPRO_WORKERS must be >= 1, got 0"),
        ("-3", r"\$REPRO_WORKERS must be >= 1, got -3"),
        ("2.5", r"\$REPRO_WORKERS must be a int, got '2.5'"),
    ])
    def test_env_workers_invalid(self, monkeypatch, value, match):
        # A checked reader: no bare int() error, and no silent clamp of
        # 0 / negatives to 1 (workers=0 raises too).
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match=match):
            default_workers()
        with pytest.raises(ValueError, match=match):
            ExecutionContext(backend="threaded")

    def test_env_workers_unset_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1
        monkeypatch.setenv("REPRO_WORKERS", " ")
        assert default_workers() >= 1

    def test_supplied_books_are_used(self):
        cost, mem = CostModel(), MemoryModel()
        ctx = ExecutionContext(cost=cost, mem=mem)
        assert ctx.cost is cost and ctx.mem is mem

    def test_backends_constant(self):
        assert BACKENDS == ("serial", "threaded")

    def test_describe(self):
        ctx = ExecutionContext(backend="threaded", workers=2)
        assert ctx.describe() == {"backend": "threaded", "workers": 2,
                                  "wall_by_phase": {}}

    def test_describe_includes_phase_walls(self):
        ctx = ExecutionContext()
        with ctx.phase("p"):
            pass
        d = ctx.describe()
        assert set(d["wall_by_phase"]) == {"p"}
        assert d["wall_by_phase"]["p"] >= 0.0


class TestMapChunks:
    """A round is one direct call, ``fn(0, n)``, on every backend."""

    def test_serial_single_chunk(self):
        ctx = ExecutionContext(backend="serial")
        calls = []
        out = ctx.map_chunks(lambda lo, hi: calls.append((lo, hi)) or hi - lo,
                             100)
        assert calls == [(0, 100)]
        assert out == 100

    def test_threaded_one_worker_single_chunk(self):
        ctx = ExecutionContext(backend="threaded", workers=1)
        out = ctx.map_chunks(lambda lo, hi: (lo, hi), 50)
        assert out == (0, 50)

    def test_threaded_chunk_order_and_coverage(self):
        caller = threading.get_ident()
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            spans = ctx.map_chunks(
                lambda lo, hi: (lo, hi, threading.get_ident()), 1000)
        assert spans == (0, 1000, caller)

    def test_threaded_concat_equals_serial(self):
        x = np.arange(1000) % 7
        pick = lambda lo, hi: np.flatnonzero(x[lo:hi] == 0) + lo
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            par = ctx.map_chunks(pick, x.size)
        np.testing.assert_array_equal(par, np.flatnonzero(x == 0))

    def test_empty_range(self):
        with ExecutionContext(backend="threaded", workers=2) as ctx:
            assert ctx.map_chunks(lambda lo, hi: hi - lo, 0) == 0

    def test_round_ids_are_run_wide(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            kid = ctx.child()
            ctx.map_chunks(lambda lo, hi: None, 5)
            kid.map_chunks(lambda lo, hi: None, 5)
            ctx.map_chunks(lambda lo, hi: None, 0)
        assert [e.args["round"] for e in ctx.tracer.spans(cat="round")] \
            == [1, 2, 3]

    def test_ordering_child_continues_round_ids(self):
        # JP-ADG computes its ordering on a child context; the child's
        # rounds and the coloring's share one run-wide sequence.
        g = gnm_random(300, 1200, seed=2)
        with ExecutionContext(backend="serial", trace=True) as ctx:
            jp_by_name(g, "ADG", seed=0, eps=0.1, ctx=ctx)
        rounds = [e.args["round"] for e in ctx.tracer.spans(cat="round")]
        assert rounds and rounds == list(range(1, len(rounds) + 1))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_color_starts_no_thread(self, workers):
        g = gnm_random(400, 1600, seed=1)
        before = threading.active_count()
        for name in ("JP-ADG", "DEC-ADG", "DEC-ADG-ITR"):
            res = color(name, g, seed=0, backend="threaded", workers=workers)
            assert (res.backend, res.workers) == ("threaded", workers)
            assert threading.active_count() == before


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
    def test_child_shares_run_state(self):
        with ExecutionContext(backend="threaded", workers=2) as ctx:
            kid = ctx.child()
            assert kid._host is ctx
            assert kid.scratch is ctx.scratch
            assert kid.ledger is ctx.ledger
            kid.close()  # non-host close is a no-op

    def test_close_releases_scratch(self):
        ctx = ExecutionContext(backend="threaded", workers=2)
        ctx.scratch.take("big", 1 << 16)
        kid = ctx.child()
        kid.close()
        assert ctx.scratch.describe()["buffers"] == 1
        ctx.close()
        assert ctx.scratch.describe()["bytes"] == 0

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
    """An error a round raises itself is deterministic: it propagates on
    the first call, unwrapped and unretried."""

    @staticmethod
    def _boom(lo, hi):
        if lo == 0:
            raise ValueError("bad chunk")
        return hi - lo

    def test_serial_raises_original_error(self):
        ctx = ExecutionContext(backend="serial")
        with pytest.raises(ValueError, match="bad chunk") as ei:
            ctx.map_chunks(self._boom, 100)
        assert ei.value.__cause__ is None

    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("threaded", 4)])
    def test_own_error_propagates_on_first_call(self, backend, workers):
        calls = []

        def boom(lo, hi):
            calls.append((lo, hi))
            raise ValueError("bad round")

        with ExecutionContext(backend=backend, workers=workers) as ctx:
            with pytest.raises(ValueError, match="bad round") as ei:
                ctx.map_chunks(boom, 20)
        assert type(ei.value) is ValueError and ei.value.__cause__ is None
        assert calls == [(0, 20)]

    def test_threaded_raises_original_error(self):
        with ExecutionContext(backend="threaded", workers=4) as ctx:
            with pytest.raises(ValueError, match="bad chunk"):
                ctx.map_chunks(self._boom, 1000)
            # The context stays usable after the failed round.
            assert ctx.map_chunks(lambda lo, hi: hi - lo, 100) == 100

    def test_threaded_traced_still_raises(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            with pytest.raises(ValueError):
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

    def test_traced_round_events(self):
        with ExecutionContext(backend="threaded", workers=2,
                              trace=True) as ctx:
            with ctx.phase("work"):
                ctx.map_chunks(lambda lo, hi: hi - lo, 1000)
            tracer = ctx.tracer
        (rnd,) = tracer.spans(cat="round")
        assert rnd.name == "work#round1"
        assert rnd.args == {"round": 1, "phase": "work", "items": 1000}
        assert rnd.tid == 0  # recorded on the calling thread

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
        assert "imbalance" not in summary


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
