"""Backend parity: one engine, bit-identical results on every backend.

The determinism contract of the ExecutionContext runtime: for every
backend-aware algorithm, ``backend='threaded'`` must produce exactly
the colors, waves/rounds, ordering ranks/levels,
and cost/memory books of ``backend='serial'``, for any worker count —
and with work-balanced chunking on or off.
"""

import numpy as np
import pytest

from repro.coloring.dec_adg import dec_adg, dec_adg_m
from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.jp import jp_adg_fused, jp_by_name
from repro.coloring.registry import BACKEND_AWARE, color
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import chung_lu, gnm_random, grid_2d
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import ExecutionContext

from repro.ordering.adg import adg_m_ordering, adg_ordering

WORKER_COUNTS = [1, 2, 4]
#: (backend, workers) rows checked against the serial baseline.
BACKEND_ROWS = [("threaded", w) for w in WORKER_COUNTS]
BACKEND_IDS = [f"{b}-{w}" for b, w in BACKEND_ROWS]


@pytest.fixture(scope="module")
def parity_graph():
    return chung_lu(400, 2000, seed=11)


def _assert_result_parity(serial, parallel, backend, workers):
    np.testing.assert_array_equal(parallel.colors, serial.colors)
    assert parallel.rounds == serial.rounds
    assert parallel.cost.work == serial.cost.work
    assert parallel.cost.depth == serial.cost.depth
    if serial.reorder_cost is not None:
        assert parallel.reorder_cost.work == serial.reorder_cost.work
        assert parallel.reorder_cost.depth == serial.reorder_cost.depth
    assert parallel.backend == backend
    assert parallel.workers == workers


class TestJPParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_jp_adg(self, parity_graph, backend, workers):
        serial = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1)
        parallel = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1,
                              backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)

    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_jp_adg_fused(self, parity_graph, backend, workers):
        serial = jp_adg_fused(parity_graph, eps=0.1, seed=0)
        parallel = jp_adg_fused(parity_graph, eps=0.1, seed=0,
                                backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)


class TestOrderingParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    @pytest.mark.parametrize("fn", [adg_ordering, adg_m_ordering],
                             ids=["ADG", "ADG-M"])
    def test_adg_family(self, parity_graph, fn, backend, workers):
        serial = fn(parity_graph, eps=0.1, seed=0)
        parallel = fn(parity_graph, eps=0.1, seed=0,
                      backend=backend, workers=workers)
        np.testing.assert_array_equal(parallel.ranks, serial.ranks)
        np.testing.assert_array_equal(parallel.levels, serial.levels)
        assert parallel.num_levels == serial.num_levels
        assert parallel.cost.work == serial.cost.work
        assert parallel.cost.depth == serial.cost.depth

    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_adg_fused_ranks(self, parity_graph, backend, workers):
        """UPDATEandPRIORITIZE (compute_ranks) parity, incl. pred_counts."""
        serial = adg_ordering(parity_graph, eps=0.1, sort_batches=True,
                              compute_ranks=True)
        parallel = adg_ordering(parity_graph, eps=0.1, sort_batches=True,
                                compute_ranks=True,
                                backend=backend, workers=workers)
        np.testing.assert_array_equal(parallel.ranks, serial.ranks)
        np.testing.assert_array_equal(parallel.pred_counts,
                                      serial.pred_counts)


class TestDecParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    @pytest.mark.parametrize("fn", [dec_adg, dec_adg_m, dec_adg_itr],
                             ids=["DEC-ADG", "DEC-ADG-M", "DEC-ADG-ITR"])
    def test_dec_family(self, parity_graph, fn, backend, workers):
        serial = fn(parity_graph, seed=0)
        parallel = fn(parity_graph, seed=0,
                      backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)
        assert_valid_coloring(parity_graph, parallel.colors)


class TestWeightedChunkingParity:
    """Weights move chunk boundaries, never results or books."""

    @pytest.mark.parametrize("backend,workers", [("threaded", 4)],
                             ids=["threaded"])
    def test_weighted_on_off_identical(self, parity_graph, backend,
                                       workers):
        results = {}
        for weighted in (True, False):
            with ExecutionContext(backend=backend, workers=workers,
                                  weighted_chunks=weighted) as ctx:
                results[weighted] = jp_by_name(parity_graph, "ADG",
                                               seed=0, eps=0.1, ctx=ctx)
        on, off = results[True], results[False]
        np.testing.assert_array_equal(on.colors, off.colors)
        assert on.rounds == off.rounds
        assert on.cost.work == off.cost.work
        assert on.cost.depth == off.cost.depth
        assert on.mem.total == off.mem.total


class TestAdaptiveParity:
    """$REPRO_ADAPTIVE moves scheduling only: for every engine, on
    every backend, every mode (learned decisions, forced inline,
    forced parallel) produces bit-identical colors, rounds, and
    cost/memory books to ``adaptive='off'``."""

    MODES = ["on", "inline", "parallel"]

    ENGINES = [
        ("jp-adg", lambda g, ctx: jp_by_name(g, "ADG", seed=0, eps=0.1,
                                             ctx=ctx)),
        ("jp-adg-fused", lambda g, ctx: jp_adg_fused(g, seed=0, eps=0.1,
                                                     ctx=ctx)),
        ("dec-adg", lambda g, ctx: dec_adg(g, seed=0, ctx=ctx)),
        ("dec-adg-itr", lambda g, ctx: dec_adg_itr(g, seed=0, ctx=ctx)),
    ]

    @staticmethod
    def _run(engine, graph, backend, workers, mode):
        with ExecutionContext(backend=backend, workers=workers,
                              adaptive=mode) as ctx:
            return engine(graph, ctx)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,engine", ENGINES,
                             ids=[n for n, _ in ENGINES])
    def test_threaded_modes_match_off(self, parity_graph, name, engine,
                                      mode):
        off = self._run(engine, parity_graph, "threaded", 4, "off")
        got = self._run(engine, parity_graph, "threaded", 4, mode)
        np.testing.assert_array_equal(got.colors, off.colors)
        assert got.rounds == off.rounds
        assert got.cost.work == off.cost.work
        assert got.cost.depth == off.cost.depth
        assert got.mem.total == off.mem.total
        if off.reorder_cost is not None:
            assert got.reorder_cost.work == off.reorder_cost.work
            assert got.reorder_cost.depth == off.reorder_cost.depth

    def test_serial_ignores_mode(self, parity_graph):
        """Serial rounds are never dispatch-eligible: any mode is the
        plain serial run, and no dispatch record is kept."""
        off = self._run(self.ENGINES[0][1], parity_graph, "serial", 1,
                        "off")
        on = self._run(self.ENGINES[0][1], parity_graph, "serial", 1,
                       "on")
        np.testing.assert_array_equal(on.colors, off.colors)
        assert on.dispatch is None

    @pytest.mark.parametrize("mode", MODES)
    def test_ordering_modes_match_off(self, parity_graph, mode):
        results = {}
        for m in ("off", mode):
            with ExecutionContext(backend="threaded", workers=4,
                                  adaptive=m) as ctx:
                results[m] = adg_ordering(parity_graph, eps=0.1, seed=0,
                                          ctx=ctx)
        off, got = results["off"], results[mode]
        np.testing.assert_array_equal(got.ranks, off.ranks)
        np.testing.assert_array_equal(got.levels, off.levels)
        assert got.num_levels == off.num_levels
        assert got.cost.work == off.cost.work
        assert got.cost.depth == off.cost.depth

    def test_chaos_row_inlined_round_parity(self, parity_graph):
        """A fault plan aimed at rounds the adaptive layer inlines
        still fires and retries deterministically — colors and books
        match the fault-free baseline bit for bit."""
        clean = self._run(self.ENGINES[0][1], parity_graph, "threaded",
                          4, "off")
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline", backoff=0.0,
                              faults="error@1.2;error@3.0") as ctx:
            chaos = self.ENGINES[0][1](parity_graph, ctx)
        np.testing.assert_array_equal(chaos.colors, clean.colors)
        assert chaos.rounds == clean.rounds
        assert chaos.cost.work == clean.cost.work
        assert chaos.mem.total == clean.mem.total
        assert chaos.faults["counters"]["fault.injected.error"] == 2
        assert chaos.faults["counters"]["fault.retries"] == 2


class TestDegradationParity:
    """Forced mid-algorithm backend degradation keeps bit parity.

    With ``max_respawns=0`` a single injected worker death drops the
    run from threaded to serial; chunk boundaries were planned before the
    fault, so the combine order — hence colors, rounds, and books — is
    untouched.  ``ColoringResult.backend`` records where the run
    *finished* and the degradation event is on the fault record.
    """

    DEGRADE_ROWS = [("threaded", 4, "serial")]

    @pytest.mark.parametrize("backend,workers,lower", DEGRADE_ROWS,
                             ids=["threaded-to-serial"])
    def test_degraded_run_matches_serial(self, parity_graph, backend,
                                         workers, lower):
        serial = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1)
        # adaptive="off": kill faults only reach the pool on dispatched
        # rounds, and this class is about the pool's degradation path.
        with ExecutionContext(backend=backend, workers=workers,
                              faults="kill@4.0", max_respawns=0,
                              adaptive="off") as ctx:
            degraded = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1,
                                  ctx=ctx)
        _assert_result_parity(serial, degraded, lower, workers)
        rec = degraded.faults
        assert rec["counters"]["fault.degradations"] == 1
        events = [e for e in rec["events"] if e["kind"] == "degrade"]
        assert events == [{"kind": "degrade", "from": backend,
                           "to": lower, "round": 4}]

    def test_kill_after_degradation_retries_on_serial(self, parity_graph):
        """Serial is the bottom of the ladder: a later kill has no pool
        to break, so it is retried in place against the retry budget."""
        serial = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1)
        with ExecutionContext(backend="threaded", workers=2,
                              faults="kill@3.0;kill@6.0", backoff=0.0,
                              max_respawns=0, adaptive="off") as ctx:
            degraded = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1,
                                  ctx=ctx)
        _assert_result_parity(serial, degraded, "serial", 2)
        path = [(e["from"], e["to"]) for e in degraded.faults["events"]
                if e["kind"] == "degrade"]
        assert path == [("threaded", "serial")]
        assert degraded.faults["counters"]["fault.retries"] == 1


class TestRegistryParity:
    @pytest.mark.parametrize("name", sorted(BACKEND_AWARE))
    def test_every_backend_aware_algorithm(self, name):
        g = gnm_random(150, 500, seed=5)
        serial = color(name, g, seed=0)
        threaded = color(name, g, seed=0, backend="threaded", workers=2)
        np.testing.assert_array_equal(threaded.colors, serial.colors)
        assert threaded.rounds == serial.rounds
        assert threaded.backend == "threaded"

    def test_serial_only_algorithm_ignores_backend(self):
        g = grid_2d(10, 10)
        res = color("Greedy-FF", g, seed=0, backend="threaded", workers=2)
        assert res.backend == "serial"


class TestTracingParity:
    """Tracing is observation only: on or off, results never change."""

    @pytest.mark.parametrize("name", ["JP-ADG", "JP-ADG-O", "DEC-ADG",
                                      "DEC-ADG-ITR"])
    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("threaded", 4)],
                             ids=["serial", "threaded"])
    def test_traced_bit_identical(self, parity_graph, name, backend,
                                  workers):
        plain = color(name, parity_graph, seed=0,
                      backend=backend, workers=workers)
        traced = color(name, parity_graph, seed=0,
                       backend=backend, workers=workers, trace=Tracer())
        np.testing.assert_array_equal(traced.colors, plain.colors)
        assert traced.rounds == plain.rounds
        assert traced.cost.snapshot() == plain.cost.snapshot()
        assert traced.mem.total == plain.mem.total
        if plain.reorder_cost is not None:
            assert traced.reorder_cost.work == plain.reorder_cost.work
            assert traced.reorder_cost.depth == plain.reorder_cost.depth

    def test_untraced_run_records_nothing(self, monkeypatch, parity_graph):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        before = len(NULL_TRACER.events)
        res = color("JP-ADG", parity_graph, seed=0)
        assert res.trace_summary is None
        assert len(NULL_TRACER.events) == before == 0
        assert len(NULL_TRACER.metrics) == 0

    def test_traced_run_populates_summary(self, parity_graph):
        t = Tracer()
        res = color("JP-ADG", parity_graph, seed=0,
                    backend="threaded", workers=2, trace=t)
        assert res.trace_summary["events"] == len(t.events) > 0
        assert res.trace_summary["events_by_cat"].get("chunk", 0) > 0
        assert t.metrics.get("jp.colored").total == parity_graph.n


class TestThreadedAccounting:
    """The old fork ran dark; the unified engine keeps full books."""

    @pytest.mark.parametrize("name", ["JP-ADG", "JP-ADG-O", "DEC-ADG",
                                      "DEC-ADG-ITR"])
    def test_threaded_populates_cost_and_memory(self, parity_graph, name):
        res = color(name, parity_graph, seed=0,
                    backend="threaded", workers=4)
        assert res.cost.work > 0
        assert res.cost.depth > 0
        assert res.mem.total > 0
        assert res.total_work > 0

    def test_threaded_matches_serial_books(self, parity_graph):
        serial = color("JP-ADG", parity_graph, seed=0)
        threaded = color("JP-ADG", parity_graph, seed=0,
                         backend="threaded", workers=4)
        assert threaded.cost.snapshot() == serial.cost.snapshot()
        assert threaded.mem.total == serial.mem.total

    def test_phase_walls_recorded(self, parity_graph):
        res = color("JP-ADG", parity_graph, seed=0,
                    backend="threaded", workers=2)
        assert res.phase_walls
        assert all(v >= 0 for v in res.phase_walls.values())
