"""Chaos layer: deterministic fault injection against the recovery paths.

The contract under test (ISSUE 4 tentpole): under any in-budget
:class:`~repro.runtime.faults.FaultPlan`, every engine on every backend
produces colors, rounds, and accounting books bit-identical to a
fault-free serial run — and the runtime's ``fault.*`` counters agree
with the plan's own ``fired`` tally.

Every context built here passes an explicit ``faults=`` (a plan, or
``False`` for the fault-free baselines) so the suite also runs
unchanged under the CI chaos job, which exports a global
``$REPRO_FAULTS`` plan.
"""

import threading
import time

import numpy as np
import pytest

from repro.coloring.dec_adg import dec_adg
from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.jp import jp_by_name
from repro.coloring.simcol import sim_col
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import chung_lu, gnm_random, ring
from repro.runtime import ChunkError, ExecutionContext
from repro.runtime.faults import (
    DEFAULT_DELAY,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    WorkerDeath,
    apply_fault,
    resolve_fault_plan,
)

#: (backend, workers) rows of the chaos matrix.
CHAOS_ROWS = [("serial", 1), ("threaded", 4)]
CHAOS_IDS = [b for b, _ in CHAOS_ROWS]

KINDS = ["error", "delay", "kill"]


@pytest.fixture(scope="module")
def chaos_graph():
    return chung_lu(300, 1500, seed=7)


@pytest.fixture(scope="module")
def baselines(chaos_graph):
    """Fault-free serial results, one per engine under test."""
    out = {}
    for name, fn in [("jp-adg", lambda g, ctx: jp_by_name(
                          g, "ADG", seed=0, eps=0.1, ctx=ctx)),
                     ("dec-adg", lambda g, ctx: dec_adg(g, seed=0, ctx=ctx)),
                     ("dec-adg-itr", lambda g, ctx: dec_adg_itr(
                          g, seed=0, ctx=ctx))]:
        with ExecutionContext(backend="serial", faults=False) as ctx:
            out[name] = fn(chaos_graph, ctx)
    return out


ENGINES = {
    "jp-adg": lambda g, ctx: jp_by_name(g, "ADG", seed=0, eps=0.1, ctx=ctx),
    "dec-adg": lambda g, ctx: dec_adg(g, seed=0, ctx=ctx),
    "dec-adg-itr": lambda g, ctx: dec_adg_itr(g, seed=0, ctx=ctx),
}


def _assert_bit_identical(result, baseline):
    np.testing.assert_array_equal(result.colors, baseline.colors)
    assert result.rounds == baseline.rounds
    assert result.cost.snapshot() == baseline.cost.snapshot()
    assert result.mem.total == baseline.mem.total
    if baseline.reorder_cost is not None:
        assert result.reorder_cost.work == baseline.reorder_cost.work
        assert result.reorder_cost.depth == baseline.reorder_cost.depth


class TestFaultPlanParsing:
    def test_at_clause(self):
        plan = FaultPlan.parse("error@3.0")
        (s,) = plan.specs
        assert (s.kind, s.round, s.chunk, s.times) == ("error", 3, 0, 1)
        assert s.rate is None

    def test_wildcards_param_times(self):
        plan = FaultPlan.parse("delay@7.*:0.25;kill@*.1x3")
        d, k = plan.specs
        assert (d.kind, d.round, d.chunk, d.param) == ("delay", 7, None, 0.25)
        assert (k.kind, k.round, k.chunk, k.times) == ("kill", None, 1, 3)

    def test_rate_clause_and_seed(self):
        plan = FaultPlan.parse("error%0.25:0.1;seed=42")
        (s,) = plan.specs
        assert s.rate == 0.25
        assert plan.seed == 42

    def test_delay_default_param(self):
        plan = FaultPlan.parse("delay@1.0")
        assert plan.specs[0].param == DEFAULT_DELAY

    def test_empty_clauses_skipped(self):
        assert len(FaultPlan.parse("error@1.0;;  ;seed=3").specs) == 1

    @pytest.mark.parametrize("bad", ["boom@1.0", "error@x.0", "error@1",
                                     "error%1.5", "kill@1.0:0.1:9", "error"])
    def test_bad_clause_raises(self, bad):
        with pytest.raises(ValueError, match="bad fault clause|rate"):
            FaultPlan.parse(bad)

    def test_shard_clause_rejected(self):
        # There is no shard coordinate to draw against, so a
        # shard-addressed clause must fail loudly instead of parsing
        # into a fault that never fires.
        for clause in ("kill@s1", "error@s*x3", "delay@s0:0.25"):
            with pytest.raises(ValueError, match="bad fault clause"):
                FaultPlan.parse(clause)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope")
        with pytest.raises(ValueError):
            FaultSpec(kind="error", times=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="delay", param=-1.0)


class TestFaultPlanDraw:
    def test_exact_coordinate_once(self):
        plan = FaultPlan.parse("error@2.1")
        assert plan.draw(2, 0) is None
        assert plan.draw(2, 1).kind == "error"
        assert plan.draw(2, 1, attempt=2) is None  # times=1: retry is clean
        assert plan.fired == {"error": 1}

    def test_times_covers_attempts(self):
        plan = FaultPlan.parse("error@1.0x3")
        assert all(plan.draw(1, 0, attempt=a) for a in (1, 2, 3))
        assert plan.draw(1, 0, attempt=4) is None
        assert plan.fired == {"error": 3}

    def test_wildcard_matches_every_chunk(self):
        plan = FaultPlan.parse("kill@5.*")
        assert plan.draw(5, 0) and plan.draw(5, 7)
        assert plan.draw(4, 0) is None

    def test_rate_deterministic_per_seed(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan.parse("error%0.3;seed=9")
            draws.append([plan.draw(r, c) is not None
                          for r in range(20) for c in range(4)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])
        other = FaultPlan.parse("error%0.3;seed=10")
        assert draws[0] != [other.draw(r, c) is not None
                            for r in range(20) for c in range(4)]

    def test_rate_quiet_on_retry(self):
        plan = FaultPlan(specs=[FaultSpec(kind="error", rate=1.0)])
        assert plan.draw(1, 0) is not None
        assert plan.draw(1, 0, attempt=2) is None

    def test_first_match_wins(self):
        plan = FaultPlan.parse("delay@1.0;error@1.*")
        assert plan.draw(1, 0).kind == "delay"
        assert plan.draw(1, 1).kind == "error"

    def test_apply_fault_kinds(self):
        with pytest.raises(WorkerDeath):
            apply_fault(FaultSpec(kind="kill"))
        with pytest.raises(FaultInjected):
            apply_fault(FaultSpec(kind="error"))
        apply_fault(FaultSpec(kind="delay", param=0.0))  # returns


class TestResolveFaultPlan:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1.0;seed=5")
        plan = resolve_fault_plan(None)
        assert plan.seed == 5 and len(plan.specs) == 1
        for off in ("", "0", "off", "OFF"):
            monkeypatch.setenv("REPRO_FAULTS", off)
            assert resolve_fault_plan(None) is None

    def test_false_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1.0")
        assert resolve_fault_plan(False) is None

    def test_explicit_plan_and_str(self):
        plan = FaultPlan.parse("kill@1.0")
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan("kill@1.0").specs == plan.specs
        assert resolve_fault_plan("") is None
        with pytest.raises(TypeError):
            resolve_fault_plan(42)


class TestInlineRecovery:
    """Serial backend: retry in place, budgets, ChunkError wording."""

    def test_error_retried_result_exact(self):
        with ExecutionContext(backend="serial", faults="error@1.0",
                              backoff=0.0) as ctx:
            out = ctx.map_chunks(lambda lo, hi: list(range(lo, hi)), 10)
        assert [x for c in out for x in c] == list(range(10))
        assert ctx.fault_record()["counters"] == {
            "fault.injected.error": 1, "fault.retries": 1}

    def test_retry_exhaustion_names_coordinates(self):
        with ExecutionContext(backend="serial", faults="error@1.0x9",
                              retries=2, backoff=0.0) as ctx:
            with pytest.raises(ChunkError,
                               match=r"round 1 chunk 0 \[0, 50\) of 50 "
                                     r"items failed after 3 attempt"):
                ctx.map_chunks(lambda lo, hi: hi - lo, 50)

    def test_zero_retries_fail_fast(self):
        with ExecutionContext(backend="serial", faults="error@1.0",
                              retries=0) as ctx:
            with pytest.raises(ChunkError, match="after 1 attempt"):
                ctx.map_chunks(lambda lo, hi: hi - lo, 8)

    def test_delay_fault_result_unchanged(self):
        with ExecutionContext(backend="serial",
                              faults="delay@1.0:0.001") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, 12)
        assert sum(out) == 12
        assert ctx.fault_record()["counters"] == {"fault.injected.delay": 1}

    def test_kill_on_serial_consumes_retry_budget(self):
        # Serial is the bottom of the degradation ladder: a simulated
        # worker death must behave like a chunk failure (terminates).
        with ExecutionContext(backend="serial", faults="kill@1.0x9",
                              retries=1, backoff=0.0) as ctx:
            with pytest.raises(ChunkError, match="items failed"):
                ctx.map_chunks(lambda lo, hi: hi - lo, 6)

    def test_no_faults_no_record(self):
        with ExecutionContext(backend="serial", faults=False) as ctx:
            ctx.map_chunks(lambda lo, hi: hi - lo, 6)
        assert ctx.fault_record() is None


class TestChaosMatrix:
    """Every engine x backend x fault kind: bit-identical recovery."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend,workers", CHAOS_ROWS, ids=CHAOS_IDS)
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_recovery_bit_identical(self, chaos_graph, baselines, engine,
                                    backend, workers, kind):
        param = ":0.001" if kind == "delay" else ""
        plan = FaultPlan.parse(f"{kind}@2.0{param};{kind}@5.1{param}")
        with ExecutionContext(backend=backend, workers=workers,
                              faults=plan, backoff=0.0) as ctx:
            result = ENGINES[engine](chaos_graph, ctx)
        _assert_bit_identical(result, baselines[engine])
        assert_valid_coloring(chaos_graph, result.colors)
        # The runtime's injected counters are exactly the plan's tally.
        counters = result.faults["counters"]
        assert sum(plan.fired.values()) > 0
        for k, fired in plan.fired.items():
            assert counters[f"fault.injected.{k}"] == fired
        assert result.faults["plan"]["fired"] == plan.fired

    @pytest.mark.parametrize("backend,workers", CHAOS_ROWS, ids=CHAOS_IDS)
    def test_rate_plan_bit_identical(self, chaos_graph, baselines,
                                     backend, workers):
        plan = FaultPlan.parse("error%0.05;delay%0.02:0.001;seed=13")
        with ExecutionContext(backend=backend, workers=workers,
                              faults=plan, backoff=0.0) as ctx:
            result = ENGINES["jp-adg"](chaos_graph, ctx)
        _assert_bit_identical(result, baselines["jp-adg"])
        # JP colors without dispatching, so the draws land in ADG rounds.
        assert plan.fired["error"] > 0

    def test_simcol_fault_transparent(self):
        g = ring(40)
        rngs = [np.random.default_rng(3), np.random.default_rng(3)]
        outs = []
        for faults, rng in zip((False, "error@1.0;error@2.0"), rngs):
            forbidden = np.zeros((g.n, 12), dtype=bool)
            with ExecutionContext(backend="serial", faults=faults,
                                  backoff=0.0) as ctx:
                outs.append(sim_col(g, g.degrees, forbidden, 2.0, rng,
                                    ctx=ctx))
        np.testing.assert_array_equal(outs[1][0], outs[0][0])
        assert outs[1][1] == outs[0][1]


class TestPoolLoss:
    """A kill on a threaded round loses the pool: the run degrades to
    serial at once, with no respawn, and only the lost chunks re-run."""

    def test_worker_kill_degrades_to_serial(self, chaos_graph, baselines):
        plan = FaultPlan.parse("kill@3.0")
        with ExecutionContext(backend="threaded", workers=2, faults=plan,
                              adaptive="off") as ctx:
            result = ENGINES["jp-adg"](chaos_graph, ctx)
        _assert_bit_identical(result, baselines["jp-adg"])
        assert result.backend == "serial"
        rec = result.faults
        assert rec["counters"] == {"fault.injected.kill": 1,
                                   "fault.degradations": 1}
        assert rec["events"] == [{"kind": "degrade", "from": "threaded",
                                  "to": "serial", "round": 3}]

    def test_kill_record_independent_of_adaptive_mode(self, chaos_graph):
        """Pooled or inlined, a kill on a threaded round is the same
        fault: every adaptive mode books the same recovery."""
        records = {}
        for mode in ("on", "off", "inline", "parallel"):
            with ExecutionContext(backend="threaded", workers=2,
                                  faults="kill@3.0", adaptive=mode) as ctx:
                records[mode] = ENGINES["jp-adg"](chaos_graph, ctx).faults
        assert records["off"]["events"] == [
            {"kind": "degrade", "from": "threaded", "to": "serial",
             "round": 3}]
        assert all(r == records["off"] for r in records.values()), records

    def test_kill_in_every_chunk_degrades_once(self):
        with ExecutionContext(backend="threaded", workers=2,
                              faults="kill@1.*", adaptive="off") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, 100)
            assert ctx.backend == "serial"
        assert sum(out) == 100
        counters = ctx.fault_record()["counters"]
        assert counters["fault.degradations"] == 1
        assert "fault.retries" not in counters


class TestWaveCancellation:
    """Regression: a poisoned round must not leak running chunks.

    Before the fix, map_chunks returned the ChunkError while sibling
    futures kept running — a stale chunk could still be writing when
    the caller started its next round.  The abort path now cancels
    pending futures and drains the ones already running.
    """

    def test_no_writes_after_chunk_error(self):
        writes = []
        gate = threading.Event()

        def poisoned(lo, hi):
            if lo == 0:
                raise RuntimeError("boom")
            gate.wait(2.0)  # siblings are mid-flight during the failure
            time.sleep(0.01)
            writes.append((lo, hi))
            return hi - lo

        with ExecutionContext(backend="threaded", workers=4,
                              faults=False, retries=0,
                              adaptive="off") as ctx:
            with pytest.raises(ChunkError, match="items failed"):
                try:
                    gate.set()
                    ctx.map_chunks(poisoned, 1000)
                finally:
                    gate.set()
            # The abort drained the wave: whatever ran has finished, and
            # nothing else may start.  A later round sees quiet state.
            settled = len(writes)
            time.sleep(0.1)
            assert len(writes) == settled
            out = ctx.map_chunks(lambda lo, hi: hi - lo, 1000)
            assert sum(out) == 1000
            time.sleep(0.05)
            assert len(writes) == settled


class TestFaultRecordPlumbing:
    def test_result_faults_none_without_plan(self):
        g = gnm_random(60, 200, seed=2)
        with ExecutionContext(backend="serial", faults=False) as ctx:
            res = jp_by_name(g, "ADG", seed=0, eps=0.1, ctx=ctx)
        assert res.faults is None

    def test_child_context_shares_fault_state(self):
        # An ordering computed on a child context books its injections
        # into the host's record (one run, one ledger).
        g = gnm_random(60, 200, seed=2)
        with ExecutionContext(backend="serial", faults="error@1.0",
                              backoff=0.0) as ctx:
            res = jp_by_name(g, "ADG", seed=0, eps=0.1, ctx=ctx)
        assert res.faults["counters"]["fault.injected.error"] == 1

    def test_tracer_sees_fault_counters(self, chaos_graph):
        from repro.obs import Tracer
        t = Tracer()
        with ExecutionContext(backend="serial", faults="error@2.0",
                              backoff=0.0, trace=t) as ctx:
            ENGINES["jp-adg"](chaos_graph, ctx)
        assert t.metrics.get("fault.injected.error").total == 1
        assert any(e.name == "fault.error" for e in t.spans(cat="fault"))
