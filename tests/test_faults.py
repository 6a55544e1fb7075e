"""Chaos layer: deterministic fault injection against the recovery path.

The contract under test: under any in-budget
:class:`~repro.runtime.faults.FaultPlan`, every engine on every backend
produces colors, rounds, and accounting books bit-identical to a
fault-free serial run — and the runtime's ``fault.*`` counters agree
with the plan's own ``fired`` tally.  Only injected faults are retried;
any other exception a round raises propagates on its first failure.

Every context built here passes an explicit ``faults=`` (a plan, or
``False`` for the fault-free baselines) so the suite also runs
unchanged under an ambient ``$REPRO_FAULTS`` plan.
"""

import json
import os
import subprocess
import sys

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
    FaultPlan,
    FaultSpec,
    resolve_fault_plan,
)

#: (backend, workers) rows of the chaos matrix.
CHAOS_ROWS = [("serial", 1), ("threaded", 4)]
CHAOS_IDS = [b for b, _ in CHAOS_ROWS]

KINDS = ["error"]


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
        assert (s.kind, s.round, s.times) == ("error", 3, 1)
        assert s.rate is None

    def test_wildcards_param_times(self):
        # The chunk wildcard equals chunk 0; a PARAM is accepted and
        # ignored.
        plan = FaultPlan.parse("error@7.*:0.25;error@*.0x3")
        a, b = plan.specs
        assert (a.kind, a.round, a.times) == ("error", 7, 1)
        assert (b.kind, b.round, b.times) == ("error", None, 3)

    def test_rate_clause_and_seed(self):
        plan = FaultPlan.parse("error%0.25:0.1;seed=42")
        (s,) = plan.specs
        assert s.rate == 0.25
        assert plan.seed == 42

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

    @pytest.mark.parametrize("clause", ["kill@8.0", "kill@5.*",
                                        "delay@7.0:0.25", "delay%0.02:0.001",
                                        "kill%0.1"])
    def test_pool_kinds_rejected(self, clause):
        # kill (pool loss) and delay (straggler) acted on the removed
        # thread pool; a plan naming them must fail, not parse into a
        # fault that never fires.
        with pytest.raises(ValueError, match="removed with the thread pool"):
            FaultPlan.parse(f"error@1.0;{clause}")

    @pytest.mark.parametrize("clause", ["error@3.1", "error@*.2x3",
                                        "error@5.12"])
    def test_chunk_coordinate_rejected(self, clause):
        with pytest.raises(ValueError, match="chunk coordinate .* removed"):
            FaultPlan.parse(clause)

    def test_env_plan_with_removed_kind_fails_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@8.0")
        with pytest.raises(ValueError, match="'kill' fault kind was removed"):
            ExecutionContext()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope")
        with pytest.raises(ValueError):
            FaultSpec(kind="error", times=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="delay")


class TestFaultPlanDraw:
    def test_exact_coordinate_once(self):
        plan = FaultPlan.parse("error@2.0")
        assert plan.draw(1) is None
        assert plan.draw(2).kind == "error"
        assert plan.draw(2, attempt=2) is None  # times=1: retry is clean
        assert plan.fired == {"error": 1}

    def test_times_covers_attempts(self):
        plan = FaultPlan.parse("error@1.0x3")
        assert all(plan.draw(1, attempt=a) for a in (1, 2, 3))
        assert plan.draw(1, attempt=4) is None
        assert plan.fired == {"error": 3}

    def test_wildcard_matches_every_round(self):
        plan = FaultPlan.parse("error@*.0")
        assert plan.draw(5) and plan.draw(7)
        assert plan.draw(7, attempt=2) is None

    def test_rate_deterministic_per_seed(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan.parse("error%0.3;seed=9")
            draws.append([plan.draw(r) is not None for r in range(80)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])
        other = FaultPlan.parse("error%0.3;seed=10")
        assert draws[0] != [other.draw(r) is not None for r in range(80)]

    def test_rate_quiet_on_retry(self):
        plan = FaultPlan(specs=[FaultSpec(kind="error", rate=1.0)])
        assert plan.draw(1) is not None
        assert plan.draw(1, attempt=2) is None

    def test_first_match_wins(self):
        plan = FaultPlan.parse("error@1.0;error@*.0x3")
        first, second = plan.specs
        assert plan.draw(1) is first
        assert plan.draw(1, attempt=2) is second
        assert plan.draw(2) is second


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
        plan = FaultPlan.parse("error@1.0")
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan("error@1.0").specs == plan.specs
        assert resolve_fault_plan("") is None
        with pytest.raises(TypeError):
            resolve_fault_plan(42)


class TestInlineRecovery:
    """Retry in place, budgets, ChunkError wording, and no retry of
    errors a round raises itself."""

    def test_error_retried_result_exact(self):
        with ExecutionContext(backend="serial", faults="error@1.0",
                              backoff=0.0) as ctx:
            out = ctx.map_chunks(lambda lo, hi: list(range(lo, hi)), 10)
        assert out == list(range(10))
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

    @pytest.mark.parametrize("faults", [False, "error@2.0"])
    def test_own_error_propagates_unwrapped_once(self, faults):
        calls = []

        def boom(lo, hi):
            calls.append((lo, hi))
            raise ValueError("bad round")

        with ExecutionContext(backend="threaded", workers=4, faults=faults,
                              retries=3, backoff=0.5) as ctx:
            with pytest.raises(ValueError, match="bad round"):
                ctx.map_chunks(boom, 20)
        assert calls == [(0, 20)]
        assert "fault.retries" not in (ctx.fault_record() or {}).get(
            "counters", {})

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
        plan = FaultPlan.parse(f"{kind}@2.0;{kind}@5.0")
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
        plan = FaultPlan.parse("error%0.05;seed=13")
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


def _cli_color(*extra) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    env.pop("REPRO_FAULTS", None)
    out = subprocess.run(
        [sys.executable, "-m", "repro", "color", "--gen", "gnm:2000,10000",
         "--algorithm", "JP-ADG", "--json", *extra],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return json.loads(out.stdout)


class TestCLIChaos:
    """``--faults`` end to end: deterministic, and invisible in colors."""

    def test_error_plan_reproducible_and_transparent(self):
        runs = [_cli_color("--faults", "error@3.0", "--backend", "threaded",
                           "--workers", "4") for _ in range(2)]
        quiet = _cli_color()
        for rec in runs:
            rec.pop("wall_s", None)
            rec.pop("reorder_wall_s", None)
            rec.pop("phase_walls", None)
        assert runs[0] == runs[1]
        assert runs[0]["faults"]["counters"] == {
            "fault.injected.error": 1, "fault.retries": 1}
        assert runs[0]["colors_digest"] == quiet["colors_digest"]
        assert runs[0]["backend"] == "threaded"
