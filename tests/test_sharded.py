"""Sharded DEC execution: plan properties, parity, chaos, hygiene.

The sharding layer's contracts, each pinned by a test class:

- the plan is a true partition with exact cross-edge bookkeeping;
- sharded runs stay valid and inside the engine's paper bound on the
  same family sweep as the unsharded conformance suite;
- threaded and serial sharded runs produce bit-identical colors and
  accounting books (the chunk runtime's parity contract, lifted);
- a killed shard engine re-runs as a failed attempt with unchanged
  output; an exhausted retry budget raises ``ShardError`` instead of
  answering with different colors;
- per-shard working sets stay under half the unsharded footprint on
  the skewed Kronecker family (the memory-isolation acceptance bar).
"""

import numpy as np
import pytest

from repro.analysis.bounds import GraphParams, quality_bound
from repro.coloring.dec_adg import dec_adg
from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.registry import color
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import gnm_random, kronecker, ring
from repro.graphs.properties import degeneracy
from repro.ordering.adg import adg_ordering
from repro.runtime import (
    ExecutionContext,
    ShardError,
    default_shards,
    plan_shards,
)

SEEDS = [0, 1]

#: Same structural sweep as the unsharded conformance suite.
FAMILIES = {
    "ring": lambda seed: ring(200),
    "gnm": lambda seed: gnm_random(300, 1200, seed=seed),
    "kronecker": lambda seed: kronecker(scale=8, edge_factor=8, seed=seed),
}

#: engine -> (callable, the eps its bound is stated at).
ENGINES = {
    "DEC-ADG": (dec_adg, 6.0),
    "DEC-ADG-ITR": (dec_adg_itr, 0.01),
}


def _params(g) -> GraphParams:
    return GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                       degeneracy=degeneracy(g))


class TestShardPlan:
    def test_partition_covers_vertex_set(self):
        g = gnm_random(200, 800, seed=0)
        plan = plan_shards(g, 4)
        allv = np.concatenate([s.vertices for s in plan.shards])
        np.testing.assert_array_equal(np.sort(allv), np.arange(g.n))
        for s in plan.shards:
            assert np.all(np.diff(s.vertices) > 0), "shard verts sorted"
            assert np.all(plan.assign[s.vertices] == s.sid)

    def test_cross_edges_match_bruteforce(self):
        g = gnm_random(120, 500, seed=1)
        plan = plan_shards(g, 3)
        u, v = g.undirected_edges()
        expected = int(np.sum(plan.assign[u] != plan.assign[v]))
        assert plan.cut_edges == expected
        np.testing.assert_array_equal(
            plan.assign[plan.cross_u] != plan.assign[plan.cross_v], True)

    def test_level_planner_engages_with_levels(self):
        g = gnm_random(300, 1200, seed=2)
        levels = adg_ordering(g, eps=0.5).levels
        plan = plan_shards(g, 4, levels=levels)
        assert plan.planner == "levels"
        assert plan_shards(g, 4).planner == "ranges"

    def test_single_shard_plan(self):
        g = gnm_random(50, 150, seed=3)
        plan = plan_shards(g, 1)
        assert plan.n_shards == 1
        assert plan.cut_edges == 0

    def test_digest_is_consistent(self):
        g = gnm_random(150, 600, seed=4)
        plan = plan_shards(g, 4)
        d = plan.digest()
        assert d["n_shards"] == plan.n_shards
        assert sum(d["sizes"]) == g.n
        # Every edge is interior to exactly one shard or cut.
        assert sum(d["edges"]) + d["cut_edges"] == g.m
        assert d["max_bytes"] == max(d["bytes"])

    def test_rejects_bad_count(self):
        g = ring(10)
        with pytest.raises(ValueError):
            plan_shards(g, 0)


class TestShardedParity:
    """Satellite 3: the sharded engines stay valid and inside the
    paper bound on ring / G(n,m) / Kronecker across seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_valid_and_bounded(self, algorithm, family, seed):
        g = FAMILIES[family](seed)
        fn, eps = ENGINES[algorithm]
        res = fn(g, eps=eps, seed=seed, shards=4)
        assert_valid_coloring(g, res.colors)
        assert int(res.colors.min()) >= 1
        bound = quality_bound(algorithm, _params(g), eps=eps)
        assert res.num_colors <= bound, (
            f"sharded {algorithm} on {family}(seed={seed}): "
            f"{res.num_colors} colors > proven bound {bound}")
        assert res.shards is not None
        # The repair loop terminated well inside its divergence guard.
        assert res.shards["repair_rounds"] <= g.n

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_threaded_matches_serial(self, algorithm):
        g = gnm_random(300, 1200, seed=3)
        fn, eps = ENGINES[algorithm]
        serial = fn(g, eps=eps, seed=1, shards=4)
        threaded = fn(g, eps=eps, seed=1, shards=4, backend="threaded",
                      workers=2)
        np.testing.assert_array_equal(serial.colors, threaded.colors)
        assert serial.cost.snapshot() == threaded.cost.snapshot()
        assert serial.mem.total == threaded.mem.total
        assert serial.rounds == threaded.rounds

    def test_one_shard_is_plain_engine(self):
        g = gnm_random(120, 400, seed=2)
        plain = dec_adg(g, seed=0)
        one = dec_adg(g, seed=0, shards=1)
        np.testing.assert_array_equal(plain.colors, one.colors)
        assert one.shards is None  # shards<=1 never enters the layer

    def test_registry_routes_shards(self):
        g = gnm_random(150, 500, seed=5)
        res = color("DEC-ADG", g, seed=0, shards=3)
        assert_valid_coloring(g, res.colors)
        assert res.shards["n_shards"] == 3

    def test_env_seam_engages_layer(self, monkeypatch):
        g = gnm_random(150, 500, seed=6)
        monkeypatch.setenv("REPRO_SHARDS", "3")
        res = dec_adg_itr(g, seed=0)
        assert res.shards is not None
        assert res.shards["n_shards"] == 3

    def test_per_shard_rows(self):
        g = gnm_random(200, 800, seed=7)
        res = dec_adg(g, seed=0, shards=4)
        rows = res.shards["per_shard"]
        assert len(rows) == res.shards["n_shards"]
        assert sum(r["n"] for r in rows) == g.n
        assert all(r["rounds"] >= 1 for r in rows)


class TestShardChaos:
    """Chaos rows: a shard engine runs on its own serial context, so a
    kill is a failed attempt — re-run with unchanged output, or, past
    the retry budget, a ``ShardError``."""

    def test_killed_worker_respawns(self):
        g = gnm_random(300, 1200, seed=3)
        base = dec_adg(g, seed=1, shards=4, backend="threaded", workers=2)
        with ExecutionContext(backend="threaded", workers=2,
                              faults="kill@s1", backoff=0.0) as ctx:
            res = dec_adg(g, seed=1, shards=4, ctx=ctx)
        np.testing.assert_array_equal(res.colors, base.colors)
        assert res.backend == "threaded"
        assert res.faults["counters"] == {"fault.injected.kill": 1,
                                          "fault.retries": 1}
        assert res.faults["events"] == []

    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("threaded", 2)])
    def test_exhausted_budget_raises(self, backend, workers):
        # An unsharded fallback would answer with the plain engine's
        # colors, which differ from the sharded run's: fail loudly.
        g = gnm_random(300, 1200, seed=3)
        with ExecutionContext(backend=backend, workers=workers,
                              faults="kill@s*x99", retries=2,
                              backoff=0.0) as ctx:
            with pytest.raises(ShardError,
                               match="shard 0 failed after 3 attempt"):
                dec_adg(g, seed=1, shards=4, ctx=ctx)
            assert ctx.fault_record()["counters"] == {
                "fault.injected.kill": 3, "fault.retries": 2}

    def test_shard_error_retries_then_succeeds(self):
        g = gnm_random(150, 500, seed=2)
        with ExecutionContext(faults="error@s0x2", retries=3,
                              backoff=0.0) as ctx:
            res = dec_adg_itr(g, seed=0, shards=3, ctx=ctx)
        assert_valid_coloring(g, res.colors)
        assert res.faults["counters"]["fault.retries"] == 2

    def test_shard_error_budget_exhausted_raises(self):
        g = gnm_random(150, 500, seed=2)
        with ExecutionContext(faults="error@s0x9", retries=1,
                              backoff=0.0) as ctx:
            with pytest.raises(ShardError):
                dec_adg_itr(g, seed=0, shards=3, ctx=ctx)


class TestShardMemory:
    """Acceptance bar: per-shard working set under half the unsharded
    footprint on the skewed Kronecker family."""

    def test_max_shard_bytes_halved_on_kronecker(self):
        g = kronecker(scale=8, edge_factor=8, seed=0)
        levels = adg_ordering(g, eps=0.5).levels
        plan = plan_shards(g, 4, levels=levels)
        full = (g.indptr.nbytes + g.indices.nbytes
                + 4 * g.n * np.dtype(np.int64).itemsize)
        assert plan.max_nbytes < full / 2, (
            f"largest shard maps {plan.max_nbytes} bytes, "
            f"unsharded working set is {full}")

    def test_shard_rss_reported(self):
        # Shards share the coordinator's process, so a shard's resident
        # footprint is its mapped working set, not a per-pid RSS.
        g = gnm_random(300, 1200, seed=3)
        res = dec_adg(g, seed=1, shards=4, backend="threaded", workers=2)
        rows = res.shards["per_shard"]
        assert [r["bytes"] for r in rows] == res.shards["bytes"]
        assert all(r["bytes"] > 0 for r in rows)
        assert not any("pid" in r or "rss_kb" in r for r in rows)


class TestShardSeam:
    def test_default_shards_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert default_shards() == 0
        for raw, want in [("", 0), ("0", 0), ("off", 0), ("OFF", 0),
                          ("1", 1), ("8", 8)]:
            monkeypatch.setenv("REPRO_SHARDS", raw)
            assert default_shards() == want
        monkeypatch.setenv("REPRO_SHARDS", "nope")
        with pytest.raises(ValueError):
            default_shards()
        monkeypatch.setenv("REPRO_SHARDS", "-2")
        with pytest.raises(ValueError):
            default_shards()

    def test_context_shards_property(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        with ExecutionContext() as ctx:
            assert ctx.shards == 0
        with ExecutionContext(shards=4) as ctx:
            assert ctx.shards == 4
        monkeypatch.setenv("REPRO_SHARDS", "5")
        with ExecutionContext() as ctx:
            assert ctx.shards == 5

    def test_sharded_fluent_setter(self):
        with ExecutionContext(shards=0) as ctx:
            assert ctx.sharded(4) is ctx
            assert ctx.shards == 4
            with pytest.raises(ValueError):
                ctx.sharded(-1)

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext(shards=-1)
