"""The asyncio coloring service: cache, FIFO ordering, error behavior.

Each test drives an in-process :class:`ColoringService` through
``asyncio.run`` (the TCP front end gets its own round-trip test at the
bottom).  Every submit is wrapped in ``asyncio.wait_for`` so a
regression that hangs a request future fails fast instead of stalling
the suite.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import numpy as np
import pytest

from repro.obs.ledger import read_ledger, validate_ledger
from repro.service import ColoringService, ResultCache, cache_key

TIMEOUT = 120.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


async def ask(svc, **request):
    return await asyncio.wait_for(svc.submit(request), TIMEOUT)


GNM = {"kind": "gnm", "n": 150, "m": 500, "seed": 4}


# -- cache --------------------------------------------------------------------

class TestResultCache:
    def test_lru_hits_misses_evictions(self):
        c = ResultCache(capacity=2)
        assert c.get("a") is None
        c.put("a", {"x": 1})
        c.put("b", {"x": 2})
        assert c.get("a") == {"x": 1}  # refreshes a
        c.put("c", {"x": 3})           # evicts b (LRU)
        assert c.get("b") is None
        assert c.get("a") == {"x": 1} and c.get("c") == {"x": 3}
        s = c.stats()
        assert s["hits"] == 3 and s["misses"] == 2 and s["evictions"] == 1

    def test_key_completeness(self):
        """Every field that can change the observable output must
        change the key: digest, algorithm, eps, seed."""
        base = dict(digest="aaaa", algorithm="DEC-ADG-ITR", eps=0.01,
                    seed=0)
        variants = [dict(base, digest="bbbb"),
                    dict(base, algorithm="DEC-ADG"),
                    dict(base, eps=0.02),
                    dict(base, seed=1)]
        keys = [cache_key(**base)] + [cache_key(**v) for v in variants]
        assert len(set(keys)) == len(keys), keys

    def test_same_inputs_same_key(self):
        kw = dict(digest="aaaa", algorithm="DEC-ADG", eps=6.0, seed=7)
        assert cache_key(**kw) == cache_key(**kw)


# -- the service itself -------------------------------------------------------

class TestServiceBasics:
    def test_color_cache_hit_and_bit_identical_result(self):
        async def main():
            async with ColoringService(workers=2,
                                       backend="serial") as svc:
                load = await ask(svc, op="load", graph="g", gen=GNM)
                assert load["ok"] and load["n"] == 150
                req = dict(op="color", graph="g",
                           algorithm="DEC-ADG-ITR", eps=0.01, seed=0)
                first = await ask(svc, **req)
                second = await ask(svc, **req)
                assert first["ok"] and not first["cached"]
                assert second["ok"] and second["cached"]
                # Bit-identical deterministic block, byte for byte.
                assert json.dumps(first["result"], sort_keys=True) == \
                    json.dumps(second["result"], sort_keys=True)
                stats = await ask(svc, op="stats")
                assert stats["cache"]["hits"] == 1
                assert stats["cache"]["misses"] == 1
        run(main())

    def test_concurrent_storm_counts_hits(self):
        async def main():
            async with ColoringService(workers=4,
                                       backend="serial") as svc:
                await ask(svc, op="load", graph="g", gen=GNM)
                req = dict(op="color", graph="g",
                           algorithm="DEC-ADG-ITR", eps=0.01, seed=0)
                responses = await asyncio.gather(
                    *[ask(svc, **req) for _ in range(16)])
                assert all(r["ok"] for r in responses)
                blocks = {json.dumps(r["result"], sort_keys=True)
                          for r in responses}
                assert len(blocks) == 1  # identical digest -> identical
                stats = await ask(svc, op="stats")
                cache = stats["cache"]
                # FIFO per graph serializes the storm: exactly one miss
                # computes, fifteen hits replay.
                assert cache["misses"] == 1 and cache["hits"] == 15
        run(main())

    def test_distinct_requests_are_distinct_cache_entries(self):
        async def main():
            async with ColoringService(workers=2,
                                       backend="serial") as svc:
                await ask(svc, op="load", graph="g", gen=GNM)
                a = await ask(svc, op="color", graph="g",
                              algorithm="DEC-ADG-ITR", eps=0.01, seed=0)
                b = await ask(svc, op="color", graph="g",
                              algorithm="DEC-ADG", eps=6.0, seed=0)
                c = await ask(svc, op="color", graph="g",
                              algorithm="DEC-ADG-ITR", eps=0.5, seed=0)
                assert not any(r["cached"] for r in (a, b, c))
                stats = await ask(svc, op="stats")
                assert stats["cache"]["size"] == 3
        run(main())

    def test_delta_fifo_ordering_under_concurrency(self):
        """Many concurrent apply_delta submissions must apply in
        submission order — seq in the response proves the order."""
        async def main():
            async with ColoringService(workers=4,
                                       backend="serial") as svc:
                await ask(svc, op="load", graph="g",
                          gen={"kind": "ring", "n": 64})
                reqs = [dict(op="apply_delta", graph="g",
                             delta={"add_vertices": 1,
                                    "add_edges": [[64 + i, i]]})
                        for i in range(12)]
                responses = await asyncio.gather(
                    *[ask(svc, **r) for r in reqs])
                assert all(r["ok"] for r in responses)
                # Tickets issued in submission order...
                assert [r["seq"] for r in responses] == list(range(12))
                # ...and each delta saw every earlier one applied: the
                # i-th response reports the post-delta vertex count,
                # so n grows monotonically from 65.
                assert [r["n"] for r in responses] == \
                    [65 + i for i in range(12)]
                verify = await ask(svc, op="verify", graph="g")
                assert verify["valid"] and verify["within_bound"]
        run(main())

    def test_delta_invalidates_color_cache_by_digest(self):
        async def main():
            async with ColoringService(workers=2,
                                       backend="serial") as svc:
                await ask(svc, op="load", graph="g", gen=GNM)
                req = dict(op="color", graph="g",
                           algorithm="DEC-ADG-ITR", eps=0.01, seed=0)
                before = await ask(svc, **req)
                await ask(svc, op="apply_delta", graph="g",
                          delta="add:0-100")
                after = await ask(svc, **req)
                assert not after["cached"]
                assert after["result"]["digest"] != \
                    before["result"]["digest"]
        run(main())

    def test_errors_are_responses_not_hangs(self):
        async def main():
            async with ColoringService(workers=2,
                                       backend="serial") as svc:
                r = await ask(svc, op="color", graph="missing")
                assert not r["ok"] and "load it first" in r["error"]
                r = await ask(svc, op="frobnicate")
                assert not r["ok"]
                await ask(svc, op="load", graph="g",
                          gen={"kind": "ring", "n": 8})
                r = await ask(svc, op="color", graph="g",
                              algorithm="NO-SUCH")
                assert not r["ok"] and "unknown algorithm" in r["error"]
                r = await ask(svc, op="apply_delta", graph="g",
                              delta="bogus_spec!!")
                assert not r["ok"]
        run(main())

    def test_profile_reports_walls(self):
        async def main():
            async with ColoringService(workers=2,
                                       backend="serial") as svc:
                await ask(svc, op="load", graph="g", gen=GNM)
                r = await ask(svc, op="profile", graph="g",
                              algorithm="DEC-ADG-ITR", eps=0.01)
                assert r["ok"] and r["profile"]["wall_seconds"] > 0
                assert r["profile"]["backend"] == "serial"
        run(main())


# -- per-request ledger rows --------------------------------------------------

class TestServiceLedger:
    def test_service_rows_appended_and_valid(self, tmp_path):
        path = str(tmp_path / "svc_ledger.jsonl")

        async def main():
            async with ColoringService(workers=2, backend="serial",
                                       ledger=path) as svc:
                await ask(svc, op="load", graph="g",
                          gen={"kind": "ring", "n": 32})
                await ask(svc, op="color", graph="g",
                          algorithm="DEC-ADG-ITR", eps=0.01, seed=0)
                await ask(svc, op="apply_delta", graph="g",
                          delta="add:0-16")
                await ask(svc, op="verify", graph="g")
        run(main())
        assert validate_ledger(path) == 4
        rows = read_ledger(path)
        assert [r["op"] for r in rows] == \
            ["load", "color", "apply_delta", "verify"]
        assert all(r["kind"] == "service" for r in rows)
        assert all(r["row"]["ok"] for r in rows)
        delta_row = rows[2]["row"]
        assert delta_row["graph"] == "g" and "digest" in delta_row

    def test_one_row_per_request_failures_included(self, tmp_path):
        """A request whose op raises still writes its ledger row."""
        path = str(tmp_path / "svc_ledger.jsonl")

        async def main():
            async with ColoringService(workers=2, backend="serial",
                                       ledger=path) as svc:
                return [
                    await ask(svc, op="load", graph="g", gen=GNM),
                    await ask(svc, op="color", graph="g", eps=-1),
                    await ask(svc, op="color", graph="nope"),
                    await ask(svc, op="apply_delta", graph="g",
                              algorithm="Greedy", delta="add:0-1"),
                ]
        replies = run(main())
        assert [r["ok"] for r in replies] == [True, False, False, False]
        assert validate_ledger(path) == 4
        rows = read_ledger(path)
        assert [r["op"] for r in rows] == \
            ["load", "color", "color", "apply_delta"]
        assert [r["row"]["ok"] for r in rows] == [True, False, False, False]
        assert all("error" in r["row"] for r in rows[1:])


# -- engine errors: requests complete, never hang -----------------------------

class TestServiceUnderFaults:
    def test_engine_error_is_not_retried(self, monkeypatch):
        """An engine error is one error response, and the engine runs
        once."""
        import repro.service.server as server

        calls = []
        real_color = server.color

        def counting_color(*args, **kwargs):
            calls.append(args[0])
            return real_color(*args, **kwargs)

        monkeypatch.setattr(server, "color", counting_color)

        async def main():
            async with ColoringService(workers=1, backend="serial") as svc:
                await ask(svc, op="load", graph="g", gen=GNM)
                r = await ask(svc, op="color", graph="g",
                              algorithm="DEC-ADG-ITR", eps=-1)
                stats = await ask(svc, op="stats")
                return r, stats
        r, stats = run(main())
        assert r["ok"] is False and "eps" in r["error"]
        assert stats["metrics"]["svc.errors"]["total"] == 1
        assert calls == ["DEC-ADG-ITR"]


# -- TCP front end ------------------------------------------------------------

class TestNetRoundTrip:
    def test_tcp_session(self):
        import socket
        import subprocess
        import sys
        import os

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--backend", "serial"],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            assert "repro-service listening" in banner
            from repro.service import ServiceClient
            with ServiceClient(port=port, timeout=TIMEOUT) as client:
                r = client.request(op="load", graph="g",
                                   gen={"kind": "ring", "n": 48})
                assert r["ok"] and r["m"] == 48
                for i in range(3):
                    r = client.request(op="apply_delta", graph="g",
                                       delta=f"add:0-{10 + i}")
                    assert r["ok"] and r["seq"] == i
                r = client.request(op="verify", graph="g")
                assert r["ok"] and r["valid"] and r["within_bound"]
                r = client.request(op="shutdown")
                assert r["ok"]
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
