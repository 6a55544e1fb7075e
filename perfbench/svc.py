"""svc-dynamic: a closed loop of clients against ``python -m repro serve``.

The server runs in its own process.  Each of ``min(nproc, 4)`` client
threads owns one connection and one live ``gnm`` graph; all clients
share one static Kronecker graph, which the server loads from a seeded
edge-list file.  Every client runs 20-op cycles of a fixed mix
(:data:`DELTAS`, :data:`OTHERS`): single-edge ``apply_delta`` (12 adds,
2 deletes, so the peel rung of the repair ladder runs), ``color`` on
its live graph with JP-ADG and with DEC-ADG-ITR (cache misses: a delta
always changed the graph since the last one), ``color`` on the static
graph (cache hits after set-up warmed them) and ``verify``.  Each
cycle's order is shuffled from the seed (:meth:`LiveMirror.cycle`), so
the clients' heavy requests overlap at random instead of locking into
one phase for a whole run.

Checks.  While the clients run: every reply is ``ok``, delta and
live-color replies report the edge count of the client's own mirror of
its graph, and static hits return the block warmed in set-up, whose
colors digest matches the benchmark's own coloring of the same file.
After the loop each client's replies are certified in order by
:func:`check_logged`, so certifying takes no CPU from the timed loop:

- a ``verify`` reply, and a final one per live graph, must carry the
  digest of the mirror's graph as it stood, a ``degeneracy`` equal to
  the exact d the client peels from that graph, and a ``valid``,
  ``within_bound`` coloring;
- delta and live-color replies must use at most 2(1+eps)d'+1 colors,
  with d' the exact d of the last verify plus the edges added since (an
  added edge raises degeneracy by at most one, a deleted one never);
- every live-graph coloring is recomputed from the mirror as it stood
  (:func:`check_live`): graph digest, colors digest, color count and
  rounds must match the reply, and the recomputed coloring passes a
  neighbor scan.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

from batch import ALGORITHMS, chain_layers, chain_rows, color_chain
from common import (
    EPS,
    ROOT,
    SRC,
    WORK,
    Spans,
    Stopwatch,
    Workload,
    certify,
    file_sha,
    layer_table,
    load_workers,
    median,
    paper_bound,
    peak_rss_mb,
    steal_share,
    tail,
)
from repro import (
    ExecutionContext,
    assert_valid_coloring,
    color,
    from_edges,
    gnm_random,
    kronecker,
)
from repro.graphs.ingest import ingest_report
from repro.graphs.properties import peel_degeneracy
from repro.service import ServiceClient

#: One client's 20-op cycle: 70% deltas (12 add + 2 del), 10% live-graph
#: colors (misses), 15% static-graph colors (hits), 5% verify.
DELTAS = ("add",) * 12 + ("del",) * 2
OTHERS = ("live", "live", "static", "static", "static", "verify")

SIZES = {
    # static Kronecker (scale, edge factor), live gnm (n, m)
    "full": ((14, 24), (2000, 8000)),
    "toy": ((8, 8), (200, 600)),
}

#: Seconds to wait for the server's banner, and for it to exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def colors_digest(colors: np.ndarray) -> str:
    """The service's colors digest (sha256 of the int64 bytes, 16 hex).

    Kept apart from the program's own copy so the check against the
    server's replies does not trust the code under test.
    """
    arr = np.ascontiguousarray(np.asarray(colors, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def edge_graph(n: int, edges: list[tuple[int, int]]):
    """The graph on ``n`` vertices with the undirected ``edges``."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return from_edges(e[:, 0], e[:, 1], n=n)


def check_logged(o: dict, n: int, d: int) -> int:
    """Certify one logged reply about a live graph on ``n`` vertices.

    ``d`` is the exact degeneracy found at the last verify before the
    reply (or that of the initial graph); returns the one known after
    it.  The module doc lists what each kind of reply must satisfy.
    """
    r = o["reply"]
    if o["kind"] == "verify":
        g = edge_graph(n, o.pop("edges"))
        d = int(peel_degeneracy(g).degeneracy)
        certify(r.get("ok") and r["digest"] == g.content_digest
                and r["degeneracy"] == d and r["valid"]
                and r["within_bound"] and r["colors"] <= paper_bound(d),
                f"verify (exact degeneracy {d}) -> {r}")
        return d
    bound = paper_bound(d + o["added"])
    if o["kind"] == "live":
        check_live(o, edge_graph(n, o.pop("edges")), bound)
    elif o["kind"] in ("add", "del"):
        certify(r["colors"] <= bound, f"{o['kind']} (bound {bound}) -> {r}")
    return d


def check_live(o: dict, g, bound: int) -> None:
    """Recompute a live-graph coloring on ``g``, the mirror as it stood.

    The chain of public calls behind ``color`` runs on ``g``; its colors
    pass a neighbor scan and must match the reply's colors digest, so
    the server's coloring is certified without trusting the server.
    The chain's record joins ``o`` as ``replica``.
    """
    res = o["reply"]["result"]
    certify(g.content_digest == res["digest"],
            f"{o['graph']}: the server colored another graph: {res}")
    with ExecutionContext(backend="serial") as ctx:
        colors, rec = color_chain(g, res["algorithm"], ctx, Spans(), None)
    used = int(colors.max()) if colors.size else 0
    rounds = rec["waves"] if res["algorithm"] == "JP-ADG" else rec["rounds"]
    certify(colors_digest(colors) == res["colors_digest"]
            and used == res["colors"] and used <= bound
            and rounds == res["rounds"],
            f"{o['graph']}: recomputed {res['algorithm']} has {used} "
            f"colors, {rounds} rounds, bound {bound}; server: {res}")
    o["replica"] = rec


def profile_rec(o: dict, share: float) -> dict:
    """A chain record of one ``profile`` reply, for :func:`chain_layers`.

    Walls, work and depth of the coloring come from inside the server;
    the ordering's books and the conflict count from the client's
    recomputation, whose colors and rounds matched the reply's.
    """
    prof = o["reply"]["profile"]
    rec = dict(o["replica"], p=prof["workers"])
    rec["order"] = (prof["reorder_wall_seconds"] * share, *rec["order"][1:])
    rec["color"] = (prof["wall_seconds"] * share, prof["work"],
                    prof["depth"])
    walls = prof["phase_walls"]
    if rec["algorithm"] == "JP-ADG":
        rec["dag_s"] = walls.get("jp:dag", 0.0) * share
        rec["waves_s"] = walls.get("jp:color", 0.0) * share
    return rec


class LiveMirror:
    """The client's copy of its live graph's edge set and delta stream."""

    def __init__(self, name: str, g, d: int, seed: int, idx: int) -> None:
        self.name = name
        self.n = g.n
        u, v = g.undirected_edges()
        self.edges = list(zip(u.tolist(), v.tolist()))
        self.where = {e: i for i, e in enumerate(self.edges)}
        #: Exact degeneracy of the initial graph.
        self.d0 = d
        #: Edges added since the last ``verify``.
        self.added = 0
        self.rng = np.random.default_rng([seed, idx])

    def cycle(self) -> list[str]:
        """The mix in a seeded order; every non-delta op follows a delta."""
        deltas = [DELTAS[i] for i in self.rng.permutation(len(DELTAS))]
        others = [OTHERS[i] for i in self.rng.permutation(len(OTHERS))]
        after = set(self.rng.choice(len(deltas), len(others), replace=False)
                    .tolist())
        out = []
        for i, kind in enumerate(deltas):
            out.append(kind)
            if i in after:
                out.append(others.pop())
        return out

    def next_delta(self, kind: str) -> str:
        if kind == "del":
            i = int(self.rng.integers(len(self.edges)))
            e = self.edges[i]
            last = self.edges.pop()
            if i < len(self.edges):
                self.edges[i] = last
                self.where[last] = i
            del self.where[e]
        else:
            while True:
                a, b = (int(x) for x in self.rng.integers(self.n, size=2))
                e = (min(a, b), max(a, b))
                if a != b and e not in self.where:
                    break
            self.where[e] = len(self.edges)
            self.edges.append(e)
            self.added += 1
        return f"{kind}:{e[0]}-{e[1]}"


class Server:
    """``python -m repro serve --port 0`` in its own process."""

    def __init__(self, log, ledger=None) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if ledger is not None:
            cmd += ["--ledger", str(ledger)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(log, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = self._await_banner(log)

    def _await_banner(self, log) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(log, encoding="utf-8") as fh:
                for line in fh:
                    if "listening on" in line:
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.proc.kill()
        self.proc.wait()
        self.log.close()
        raise RuntimeError(f"server did not start; see {log}")

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a shutdown, then wait; kill only if it does not exit."""
        if self.proc.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout=STOP_TIMEOUT) as c:
                    c.request(op="shutdown")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class SvcDynamic(Workload):
    name = "svc-dynamic"
    bypassed = ("ingest.", "verify.", "runtime.parallel_rounds",
                "runtime.inline_rounds", "runtime.serial_p50_s",
                "runtime.speedup")

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        self.seed = seed
        (scale, ef), (ln, lm) = SIZES[size]
        self.dir = WORK / "inputs" / f"svc-dynamic-{size}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.clients = load_workers()
        #: The op that asks for a live graph's coloring: ``color`` in
        #: the measured loop, ``profile`` in the traced half.
        self.live_op = "color"
        self._static_input(kronecker(scale, ef, seed=seed))
        self.live = []
        for i in range(self.clients):
            gen = {"kind": "gnm", "n": ln, "m": lm, "seed": seed * 1000 + i}
            g = gnm_random(ln, lm, seed=gen["seed"])
            self.live.append((g, int(peel_degeneracy(g).degeneracy), gen))
            self.inputs[f"live{i}"] = g.content_digest
        self.server = None
        try:
            self.bring_up()
        except BaseException:
            self.close()
            raise
        self.config.update(backend="serial", workers=1,
                           degeneracy=self.d, bound=paper_bound(self.d),
                           n=self.static_n, m=self.static_m)

    def _static_input(self, g) -> None:
        """Write the shared graph, and color it here to check the server."""
        self.static_path = self.dir / "static.el"
        u, v = g.undirected_edges()
        np.savetxt(self.static_path, np.stack([u, v], axis=1), fmt="%d")
        self.inputs["static_edge_list"] = file_sha(self.static_path)
        g, rep = ingest_report(self.static_path, cache=False)
        self.config["parser_used"] = rep["parser_used"]
        self.inputs["static_graph"] = g.content_digest
        self.static_digest = g.content_digest
        self.static_n, self.static_m = g.n, g.m
        self.d = int(peel_degeneracy(g).degeneracy)
        self.reference = {}
        for algorithm in ALGORITHMS:
            colors = color(algorithm, g, eps=EPS).colors
            assert_valid_coloring(g, colors)
            used = int(colors.max())
            certify(used <= paper_bound(self.d),
                    f"{algorithm}: {used} colors > bound on the static graph")
            self.reference[algorithm] = (used, colors_digest(colors))

    def bring_up(self, ledger=None) -> None:
        """Start a server, load every graph, warm the static colors."""
        if self.server is not None:
            self.server.stop()
        self.server = Server(self.dir / "server.log", ledger)
        self.mirrors = [LiveMirror(f"live{i}", g, d, self.seed, i)
                        for i, (g, d, _) in enumerate(self.live)]
        self.static_blocks = {}
        with ServiceClient(port=self.server.port) as c:
            r = c.request(op="load", graph="static",
                          path=str(self.static_path))
            certify(r.get("ok") and r["digest"] == self.static_digest,
                    f"static load: {r}")
            for mirror, (g, _, gen) in zip(self.mirrors, self.live):
                r = c.request(op="load", graph=mirror.name, gen=gen)
                mirrored = edge_graph(mirror.n, mirror.edges)
                certify(r.get("ok") and r["digest"] == g.content_digest
                        and mirrored.content_digest == g.content_digest,
                        f"{mirror.name} load: {r}")
            for algorithm in ALGORITHMS:
                r = c.request(op="color", graph="static", algorithm=algorithm,
                              eps=EPS)
                used, digest = self.reference[algorithm]
                certify(r.get("ok") and r["result"]["colors"] == used
                        and r["result"]["colors_digest"] == digest,
                        f"static {algorithm} differs from the reference: {r}")
                self.static_blocks[algorithm] = r["result"]
        # The first delta on a live graph builds its incremental engine.
        for mirror in self.mirrors:
            with ServiceClient(port=self.server.port) as c:
                self.op(c, mirror, "add", 0, [])

    # -- the client loop -------------------------------------------------

    def op(self, client, mirror: LiveMirror, kind: str, k: int,
           out: list) -> None:
        """Send one request of the mix, check the reply, log it."""
        if kind in ("add", "del"):
            req = {"op": "apply_delta", "graph": mirror.name,
                   "delta": mirror.next_delta(kind)}
        elif kind == "live":
            req = {"op": self.live_op, "graph": mirror.name, "eps": EPS,
                   "algorithm": ALGORITHMS[k % 2]}
        elif kind == "static":
            req = {"op": "color", "graph": "static", "eps": EPS,
                   "algorithm": ALGORITHMS[k % 2]}
        else:
            req = {"op": "verify", "graph": mirror.name}
        t0 = time.perf_counter()
        r = client.request(**req)
        lat = time.perf_counter() - t0
        certify(r.get("ok") is True, f"{req} -> {r}")
        rec = {"lat": lat, "alg": req.get("algorithm"), "kind": kind,
               "graph": req["graph"], "seq": r.get("seq"), "reply": r,
               "added": mirror.added}
        if kind in ("add", "del"):
            certify(r["m"] == len(mirror.edges) and r["n"] == mirror.n,
                    f"{req} -> {r}")
            rec["cls"] = "delta"
        elif kind == "live":
            certify(r["result"]["m"] == len(mirror.edges), f"{req} -> {r}")
            rec["cls"] = "color_hit" if r["cached"] else "color_miss"
            rec["edges"] = list(mirror.edges)
        elif kind == "static":
            certify(r["result"] == self.static_blocks[req["algorithm"]],
                    f"{req} -> {r}")
            rec["cls"] = "color_hit" if r["cached"] else "color_miss"
        else:
            rec["cls"] = "verify"
            rec["edges"] = list(mirror.edges)
            mirror.added = 0
        out.append(rec)

    def final_verify(self, client, mirror: LiveMirror) -> None:
        r = client.request(op="verify", graph=mirror.name)
        check_logged({"kind": "verify", "reply": r, "edges": mirror.edges},
                     mirror.n, mirror.d0)

    def client_loop(self, i: int, deadline: float, out: list,
                    spans: Spans | None) -> None:
        mirror = self.mirrors[i]
        counts = {"live": 0, "static": 0}
        schedule: list[str] = []
        with ServiceClient(port=self.server.port) as c:
            for step in itertools.count():
                if not schedule:
                    schedule = mirror.cycle()
                kind = schedule.pop(0)
                k = counts.get(kind, 0)
                counts[kind] = k + 1
                if spans is None:
                    self.attempt(self.op, c, mirror, kind, k, out)
                else:
                    with spans.span(f"service.{kind}", (i, step)):
                        self.attempt(self.op, c, mirror, kind, k, out)
                if time.perf_counter() >= deadline:
                    break

    def loop(self, seconds: float, spans: Spans | None = None) -> tuple:
        """Run every client until ``seconds`` pass; then certify the log."""
        outs = [[] for _ in self.mirrors]
        with Stopwatch() as clock:
            deadline = time.perf_counter() + seconds
            threads = [threading.Thread(target=self.client_loop,
                                        args=(i, deadline, outs[i], spans))
                       for i in range(len(self.mirrors))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        ops = []
        for mirror, out in zip(self.mirrors, outs):
            d = mirror.d0
            for o in out:
                # Steal stretches every request alike; take it out of each.
                o["lat"] *= clock.share
                known = self.check(check_logged, o, mirror.n, d)
                d = d if known is None else known
            ops += out
        with ServiceClient(port=self.server.port) as c:
            for mirror in self.mirrors:
                self.attempt(self.final_verify, c, mirror)
            stats = c.request(op="stats")
        return ops, clock, stats

    def measure(self, seconds: float) -> dict:
        ops, clock, _ = self.loop(seconds)
        return self.end_to_end(ops, clock)

    def end_to_end(self, ops: list, clock) -> dict:
        lats = [o["lat"] for o in ops]
        self.config["samples"] = len(lats)
        self.config["tail"] = tail(lats)[1]
        self.config["steal_share"] = steal_share([clock])
        miss = {a: [o["lat"] for o in ops
                    if o["kind"] == "live" and o["alg"] == a]
                for a in ALGORITHMS}
        jp, dec = (self.reference[a][0] for a in ALGORITHMS)
        return {
            "setup_s": None,  # filled in by run.py
            "solve_p50_s": median(lats),
            "jp_adg_p50_s": median(miss["JP-ADG"]),
            "dec_itr_p50_s": median(miss["DEC-ADG-ITR"]),
            "colors": max(jp, dec),
            "jp_adg_colors": jp,
            "dec_itr_colors": dec,
            "svc_ops_per_s": len(ops) / clock.busy,
            "svc_p50_ms": median(lats) * 1e3,
            "svc_p99_ms": tail(lats)[0] * 1e3,
            "peak_rss_mb": self.server.rss_mb(),
            "ok_ratio": (self.attempted - self.failed) / max(self.attempted, 1),
        }

    def measure_traced(self, seconds: float, spans: Spans) -> tuple:
        """Half untraced; then a server with ``--ledger``, traced clients.

        In the traced half the live-graph colorings go as ``profile``,
        which runs the engine as a cache miss does and returns its
        walls, work and depth from inside the server.
        """
        plain, _, plain_stats = self.loop(seconds / 2)
        ledger = self.dir / "ledger.jsonl"
        ledger.unlink(missing_ok=True)
        self.bring_up(ledger)
        self.live_op = "profile"
        try:
            ops, clock, _ = self.loop(seconds / 2, spans)
        finally:
            self.live_op = "color"
        self.server.stop()  # flushes the ledger
        self.server = None
        rows = [json.loads(line) for line in
                ledger.read_text(encoding="utf-8").splitlines() if line]
        handle = {(r["row"].get("graph"), r["row"].get("seq")):
                  r["row"]["wall_s"] for r in rows if r.get("kind") == "service"}
        timed = [o for o in ops if (o["graph"], o["seq"]) in handle]
        server = [handle[(o["graph"], o["seq"])] * clock.share for o in timed]
        deltas = [o["reply"] for o in ops if o["cls"] == "delta"]
        recs = [profile_rec(o, clock.share) for o in ops if "replica" in o]
        cache = plain_stats["cache"]
        untraced_p50 = median([o["lat"] for o in plain])
        by_cls = {c: [o["lat"] * 1e3 for o in ops if o["cls"] == c]
                  for c in ("delta", "color_hit", "color_miss", "verify")}
        layers = chain_layers(recs)
        layers.update({
            "runtime.workers": recs[-1]["p"] if recs else 1,
            "runtime.nproc": self.config["nproc"],
            "repair.delta_p50_ms": median(
                [s * 1e3 for o, s in zip(timed, server)
                 if o["cls"] == "delta"]),
            "repair.recolored": sum(r["repaired"] for r in deltas),
            "repair.rounds": sum(r["rounds"] for r in deltas),
            "repair.full_recomputes": sum(bool(r["full_recompute"])
                                          for r in deltas),
            "svc.server_p50_ms": median(server) * 1e3,
            "svc.queue_wire_p50_ms": median(
                [(o["lat"] - s) * 1e3 for o, s in zip(timed, server)]),
            # From the untraced half: ``profile`` bypasses the cache.
            "svc.cache_hit_ratio": cache["hits"]
            / max(cache["hits"] + cache["misses"], 1),
            "svc.degraded": sum(bool(o["reply"].get("degraded")) for o in ops),
            "unattributed_frac": median(
                [1 - s / o["lat"] for o, s in zip(timed, server)]),
            "trace_overhead_frac": (median([o["lat"] for o in ops])
                                    - untraced_p50) / untraced_p50,
        })
        for rung in ("cheap", "exact", "peel"):
            layers[f"repair.certified_{rung}"] = sum(
                r["certified"] == rung for r in deltas)
        for c, lats in by_cls.items():
            layers[f"svc.{c}_p50_ms"] = median(lats)
        table = [(f"{name} (server)", *rest)
                 for name, *rest in chain_rows(recs)]
        table += [("service (client p50)", median(
                      [o["lat"] for o in ops]), None, None, None),
                  ("service (server p50)", median(server), None, None, None),
                  ("repair (server p50)", layers["repair.delta_p50_ms"] / 1e3,
                   None, None, None)]
        fracs = {k: layers[k] for k in ("unattributed_frac",
                                        "trace_overhead_frac",
                                        "svc.cache_hit_ratio")}
        return layers, layer_table(f"traced run: {self.name}", table, fracs)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
