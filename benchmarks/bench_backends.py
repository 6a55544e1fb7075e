"""Micro-benchmark: backend walls and chunk balance.

Times JP-ADG on serial and on the threaded backend with every worker
count from 1 to the CPU count, and records the traced chunk-imbalance
digest with uniform vs weighted chunking, on deliberately different
inputs: skewed Kronecker graphs (heavy-tailed degrees, where uniform
chunks go lopsided; Kronecker(16,24) is big enough that early JP
waves carry real work) and a uniform G(n, m) graph (where weighting is
a no-op).  Results go to ``BENCH_backends.json`` so CI can track the
backend tax over time.

The walls are steady-state: each backend row reuses one
:class:`ExecutionContext` across repeats, so the thread pool is paid
for once (by a warm-up run) and the recorded number is the per-run
marginal cost.  ``cpu_count`` rides along in the report — on a
single-core box the threaded backend cannot beat serial and the
numbers say so honestly.

Backend rows run with ``adaptive='off'``: this file measures the *raw*
backend tax (the thing adaptive dispatch is built to avoid — see
``bench_dispatch.py`` for the adaptive A/B).  Each parallel row also
records ``dispatch_overhead_s``, the mean per-round dispatch + combine
overhead (round wall minus its slowest chunk) from a traced run — the
measured quantity the adaptive estimator's ``dispatch_s`` models.

Runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_backends.py [OUT.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.coloring.jp import jp_by_name
from repro.graphs.generators import gnm_random, kronecker
from repro.obs import Tracer
from repro.runtime import ExecutionContext

REPEATS = 3
#: (backend, workers) rows measured for every graph: serial, then the
#: threaded backend at every worker count up to the CPU count.
ROWS = [("serial", 1)] + [("threaded", w)
                          for w in range(1, (os.cpu_count() or 1) + 1)]
DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_backends.json")
DEFAULT_LEDGER = os.path.join(os.path.dirname(__file__), "..",
                              "results", "ledger.jsonl")


def _ledger():
    """Flight-recorder sink: ``$REPRO_LEDGER`` wins (incl. ``off``);
    otherwise the repo's ``results/ledger.jsonl``."""
    from repro.obs.ledger import resolve_ledger

    if "REPRO_LEDGER" in os.environ:
        return resolve_ledger(None)
    return resolve_ledger(DEFAULT_LEDGER)


def _graphs() -> list:
    return [
        # Heavy-tailed R-MAT degrees: uniform chunks are lopsided here.
        kronecker(scale=11, edge_factor=8, seed=0),
        # Near-constant degrees: weighting moves (almost) nothing.
        gnm_random(n=2048, m=16384, seed=0),
        # m = 1.3M: the benchmark's color-mem graph.
        kronecker(scale=16, edge_factor=24, seed=0),
    ]


def _best_wall(fn) -> float:
    """Best-of-N wall seconds (minimum is the least noisy estimator)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def round_dispatch_overhead(g, backend: str, workers: int,
                            adaptive: str = "off") -> float | None:
    """Mean per-round dispatch + combine overhead from one traced run.

    For every multi-chunk round, the round wall minus its slowest
    chunk's wall is time the pool added on top of perfectly-overlapped
    kernel work (submission, marshalling, combine); ``None`` on serial
    or when no round dispatched.
    """
    if backend == "serial":
        return None
    tracer = Tracer()
    with ExecutionContext(backend=backend, workers=workers,
                          adaptive=adaptive, trace=tracer) as ctx:
        jp_by_name(g, "ADG", seed=0, ctx=ctx)
    overheads = [e.dur - e.args["max_chunk_s"]
                 for e in tracer.spans(cat="round")
                 if e.args.get("chunks", 0) > 1]
    if not overheads:
        return None
    return round(sum(overheads) / len(overheads), 6)


def measure_wall(g, backend: str, workers: int) -> dict:
    """Steady-state JP-ADG wall on one backend (pool paid by warm-up)."""
    with ExecutionContext(backend=backend, workers=workers,
                          adaptive="off") as ctx:
        def run():
            return jp_by_name(g, "ADG", seed=0, ctx=ctx)

        run()  # warm-up: spins up the pool before timing
        wall = _best_wall(run)
    return {
        "graph": g.name, "n": g.n, "m": g.m,
        "backend": backend, "workers": workers,
        "repeats": REPEATS,
        "wall_s": round(wall, 6),
        "dispatch_overhead_s": round_dispatch_overhead(g, backend, workers),
    }


def measure_imbalance(g, backend: str = "threaded", workers: int = 4) -> dict:
    """Traced chunk-imbalance digest, uniform vs weighted chunking.

    The digest's per-round ratio is max/mean chunk wall (1.0 = perfectly
    balanced); colors are bit-identical either way, only the boundaries
    move, so the two runs differ in balance alone.
    """
    digests = {}
    for weighted in (False, True):
        with ExecutionContext(backend=backend, workers=workers,
                              weighted_chunks=weighted, adaptive="off",
                              trace=Tracer()) as ctx:
            jp_by_name(g, "ADG", seed=0, ctx=ctx)
            digests[weighted] = ctx.trace_summary()["imbalance"]
    return {
        "graph": g.name, "n": g.n, "m": g.m,
        "backend": backend, "workers": workers,
        "imbalance_uniform": digests[False],
        "imbalance_weighted": digests[True],
    }


def test_report_backends(benchmark):
    """Pytest entry: one serial wall row plus both imbalance digests."""
    from .conftest import run_once

    g = gnm_random(n=1000, m=5000, seed=0)

    def bench():
        return {
            "wall": measure_wall(g, "serial", 1),
            "imbalance": measure_imbalance(g),
        }

    row = run_once(benchmark, bench)
    assert row["wall"]["wall_s"] > 0
    for key in ("imbalance_uniform", "imbalance_weighted"):
        digest = row["imbalance"][key]
        assert digest["max"] >= digest["mean"] >= 1.0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = argv[0] if argv else DEFAULT_OUT
    walls, balance = [], []
    for g in _graphs():
        walls += [measure_wall(g, b, w) for b, w in ROWS]
        balance.append(measure_imbalance(g))
    report = {
        "benchmark": "backends",
        "cpu_count": os.cpu_count(),
        "rows": walls,
        "imbalance": balance,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    book = _ledger()
    if book.enabled:
        from repro.obs.ledger import bench_record
        for row in walls + balance:
            book.append(bench_record("backends", row))
    for row in walls:
        over = row.get("dispatch_overhead_s")
        extra = f" ({over*1e6:.0f} us/round dispatch)" if over else ""
        print(f"{row['graph']}: {row['backend']}/{row['workers']} "
              f"{row['wall_s']*1e3:.1f} ms{extra}")
    for row in balance:
        print(f"{row['graph']}: imbalance uniform "
              f"{row['imbalance_uniform']['mean']:.3f} -> weighted "
              f"{row['imbalance_weighted']['mean']:.3f} "
              f"(mean over {row['imbalance_weighted']['rounds']} rounds)")
    if os.cpu_count() == 1:
        print("note: single-CPU host; the threaded backend cannot beat "
              "serial")
    print(f"wrote {out}")
    if book.enabled:
        print(f"appended {len(walls) + len(balance)} bench record(s) "
              f"to {book.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
