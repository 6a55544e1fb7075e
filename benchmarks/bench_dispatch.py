"""Micro-benchmark: adaptive round dispatch A/B.

``BENCH_backends.json`` shows the problem: on small graphs every round's
fixed dispatch cost dwarfs its kernel work, so the parallel backends run
multiples *slower* than serial.  This benchmark measures the fix — for
each (graph, worker count) cell it times threaded JP-ADG with adaptive
dispatch off
(every round dispatched, the PR-4 behavior) and on (rounds below the
break-even estimate inlined on the coordinator), and records the
estimator's decision counters.  Results go to ``BENCH_dispatch.json``.

The acceptance bars this file documents:

- adaptive-on is within a few percent of the *best* fixed backend on
  every cell (on a single-CPU host that is serial, and adaptive
  converges to it; on a multi-core host big-graph rounds dispatch and
  adaptive tracks the parallel wall instead);
- adaptive-on strictly beats the fixed threaded walls on the
  small-graph cells, because that is exactly the regime where dispatch
  overhead dominates.

``cpu_count`` rides along so a single-core report is read honestly.

Runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py [OUT.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.coloring.jp import jp_by_name
from repro.graphs.generators import gnm_random, kronecker
from repro.runtime import ExecutionContext

REPEATS = 5
#: Threaded (backend, workers) rows A/B-tested per graph, at every
#: multi-worker count up to the CPU count; serial rides along as the
#: yardstick.
ROWS = [("threaded", w) for w in range(2, max(2, os.cpu_count() or 1) + 1)]
DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_dispatch.json")
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
        # Tiny: every round is far below break-even.
        gnm_random(n=512, m=2048, seed=0),
        # Small heavy-tailed: the BENCH_backends regression case.
        kronecker(scale=11, edge_factor=8, seed=0),
        # Larger: early waves are big enough to amortize dispatch on a
        # multi-core host (they still inline on one core).
        kronecker(scale=13, edge_factor=8, seed=0),
        # m = 1.3M: the benchmark's color-mem graph.
        kronecker(scale=16, edge_factor=24, seed=0),
    ]


def _best_wall(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_cell(g, backend: str, workers: int, adaptive: str) -> dict:
    """Steady-state JP-ADG wall for one (graph, backend, mode) cell."""
    with ExecutionContext(backend=backend, workers=workers,
                          adaptive=adaptive) as ctx:
        def run():
            return jp_by_name(g, "ADG", seed=0, ctx=ctx)

        run()  # warm-up: pool and estimator seeding
        wall = _best_wall(run)
        digest = ctx.dispatch_record()
    row = {
        "graph": g.name, "n": g.n, "m": g.m,
        "backend": backend, "workers": workers,
        "adaptive": adaptive, "repeats": REPEATS,
        "wall_s": round(wall, 6),
    }
    if digest is not None:
        # Cumulative over warm-up + repeats; the split is what matters.
        row["decisions"] = digest["decisions"]
        row["dispatch_s"] = {k: round(v, 7)
                             for k, v in digest["dispatch_s"].items()}
    return row


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = argv[0] if argv else DEFAULT_OUT
    rows, summary = [], []
    for g in _graphs():
        serial = measure_cell(g, "serial", 1, "off")
        cells = [serial]
        per_graph = {"graph": g.name, "n": g.n,
                     "serial_wall_s": serial["wall_s"]}
        for backend, workers in ROWS:
            off = measure_cell(g, backend, workers, "off")
            on = measure_cell(g, backend, workers, "on")
            cells += [off, on]
            tag = f"{backend}{workers}"
            per_graph[f"{tag}_off_wall_s"] = off["wall_s"]
            per_graph[f"{tag}_on_wall_s"] = on["wall_s"]
            per_graph[f"{tag}_speedup"] = round(
                off["wall_s"] / on["wall_s"], 3)
        best_fixed = min(c["wall_s"] for c in cells if c["adaptive"] == "off")
        best_on = min(c["wall_s"] for c in cells if c["adaptive"] == "on")
        per_graph["best_fixed_wall_s"] = best_fixed
        per_graph["adaptive_vs_best_fixed"] = round(best_on / best_fixed, 3)
        rows += cells
        summary.append(per_graph)
    report = {
        "benchmark": "dispatch",
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "summary": summary,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    book = _ledger()
    if book.enabled:
        from repro.obs.ledger import bench_record
        for row in rows:
            book.append(bench_record("dispatch", row))
    for s in summary:
        print(f"{s['graph']} (n={s['n']}): serial {s['serial_wall_s']*1e3:.1f} ms"
              + "".join(f", {b}{w} {s[f'{b}{w}_off_wall_s']*1e3:.1f}"
                        f" -> {s[f'{b}{w}_on_wall_s']*1e3:.1f} ms"
                        f" ({s[f'{b}{w}_speedup']:.1f}x)"
                        for b, w in ROWS))
        print(f"  adaptive vs best fixed backend: "
              f"{s['adaptive_vs_best_fixed']:.3f}x")
    if os.cpu_count() == 1:
        print("note: single-CPU host; adaptive converges to the serial wall")
    print(f"wrote {out}")
    if book.enabled:
        print(f"appended {len(rows)} bench record(s) to {book.path}")
    return 0


def test_report_dispatch(benchmark):
    """Pytest entry: tiny-graph threaded A/B — adaptive must not lose."""
    from .conftest import run_once

    g = gnm_random(n=512, m=2048, seed=0)

    def bench():
        return {
            "off": measure_cell(g, "threaded", 2, "off"),
            "on": measure_cell(g, "threaded", 2, "on"),
        }

    row = run_once(benchmark, bench)
    assert row["off"]["wall_s"] > 0 and row["on"]["wall_s"] > 0
    # Decisions were actually made in the "on" cell.
    decisions = row["on"]["decisions"]
    assert decisions["inline"] + decisions["parallel"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
