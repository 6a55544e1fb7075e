"""Micro-benchmark: the sharding layer's footprint and repair cost.

The sharding layer's promise is memory isolation with bounded repair:
one engine per shard, each engine's working set bounded by its
*shard*, plus a boundary-repair pass whose cost scales with the plan's
cut — never the whole graph.  This benchmark measures that promise per
graph:

- the unsharded DEC-ADG / DEC-ADG-ITR wall and working-set bytes;
- the sharded wall (serial, and threaded at every multi-worker count
  up to the CPU count — the threaded pool runs the global ordering and
  the repair), the per-shard rows (wall, mapped bytes), and the repair
  round / recolor counts against the plan's cut size.

The acceptance bar this file documents: the largest shard's mapped
working set stays under **half** the unsharded footprint with four
shards on the skewed Kronecker family (``max_bytes_ratio < 0.5``).

Results go to ``BENCH_shards.json``.  Runnable standalone (no
pytest)::

    PYTHONPATH=src python benchmarks/bench_shards.py [OUT.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from repro.coloring.dec_adg import dec_adg
from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.graphs.generators import gnm_random, kronecker
from repro.runtime import ExecutionContext

REPEATS = 3
N_SHARDS = 4
#: Threaded worker counts the sharded path is also timed at.
THREADED_WORKERS = list(range(2, max(2, os.cpu_count() or 1) + 1))
ENGINES = {"DEC-ADG": (dec_adg, 6.0), "DEC-ADG-ITR": (dec_adg_itr, 0.01)}
DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_shards.json")
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
        gnm_random(n=4096, m=32768, seed=0),
        # The skewed family the memory acceptance bar is stated on.
        kronecker(scale=11, edge_factor=8, seed=0),
        kronecker(scale=13, edge_factor=8, seed=0),
        # m = 1.3M: the benchmark's color-mem graph.
        kronecker(scale=16, edge_factor=24, seed=0),
    ]


def _unsharded_bytes(g) -> int:
    """The plain engine's mapped working set: CSR plus the per-vertex
    id/level/priority/color arrays (the ShardSpec.nbytes yardstick)."""
    return int(g.indptr.nbytes + g.indices.nbytes
               + 4 * g.n * np.dtype(np.int64).itemsize)


def _best_wall(fn) -> tuple[float, object]:
    best, res = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        if wall < best:
            best, res = wall, out
    return best, res


def measure_cell(g, algorithm: str, backend: str, workers: int,
                 shards: int) -> dict:
    """One (graph, engine, backend, shards) cell."""
    fn, eps = ENGINES[algorithm]
    with ExecutionContext(backend=backend, workers=workers) as ctx:
        wall, res = _best_wall(
            lambda: fn(g, eps=eps, seed=0, ctx=ctx, shards=shards))
    row = {
        "graph": g.name, "n": g.n, "m": g.m,
        "algorithm": algorithm, "backend": backend, "workers": workers,
        "shards": shards, "repeats": REPEATS,
        "wall_s": round(wall, 6), "colors": res.num_colors,
        "work": res.cost.work,
    }
    if res.shards is not None:
        d = res.shards
        row["cut_edges"] = d["cut_edges"]
        row["repair_rounds"] = d["repair_rounds"]
        row["repair_recolored"] = d["repair_recolored"]
        row["max_shard_bytes"] = d["max_bytes"]
        row["max_bytes_ratio"] = round(d["max_bytes"]
                                       / _unsharded_bytes(g), 4)
        row["per_shard"] = d["per_shard"]
    else:
        row["unsharded_bytes"] = _unsharded_bytes(g)
    return row


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = argv[0] if argv else DEFAULT_OUT
    rows, summary = [], []
    for g in _graphs():
        for algorithm in sorted(ENGINES):
            plain = measure_cell(g, algorithm, "serial", 1, 0)
            inline = measure_cell(g, algorithm, "serial", 1, N_SHARDS)
            threaded = [measure_cell(g, algorithm, "threaded", w, N_SHARDS)
                        for w in THREADED_WORKERS]
            rows += [plain, inline, *threaded]
            summary.append({
                "graph": g.name, "n": g.n, "algorithm": algorithm,
                "plain_wall_s": plain["wall_s"],
                "inline_wall_s": inline["wall_s"],
                **{f"threaded{r['workers']}_wall_s": r["wall_s"]
                   for r in threaded},
                "cut_edges": inline["cut_edges"],
                "repair_rounds": inline["repair_rounds"],
                "repair_recolored": inline["repair_recolored"],
                "max_bytes_ratio": inline["max_bytes_ratio"],
            })
    report = {
        "benchmark": "shards",
        "cpu_count": os.cpu_count(),
        "n_shards": N_SHARDS,
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
            book.append(bench_record("shards", row))
    for s in summary:
        print(f"{s['graph']} (n={s['n']}) {s['algorithm']}: "
              f"plain {s['plain_wall_s']*1e3:.1f} ms, "
              f"sharded serial {s['inline_wall_s']*1e3:.1f} ms"
              + "".join(f", threaded{w} "
                        f"{s[f'threaded{w}_wall_s']*1e3:.1f} ms"
                        for w in THREADED_WORKERS))
        print(f"  cut={s['cut_edges']}, repair {s['repair_rounds']} rounds / "
              f"{s['repair_recolored']} recolors, "
              f"max shard bytes = {s['max_bytes_ratio']:.3f}x unsharded")
    bar = max(s["max_bytes_ratio"] for s in summary)
    print(f"acceptance: max per-shard bytes ratio {bar:.3f} (< 0.5 required)")
    print(f"wrote {out}")
    if book.enabled:
        print(f"appended {len(rows)} bench record(s) to {book.path}")
    return 0


def test_report_shards(benchmark):
    """Pytest entry: the memory-isolation bar on the Kronecker family."""
    from .conftest import run_once

    g = kronecker(scale=11, edge_factor=8, seed=0)

    def bench():
        return {
            "plain": measure_cell(g, "DEC-ADG", "serial", 1, 0),
            "sharded": measure_cell(g, "DEC-ADG", "serial", 1, N_SHARDS),
        }

    row = run_once(benchmark, bench)
    sharded = row["sharded"]
    assert sharded["max_bytes_ratio"] < 0.5
    assert sharded["repair_rounds"] <= g.n
    assert sharded["colors"] >= 1


if __name__ == "__main__":
    raise SystemExit(main())
