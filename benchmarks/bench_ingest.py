"""Benchmark: streaming ingestion vs the legacy line-loop reader.

:mod:`repro.graphs.ingest` reads an edge list in blocks of whole lines
(a compiled C tokenizer, the per-line Python loop as its fallback),
builds the CSR in memory with compiled count/scatter/sort/symmetrize
passes, and keeps a digest-keyed binary cache.  This benchmark
generates a >= 1M-edge Kronecker edge list and measures four things,
written to ``BENCH_ingest.json``:

- ``parse_speedup`` — the seed reader's parse+remap stage (Python line
  loop, ``int()`` per token, dict-free but O(m) object remap) against
  the ingest parse phase on the same file.  Acceptance: >= 20x.
- ``warm_speedup`` — a cache hit against the cold parse.  The warm
  path memory-maps the entry's two ``.npy`` arrays, so this is
  page-table work, not I/O.  Acceptance: >= 50x.
- ``rss_ratio`` — peak RSS growth of a cold ``python -m repro ingest``
  subprocess over the final CSR's bytes (resource-sampler numbers from
  the CLI's own report).  Acceptance: < 2x.  ``rss_ratio_both_ways`` is
  the same measurement on the same graph written with every edge listed
  both ways, grouped by source, as many SNAP exports are: twice the
  lines for the same CSR, the harder case for the bar.
  ``rss_ratio_sparse_both_ways`` measures a road-network-shaped file
  listed both ways (millions of vertices at average degree ~2.8, the
  shape of SNAP's roadNet-CA), where per-vertex state weighs most
  against the CSR.
- digest identity between the ingested CSR and the legacy reader's
  (and between the two files' CSRs, and between the sparse file's and
  the generator's).

Runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_ingest.py [OUT.json]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.graphs.generators import kronecker
from repro.graphs.ingest import ingest_report

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_ingest.json")
DEFAULT_LEDGER = os.path.join(os.path.dirname(__file__), "..",
                              "results", "ledger.jsonl")

#: Acceptance bars (CI ingest-smoke).
MIN_PARSE_SPEEDUP = 20.0
MIN_WARM_SPEEDUP = 50.0
MAX_RSS_RATIO = 2.0

#: >= 1M edges after simplification.  Orkut-class density (average
#: degree ~70) keeps the per-chunk id working set realistic for a
#: social-network download while staying comfortably over the 1M-edge
#: floor on a single-digit-second legacy baseline.
GRAPH = dict(scale=15, edge_factor=46, seed=42)

#: roadNet-CA's shape (1.97M vertices, 2.77M edges, listed both ways):
#: the sparse end of the corpus, n in the millions.  m edges with
#: uniformly random endpoints (self-loops and repeats merged).
SPARSE_GRAPH = dict(n=2_000_000, m=2_800_000, seed=7)


def _ledger():
    """Flight-recorder sink: ``$REPRO_LEDGER`` wins (incl. ``off``);
    otherwise the repo's ``results/ledger.jsonl``."""
    from repro.obs.ledger import resolve_ledger

    if "REPRO_LEDGER" in os.environ:
        return resolve_ledger(None)
    return resolve_ledger(DEFAULT_LEDGER)


def _write_lines(path: str, header: str, u, v, relabel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        block = 1 << 18
        for lo in range(0, u.size, block):
            a = relabel[u[lo:lo + block]].astype("U20")
            b = relabel[v[lo:lo + block]].astype("U20")
            lines = np.char.add(np.char.add(a, " "), b)
            fh.write("\n".join(lines.tolist()))
            fh.write("\n")


def make_edge_files(workdir: str) -> tuple[str, str, int]:
    """Write the benchmark edge lists; returns (path, both-ways path,
    edges).

    The first file lists each edge once; the second lists every edge
    both ways, grouped by source row (the CSR's arcs in order).
    Vertex ids are relabeled into a non-contiguous 7-digit space the
    way real SNAP exports look (holes between ids, multi-digit
    tokens — think web-Google's 916k max id over 875k vertices).
    Compact 0..n-1 ids would flatter the legacy reader — short
    tokens and CPython's small-int cache make its per-line loop
    atypically cheap — and would leave ingest's id-compaction pass
    untested.
    """
    g = kronecker(**GRAPH)
    relabel = np.arange(g.n, dtype=np.int64) * 6 + 1_000_003
    path = os.path.join(workdir, "bench_ingest.el")
    _write_lines(path, f"# bench_ingest: n={g.n} m={g.m}\n",
                 *g.undirected_edges(), relabel)
    both = os.path.join(workdir, "bench_ingest_both_ways.el")
    _write_lines(both, f"# bench_ingest, both ways: n={g.n} m={g.m}\n",
                 *g.edge_array(), relabel)
    return path, both, g.m


def make_sparse_file(workdir: str) -> tuple[str, str]:
    """Write :data:`SPARSE_GRAPH` with every edge listed both ways,
    grouped by source, in the same sparse id space; returns (path,
    the digest its ingest must have).

    The legacy reader would take minutes here, so the expected CSR is
    built from the generator's edges directly: ingest keeps the
    vertices that appear (isolated ones have no line) and numbers them
    in id order, which the monotone relabeling preserves.
    """
    from repro.graphs.builders import from_edges

    n, m = SPARSE_GRAPH["n"], SPARSE_GRAPH["m"]
    rng = np.random.default_rng(SPARSE_GRAPH["seed"])
    g = from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n=n)
    relabel = np.arange(g.n, dtype=np.int64) * 6 + 1_000_003
    path = os.path.join(workdir, "bench_ingest_sparse_both_ways.el")
    _write_lines(path, f"# bench_ingest, sparse, both ways: n={g.n} "
                 f"m={g.m}\n", *g.edge_array(), relabel)
    present = g.degrees > 0
    new_id = np.cumsum(present) - 1
    u, v = g.undirected_edges()
    ref = from_edges(new_id[u], new_id[v], n=int(present.sum()))
    return path, ref.content_digest


def legacy_parse_stage(path: str, comments: str = "#"):
    """The seed reader's tokenize+remap stage, verbatim.

    This is ``read_edge_list`` as of the growth seed — a Python loop
    over lines with ``int()`` per token, then an O(m) Python-object
    remap pass — stopping where ``from_edges`` would take over, which
    is the stage ``ingest``'s scan+parse phases replace.
    """
    us: list[int] = []
    vs: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    ids = np.unique(np.concatenate([u, v])) if u.size \
        else np.empty(0, np.int64)
    remap = {int(x): i for i, x in enumerate(ids)}
    u = np.asarray([remap[int(x)] for x in u], dtype=np.int64)
    v = np.asarray([remap[int(x)] for x in v], dtype=np.int64)
    return u, v, ids.size


def measure_rss_subprocess(path: str, cache_dir: str) -> dict:
    """Cold-ingest in a fresh interpreter; return its CLI JSON report.

    A subprocess gives an honest peak: nothing from this process's
    heap (the generated graph, the legacy arrays) is on its books.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["REPRO_LEDGER"] = "off"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "ingest", "--input", path,
         "--cache-dir", cache_dir, "--force", "--json"],
        capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"ingest subprocess failed: {proc.stderr}")
    return json.loads(proc.stdout)


def run(workdir: str) -> dict:
    path, both_path, m_written = make_edge_files(workdir)
    cache_dir = os.path.join(workdir, "ingest-cache")

    # Legacy baseline: the file is comfortably > 1M edges, one pass is
    # seconds of pure-Python work; a single measurement is stable.
    t0 = time.perf_counter()
    lu, lv, ln = legacy_parse_stage(path)
    legacy_wall = time.perf_counter() - t0

    # Cold ingest (parse stage = the parse phase), best of three —
    # sub-100ms stages see real scheduler/frequency jitter on small
    # runners, where the seconds-long legacy pass does not.
    cold = None
    parse_wall = float("inf")
    for _ in range(3):
        g, rep = ingest_report(path, cache_dir=cache_dir, force=True)
        pw = rep["phase_walls"]
        stage = pw["ingest.parse"]
        if stage < parse_wall:
            parse_wall, cold = stage, rep
    cold_wall = cold["wall_s"]

    # Warm load, best of three (it is sub-millisecond: mmap'd .npy).
    warm_wall = float("inf")
    for _ in range(3):
        gw, warm = ingest_report(path, cache_dir=cache_dir)
        warm_wall = min(warm_wall, warm["wall_s"])
    assert warm["cached"] == "stat", warm["cached"]

    # Digest identity with the full legacy reader.
    from repro.graphs.builders import from_edges
    ref = from_edges(lu, lv, n=ln)
    digest_match = ref.content_digest == g.content_digest == \
        gw.content_digest

    # Peak RSS of a cold run, measured by the CLI's resource sampler
    # in a fresh interpreter.
    cli = measure_rss_subprocess(path, cache_dir)
    rss_ratio = (cli["rss_delta_kb"] * 1024) / cli["csr_bytes"]
    both = measure_rss_subprocess(both_path, cache_dir)
    rss_ratio_both = (both["rss_delta_kb"] * 1024) / both["csr_bytes"]
    digest_match = digest_match and both["digest"] == g.content_digest
    del g, gw, ref, lu, lv
    sparse_path, sparse_digest = make_sparse_file(workdir)
    sparse = measure_rss_subprocess(sparse_path, cache_dir)
    rss_ratio_sparse = (sparse["rss_delta_kb"] * 1024) / sparse["csr_bytes"]
    digest_match = digest_match and sparse["digest"] == sparse_digest

    edges_in = cold["edges_in"]
    return {
        "benchmark": "ingest",
        "cpu_count": os.cpu_count(),
        "graph": GRAPH,
        "file_bytes": cold["file_bytes"],
        "edge_lines": int(m_written),
        "n": cold["n"],
        "m": cold["m"],
        "digest": cold["digest"],
        "digest_matches_legacy": bool(digest_match),
        "parser_used": cold["parser_used"],
        "legacy_parse_wall_s": round(legacy_wall, 4),
        "ingest_parse_wall_s": round(parse_wall, 4),
        "parse_speedup": round(legacy_wall / parse_wall, 1),
        "parse_edges_per_s": round(edges_in / parse_wall),
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 5),
        "warm_speedup": round(cold_wall / warm_wall, 1),
        "rss_baseline_kb": cli["rss_baseline_kb"],
        "rss_peak_kb": cli["rss_peak_kb"],
        "rss_delta_kb": cli["rss_delta_kb"],
        "csr_bytes": cli["csr_bytes"],
        "rss_ratio": round(rss_ratio, 3),
        "both_ways_file_bytes": both["file_bytes"],
        "both_ways_rss_delta_kb": both["rss_delta_kb"],
        "rss_ratio_both_ways": round(rss_ratio_both, 3),
        "sparse_graph": SPARSE_GRAPH,
        "sparse_n": sparse["n"],
        "sparse_m": sparse["m"],
        "sparse_file_bytes": sparse["file_bytes"],
        "sparse_rss_delta_kb": sparse["rss_delta_kb"],
        "sparse_csr_bytes": sparse["csr_bytes"],
        "rss_ratio_sparse_both_ways": round(rss_ratio_sparse, 3),
        "acceptance": {
            "min_parse_speedup": MIN_PARSE_SPEEDUP,
            "min_warm_speedup": MIN_WARM_SPEEDUP,
            "max_rss_ratio": MAX_RSS_RATIO,
        },
    }


def check(report: dict) -> list[str]:
    """The acceptance failures in a report (empty = all bars cleared)."""
    problems = []
    if not report["digest_matches_legacy"]:
        problems.append("ingest CSR digest differs from legacy reader")
    if report["edge_lines"] < 1_000_000:
        problems.append(f"benchmark file has {report['edge_lines']} "
                        "edges, needs >= 1M")
    if report["parse_speedup"] < MIN_PARSE_SPEEDUP:
        problems.append(f"parse speedup {report['parse_speedup']}x "
                        f"< {MIN_PARSE_SPEEDUP}x")
    if report["warm_speedup"] < MIN_WARM_SPEEDUP:
        problems.append(f"warm-cache speedup {report['warm_speedup']}x "
                        f"< {MIN_WARM_SPEEDUP}x")
    for key in ("rss_ratio", "rss_ratio_both_ways",
                "rss_ratio_sparse_both_ways"):
        if report[key] >= MAX_RSS_RATIO:
            problems.append(f"peak-RSS ratio {key} {report[key]} "
                            f">= {MAX_RSS_RATIO}")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = argv[0] if argv else DEFAULT_OUT
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as wd:
        report = run(wd)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    book = _ledger()
    if book.enabled:
        from repro.obs.ledger import bench_record
        book.append(bench_record("ingest", report))
    print(f"{report['edge_lines']} edge lines, "
          f"{report['file_bytes'] / 1e6:.1f} MB, tier "
          f"{report['parser_used']}")
    print(f"parse: legacy {report['legacy_parse_wall_s']:.2f} s vs "
          f"ingest {report['ingest_parse_wall_s']:.3f} s "
          f"({report['parse_speedup']:.0f}x, "
          f"{report['parse_edges_per_s'] / 1e6:.1f} M edges/s)")
    print(f"cache: cold {report['cold_wall_s']:.2f} s vs warm "
          f"{report['warm_wall_s'] * 1e3:.2f} ms "
          f"({report['warm_speedup']:.0f}x)")
    print(f"rss:   +{report['rss_delta_kb'] / 1024:.0f} MB over "
          f"{report['csr_bytes'] / 1e6:.0f} MB CSR "
          f"(ratio {report['rss_ratio']:.2f}; listed both ways "
          f"{report['rss_ratio_both_ways']:.2f}; sparse, n="
          f"{report['sparse_n']}, both ways "
          f"{report['rss_ratio_sparse_both_ways']:.2f})")
    problems = check(report)
    for p in problems:
        print(f"ACCEPTANCE: {p}")
    print(f"wrote {out}")
    if book.enabled:
        print(f"appended 1 bench record to {book.path}")
    return 1 if problems else 0


def test_report_ingest(benchmark, tmp_path):
    """Pytest entry: the pipeline clears every acceptance bar."""
    from .conftest import run_once

    report = run_once(benchmark, lambda: run(str(tmp_path)))
    assert report["digest_matches_legacy"]
    assert check(report) == [], check(report)


if __name__ == "__main__":
    raise SystemExit(main())
