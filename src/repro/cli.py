"""Command-line interface: ``python -m repro <command>``.

Commands
--------
color    Color a graph file (or a generated graph) with any algorithm;
         ``--delta SPEC`` recolors incrementally through a delta
         sequence instead.
serve    Run the JSON-lines TCP coloring service (color / verify /
         profile / apply_delta requests, digest-keyed result cache).
order    Compute a vertex ordering and report its quality metrics.
stats    Structural statistics of a graph.
suite    Run the Fig.-1-style harness over a dataset suite.
ingest   Stream an edge-list file (optionally gzipped) into the CSR
         binary cache: parallel chunked parse, out-of-core build.
profile  Trace one run and print per-phase / per-round breakdowns.
obs      Flight recorder: run the fixed perf matrix / check the ledger
         head against a committed baseline (the regression gate).

Every subcommand accepts ``--trace FILE`` to export a run trace
(``.jsonl`` writes the structured event log, any other extension writes
Chrome trace JSON, open at https://ui.perfetto.dev) and ``--ledger
FILE`` to append each run's flight-recorder record to a persistent
JSONL ledger.

Graphs are read from SNAP edge lists, METIS files, or NPZ (by
extension), generated on the fly with ``--gen``, or streamed through
the high-throughput ingest pipeline with ``--input`` (every subcommand
accepts it; repeat loads hit the digest-keyed binary cache).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .analysis.tables import format_table
from .bench.harness import run_suite
from .coloring.registry import ALGORITHMS, color
from .coloring.verify import assert_valid_coloring
from .graphs import generators
from .graphs.csr import CSRGraph
from .graphs.io import load_npz, read_edge_list, read_metis
from .graphs.properties import degeneracy, stats
from .ordering.adg import approximation_quality
from .ordering.registry import ORDERINGS, get_ordering
from .runtime.context import check_workers

GENERATORS = {
    "kronecker": lambda a, seed: generators.kronecker(
        scale=int(a[0]), edge_factor=int(a[1]) if len(a) > 1 else 16,
        seed=seed),
    "gnm": lambda a, seed: generators.gnm_random(int(a[0]), int(a[1]),
                                                 seed=seed),
    "chunglu": lambda a, seed: generators.chung_lu(int(a[0]), int(a[1]),
                                                   seed=seed),
    "grid": lambda a, seed: generators.grid_2d(int(a[0]), int(a[1])),
    "ba": lambda a, seed: generators.barabasi_albert(int(a[0]), int(a[1]),
                                                     seed=seed),
}


def make_tracer(args: argparse.Namespace):
    """A path-bound Tracer for --trace FILE, else None (env-resolved)."""
    if getattr(args, "trace", None):
        from .obs import Tracer
        return Tracer(path=args.trace)
    return None


def flush_trace(tracer) -> None:
    if tracer is not None:
        path = tracer.flush()
        if path:
            print(f"trace written to {path}", file=sys.stderr)


def load_graph(args: argparse.Namespace) -> CSRGraph:
    """Resolve --input / --graph / --gen into a CSRGraph."""
    if getattr(args, "input", None):
        from .graphs.ingest import ingest

        return ingest(args.input, backend=args.backend,
                      workers=args.workers)
    if args.gen:
        name, *params = args.gen.split(":")
        if name not in GENERATORS:
            raise SystemExit(f"unknown generator {name!r}; "
                             f"options: {sorted(GENERATORS)}")
        return GENERATORS[name](params[0].split(",") if params else [],
                                args.seed)
    if not args.graph:
        raise SystemExit("provide --input FILE, --graph FILE or --gen SPEC")
    path = args.graph
    if path.endswith(".npz"):
        return load_npz(path)
    if path.endswith(".graph") or path.endswith(".metis"):
        return read_metis(path)
    return read_edge_list(path)


def cmd_color(args: argparse.Namespace) -> int:
    if getattr(args, "delta", None):
        return _color_with_deltas(args)
    g = load_graph(args)
    tracer = make_tracer(args)
    res = color(args.algorithm, g, backend=args.backend,
                workers=args.workers, trace=tracer, seed=args.seed,
                eps=args.eps)
    assert_valid_coloring(g, res.colors)
    summary = res.summary()
    summary["graph"] = g.name
    summary["degeneracy"] = degeneracy(g)
    if args.json:
        from .service.server import colors_digest

        summary["colors_digest"] = colors_digest(res.colors)
        summary["phase_walls"] = {k: round(v, 6)
                                  for k, v in res.phase_walls.items()}
        if res.resources is not None:
            summary["resources"] = res.resources
        print(json.dumps(summary))
    else:
        print(format_table([summary]))
    flush_trace(tracer)
    if args.output:
        import numpy as np
        np.savetxt(args.output, res.colors, fmt="%d")
        print(f"colors written to {args.output}", file=sys.stderr)
    return 0


def _color_with_deltas(args: argparse.Namespace) -> int:
    """``color --delta SPEC``: incremental recoloring through a delta
    sequence, one report row per delta plus a final verified summary."""
    from .coloring.incremental import INCREMENTAL_FAMILY, IncrementalColoring
    from .graphs.delta import parse_delta_spec

    if args.algorithm not in INCREMENTAL_FAMILY:
        raise SystemExit(f"--delta requires one of {INCREMENTAL_FAMILY}; "
                         f"got {args.algorithm!r}")
    g = load_graph(args)
    deltas = [parse_delta_spec(spec) for spec in args.delta]
    rows = []
    with IncrementalColoring(g, args.algorithm, eps=args.eps,
                             seed=args.seed, backend=args.backend,
                             workers=args.workers) as inc:
        for i, delta in enumerate(deltas):
            report = inc.apply_delta(delta)
            rows.append({"delta": i, "spec": args.delta[i], **report})
        final = inc.verify()
        assert_valid_coloring(inc.graph, inc.colors)
        summary = {"algorithm": args.algorithm, "eps": inc.eps,
                   "graph": g.name, "deltas": len(deltas), **final,
                   **inc.stats}
        from .obs.ledger import resolve_ledger, service_record
        book = resolve_ledger(None)  # env seam: --ledger -> $REPRO_LEDGER
        if book.enabled:
            book.append(service_record("cli_delta", {
                "graph": g.name, "digest": inc.graph.content_digest,
                "n": inc.graph.n, "m": inc.graph.m, **summary}))
        if args.output:
            import numpy as np
            np.savetxt(args.output, inc.colors, fmt="%d")
            print(f"colors written to {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps({"deltas": rows, "summary": summary}))
    else:
        print(format_table(rows))
        print(format_table([summary]))
    return 0 if final["valid"] and final["within_bound"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.net import run_service

    return run_service(host=args.host, port=args.port,
                       workers=args.svc_workers,
                       backend=args.backend,
                       ctx_workers=args.workers,
                       cache_size=args.cache_size)


def cmd_order(args: argparse.Namespace) -> int:
    from .runtime import ExecutionContext

    g = load_graph(args)
    kwargs: dict = {"seed": args.seed}
    if args.ordering in ("ADG", "ADG-M") and args.eps is not None:
        kwargs["eps"] = args.eps
    tracer = make_tracer(args)
    with ExecutionContext(backend=args.backend, workers=args.workers,
                          trace=tracer) as ctx:
        o = get_ordering(args.ordering, g, ctx=ctx, **kwargs)
    d = degeneracy(g)
    row = {
        "ordering": o.name, "graph": g.name, "n": g.n, "m": g.m,
        "degeneracy": d, "levels": o.num_levels,
        "work": o.cost.work, "depth": o.cost.depth,
        "approx_factor": (round(approximation_quality(g, o) / max(d, 1), 3)
                          if o.levels is not None else "n/a"),
    }
    print(json.dumps(row) if args.json else format_table([row]))
    flush_trace(tracer)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    tracer = make_tracer(args)
    g = load_graph(args)
    if tracer is not None:
        with tracer.span("stats"):
            s = stats(g)
    else:
        s = stats(g)
    row = {"graph": s.name, "n": s.n, "m": s.m, "max_degree": s.max_degree,
           "min_degree": s.min_degree,
           "avg_degree": round(s.avg_degree, 3),
           "degeneracy": s.degeneracy,
           "d_over_sqrt_m": round(s.degeneracy_to_sqrt_m, 4)}
    print(json.dumps(row) if args.json else format_table([row]))
    flush_trace(tracer)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every paper table/figure into --outdir (no pytest)."""
    import os

    from .analysis.tables import format_markdown
    from .bench.datasets import dataset, suite
    from .bench.epsilon import epsilon_sweep
    from .bench.memory import memory_pressure
    from .bench.report import (
        epsilon_report,
        fig1_quality_report,
        fig1_runtime_report,
        fig5_profile_report,
        memory_report,
        scaling_report,
        table3_report,
    )
    from .bench.scaling import strong_scaling, weak_scaling
    from .coloring.registry import FIGURE1_SET

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)

    def emit(name: str, title: str, body: str) -> None:
        path = os.path.join(outdir, f"{name}.md")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {title}\n\n{body}\n")
        print(f"wrote {path}", file=sys.stderr)

    print("running the Fig. 1 suite ...", file=sys.stderr)
    tracer = make_tracer(args)  # --trace captures the Fig. 1 suite runs
    result = run_suite(suite("small"), algorithms=FIGURE1_SET,
                       eps=args.eps, seed=args.seed,
                       trace=tracer if tracer is not None else False)
    flush_trace(tracer)
    emit("fig1_runtime_small", "Fig. 1 run-times (smaller graphs)",
         fig1_runtime_report(result))
    emit("fig1_quality_small", "Fig. 1 quality (smaller graphs)",
         fig1_quality_report(result))
    emit("table3_algorithms", "Table III measured",
         table3_report(result))
    emit("fig5_quality_profile", "Fig. 5 quality profile",
         fig5_profile_report(result))

    print("running Fig. 2 scaling ...", file=sys.stderr)
    strong = strong_scaling(dataset("h_bai"),
                            ["JP-ADG", "JP-R", "JP-LLF", "JP-SL", "ITR",
                             "DEC-ADG-ITR"], seed=args.seed, eps=args.eps)
    emit("fig2_strong_scaling", "Fig. 2 strong scaling",
         scaling_report(strong))
    weak = weak_scaling(["JP-ADG", "JP-R", "ITR"], scale=12,
                        seed=args.seed, eps=args.eps)
    emit("fig2_weak_scaling", "Fig. 2 weak scaling", scaling_report(weak))

    print("running Fig. 3 epsilon sweep ...", file=sys.stderr)
    eps_points = epsilon_sweep(dataset("h_bai"), seed=args.seed)
    eps_points += epsilon_sweep(dataset("v_usa"), seed=args.seed)
    emit("fig3_epsilon", "Fig. 3 epsilon sweep", epsilon_report(eps_points))

    print("running Fig. 4 memory pressure ...", file=sys.stderr)
    mem_points = memory_pressure(
        dataset("h_bai"),
        ["ITR", "ITR-ASL", "DEC-ADG-ITR", "JP-ADG", "JP-R", "JP-SL"],
        seed=args.seed, eps=args.eps)
    emit("fig4_memory", "Fig. 4 memory pressure", memory_report(mem_points))

    summary = [{"experiment": name} for name in
               ["fig1_runtime_small", "fig1_quality_small",
                "table3_algorithms", "fig5_quality_profile",
                "fig2_strong_scaling", "fig2_weak_scaling",
                "fig3_epsilon", "fig4_memory"]]
    emit("index", "Regenerated experiments", format_markdown(summary))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .bench.datasets import suite

    graphs = suite(args.suite)
    algorithms = args.algorithms.split(",") if args.algorithms else None
    tracer = make_tracer(args)
    result = run_suite(graphs, algorithms=algorithms, eps=args.eps,
                       seed=args.seed, backend=args.backend,
                       workers=args.workers,
                       trace=tracer if tracer is not None else False)
    rows = result.as_rows()
    if args.json:
        print(json.dumps(rows))
    else:
        cols = ["graph", "algorithm", "colors", "quality_bound", "work",
                "depth", "sim_time_32", "backend", "workers"]
        print(format_table(rows, columns=cols))
    flush_trace(tracer)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Trace one run and print its per-phase / per-round breakdown."""
    import os

    from .obs import (
        Tracer,
        phase_breakdown,
        resource_breakdown,
        round_breakdown,
    )

    g = load_graph(args)
    tracer = Tracer(path=args.trace or None)
    # A profile is explicitly about what the run costs, so resource
    # telemetry defaults on here (still overridable via the env).
    had_res = "REPRO_RESOURCES" in os.environ
    if not had_res:
        os.environ["REPRO_RESOURCES"] = "1"
    try:
        res = color(args.algorithm, g, backend=args.backend,
                    workers=args.workers, trace=tracer, seed=args.seed,
                    eps=args.eps)
    finally:
        if not had_res:
            os.environ.pop("REPRO_RESOURCES", None)
    assert_valid_coloring(g, res.colors)

    summary = res.summary()
    summary["graph"] = g.name
    phases = phase_breakdown(res, tracer)
    rounds = round_breakdown(tracer)
    resources = resource_breakdown(res)
    if args.json:
        print(json.dumps({"summary": summary, "phases": phases,
                          "rounds": rounds, "resources": resources}))
    else:
        print(format_table([summary]))
        print("\n== per-phase breakdown (exclusive wall) ==")
        print(format_table(phases))
        if rounds:
            print("\n== per-round metrics ==")
            print(format_table(rounds))
        if resources:
            print("\n== resources (coordinator peak RSS / CPU) ==")
            print(format_table(resources))
    flush_trace(tracer)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Stream an edge-list file into the CSR cache; print a load report."""
    from .graphs.ingest import ingest_report
    from .obs.resources import ResourceSampler, current_rss_kb
    from .runtime import ExecutionContext

    if not args.input:
        raise SystemExit("ingest needs --input FILE")
    tracer = make_tracer(args)
    base_kb = current_rss_kb()
    sampler = ResourceSampler(tracer=tracer).start()
    try:
        with ExecutionContext(backend=args.backend, workers=args.workers,
                              trace=tracer) as ctx:
            g, report = ingest_report(
                args.input, ctx=ctx, comments=args.comments,
                cache=not args.no_cache, cache_dir=args.cache_dir,
                force=args.force)
    finally:
        sampler.stop()
    res = sampler.digest()
    report["rss_baseline_kb"] = base_kb
    report["rss_peak_kb"] = res["peak_rss_kb"]
    report["rss_delta_kb"] = max(0, res["peak_rss_kb"] - base_kb)
    report["csr_bytes"] = int(g.indptr.nbytes + g.indices.nbytes)
    from .obs.ledger import resolve_ledger, service_record
    book = resolve_ledger(None)  # env seam: --ledger -> $REPRO_LEDGER
    if book.enabled:
        book.append(service_record("ingest", {
            k: report[k] for k in sorted(report) if k != "phase_walls"}))
    if args.json:
        print(json.dumps(report))
    else:
        cols = {"graph": g.name, "n": report["n"], "m": report["m"],
                "digest": report["digest"],
                "cached": report["cached"] or "no",
                "wall_s": round(report["wall_s"], 4),
                "mb_per_s": round(report["mb_per_s"], 1),
                "rss_delta_kb": report["rss_delta_kb"]}
        print(format_table([cols]))
    flush_trace(tracer)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Flight-recorder commands: run the perf matrix / gate the ledger."""
    from .obs.regress import check_command, run_matrix

    if args.obs_command == "matrix":
        n = run_matrix(args.ledger_path, repeats=args.repeats,
                       seed=args.seed)
        print(f"{n} run(s) appended to {args.ledger_path}")
        return 0
    only = [m.strip() for m in args.only.split(",")] if args.only else None
    return check_command(args.ledger_path, args.baseline, k=args.k,
                         only=only, update=args.update)


def _worker_count(text: str) -> int:
    """``--workers``/``--svc-workers`` value: an int >= 1 (argparse
    names the flag)."""
    try:
        return check_workers(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an int >= 1, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel graph coloring with guarantees "
                    "(Besta et al., SC 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="SNAP/METIS/NPZ graph file")
        p.add_argument("--gen", help="generator spec, e.g. kronecker:12,8 "
                                     "| gnm:1000,5000 | grid:30,30")
        p.add_argument("--input", metavar="FILE",
                       help="edge-list file (optionally .gz) loaded "
                            "through the streaming ingest pipeline "
                            "(chunked parse + digest-keyed binary "
                            "cache); takes precedence over --graph/--gen")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=None,
                       help="epsilon of the algorithms that take one "
                            "(default: each one's own)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--backend", metavar="{serial,threaded}",
                       default=None,
                       help="execution backend, recorded with the run "
                            "(default: $REPRO_BACKEND or serial); colors "
                            "are backend-independent")
        p.add_argument("--workers", type=_worker_count, default=None,
                       help="threaded-backend worker count, recorded "
                            "with the run (default: $REPRO_WORKERS or "
                            "CPU count)")
        p.add_argument("--trace", metavar="FILE",
                       help="export a run trace: .jsonl for the event "
                            "log, anything else for Chrome trace JSON "
                            "(open in Perfetto)")
        p.add_argument("--ledger", metavar="FILE",
                       help="append one flight-recorder record per run "
                            "to this JSONL ledger (same grammar as "
                            "$REPRO_LEDGER: a path, or 1/on for "
                            "results/ledger.jsonl); also enables "
                            "resource telemetry for the run")

    p_color = sub.add_parser("color", help="run a coloring algorithm")
    common(p_color)
    p_color.add_argument("--algorithm", default="JP-ADG",
                         choices=sorted(ALGORITHMS))
    p_color.add_argument("--output", help="write per-vertex colors here")
    p_color.add_argument("--delta", action="append", metavar="SPEC",
                         help="apply a graph delta and recolor "
                              "incrementally (repeatable; DEC-family "
                              "algorithms only); grammar: "
                              "'add:u-v,...;del:u-v;addv:N;delv:v,...'")
    p_color.set_defaults(fn=cmd_color)

    p_order = sub.add_parser("order", help="compute a vertex ordering")
    common(p_order)
    p_order.add_argument("--ordering", default="ADG",
                         choices=sorted(ORDERINGS))
    p_order.set_defaults(fn=cmd_order)

    p_stats = sub.add_parser("stats", help="graph statistics")
    common(p_stats)
    p_stats.set_defaults(fn=cmd_stats)

    p_suite = sub.add_parser("suite", help="run the harness over a suite")
    common(p_suite)
    p_suite.add_argument("--suite", default="small",
                         choices=["small", "large", "extra", "real",
                                  "all"])
    p_suite.add_argument("--algorithms",
                         help="comma-separated algorithm names")
    p_suite.set_defaults(fn=cmd_suite)

    p_profile = sub.add_parser(
        "profile", help="trace one run; print per-phase and per-round "
                        "breakdowns")
    common(p_profile)
    p_profile.add_argument("--algorithm", default="JP-ADG",
                           choices=sorted(ALGORITHMS))
    p_profile.set_defaults(fn=cmd_profile)

    p_ingest = sub.add_parser(
        "ingest", help="stream an edge-list file into the CSR binary "
                       "cache (block parse, in-memory CSR build)")
    common(p_ingest)
    p_ingest.add_argument("--comments", default="#",
                          help="comment-line prefix (default '#')")
    p_ingest.add_argument("--no-cache", action="store_true",
                          help="skip the digest-keyed binary cache")
    p_ingest.add_argument("--force", action="store_true",
                          help="re-parse even when a cache entry matches")
    p_ingest.add_argument("--cache-dir", dest="cache_dir",
                          help="cache directory (default: "
                               "$REPRO_INGEST_CACHE or "
                               "<file's dir>/.repro_ingest)")
    p_ingest.set_defaults(fn=cmd_ingest)

    p_serve = sub.add_parser(
        "serve", help="run the JSON-lines TCP coloring service")
    common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--svc-workers", dest="svc_workers",
                         type=_worker_count, default=2,
                         help="concurrent request workers (each engine "
                              "call runs under its own execution "
                              "context)")
    p_serve.add_argument("--cache-size", dest="cache_size", type=int,
                         default=128,
                         help="digest-keyed result cache capacity")
    p_serve.set_defaults(fn=cmd_serve)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate every paper table/figure")
    common(p_repro)
    p_repro.add_argument("--outdir", default="results",
                         help="directory for the regenerated tables")
    p_repro.set_defaults(fn=cmd_reproduce)

    from .obs.regress import DEFAULT_BASELINE_PATH, DEFAULT_LEDGER_PATH

    p_obs = sub.add_parser(
        "obs", help="flight recorder: perf matrix + regression gate")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_check = obs_sub.add_parser(
        "check", help="compare the ledger head against a baseline; "
                      "exit 1 on regression")
    p_check.add_argument("--ledger", dest="ledger_path",
                         default=DEFAULT_LEDGER_PATH, metavar="FILE",
                         help="ledger to read (default: "
                              f"{DEFAULT_LEDGER_PATH})")
    p_check.add_argument("--baseline", default=DEFAULT_BASELINE_PATH,
                         metavar="FILE",
                         help="baseline to compare against (default: "
                              f"{DEFAULT_BASELINE_PATH})")
    p_check.add_argument("--k", type=int, default=None,
                         help="aggregate the last k records per cell "
                              "(default: the baseline's k)")
    p_check.add_argument("--only", metavar="M1,M2",
                         help="restrict the gate to these metrics, "
                              "e.g. colors,valid,work (machine-"
                              "independent quality gate)")
    p_check.add_argument("--update", action="store_true",
                         help="write a fresh baseline from the ledger "
                              "head instead of checking")
    p_check.set_defaults(fn=cmd_obs)
    p_matrix = obs_sub.add_parser(
        "matrix", help="color the fixed perf matrix, appending one "
                       "ledger record per run")
    p_matrix.add_argument("--ledger", dest="ledger_path",
                          default=DEFAULT_LEDGER_PATH, metavar="FILE")
    p_matrix.add_argument("--repeats", type=int, default=3)
    p_matrix.add_argument("--seed", type=int, default=0)
    p_matrix.set_defaults(fn=cmd_obs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        # Fail before any graph is loaded; names a removed backend's
        # replacement.
        from .runtime.context import check_backend
        check_backend(args.backend, "--backend")
    # The runtime reads $REPRO_LEDGER wherever a context is built
    # (including child contexts and the bench harness), so the env var
    # is the one seam that covers every subcommand; restored afterwards
    # so in-process callers (tests) are not polluted.
    import os
    saved: dict[str, str | None] = {}
    if getattr(args, "ledger", None):
        saved["REPRO_LEDGER"] = os.environ.get("REPRO_LEDGER")
        os.environ["REPRO_LEDGER"] = str(args.ledger)
    # --trace binds an explicit Tracer as the run's single sink; an
    # ambient $REPRO_TRACE would make every *other* context built along
    # the way bind its own tracer to that path and clobber the flushes,
    # so it is cleared for the command (and restored for in-process
    # callers, i.e. tests).
    if getattr(args, "trace", None) and "REPRO_TRACE" in os.environ:
        saved["REPRO_TRACE"] = os.environ.pop("REPRO_TRACE")
    try:
        return args.fn(args)
    finally:
        for env, old in saved.items():
            if old is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = old


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
