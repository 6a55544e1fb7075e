"""ingest-color and color-mem: jobs that turn a graph into certified colorings.

Each job colors its graph through ``repro.color`` and certifies every
coloring: the neighbor scan of ``assert_valid_coloring`` and the paper
bound 2(1+eps)d+1, with d the exact degeneracy computed once in set-up.
Colors must also repeat bit for bit from job to job.

- ingest-color: the job starts from a seeded edge-list file and follows
  ``python -m repro color --input FILE`` with the CLI defaults:
  ``ingest(force=True)``, one JP-ADG coloring on the serial backend,
  then ``degeneracy``.  DEC-ADG-ITR colorings of the ingested graph are
  timed beside the jobs, not in them, for ``dec_itr_p50_s``.
- color-mem: a larger graph generated in set-up stays in memory; each
  job colors it with JP-ADG and with DEC-ADG-ITR on the threaded
  backend with ``min(nproc, 4)`` workers.

The traced run replays a job as the chain of public calls behind
``color`` (:func:`color_chain`), each wrapped in a benchmark span, and
checks that the chain reproduces the untraced job's colors.
"""

from __future__ import annotations

import numpy as np

from common import (
    ENGINE_SEED,
    EPS,
    WORK,
    Stopwatch,
    Workload,
    certify,
    file_sha,
    layer_table,
    load_workers,
    median,
    ns_per_unit,
    paper_bound,
    peak_rss_mb,
    steal_share,
    tail,
)
from repro import (
    ExecutionContext,
    adg_ordering,
    assert_valid_coloring,
    color,
    degeneracy,
    is_valid_coloring,
    kronecker,
)
from repro.coloring.dec_adg_itr import itr_color_partitions
from repro.coloring.jp import dag_pred_counts, jp_color
from repro.graphs.ingest import ingest, ingest_report
from repro.graphs.properties import peel_degeneracy
from repro.ordering.base import random_tiebreak

ALGORITHMS = ("JP-ADG", "DEC-ADG-ITR")

#: Ingest phase names as ``ingest_report`` books them.
INGEST_PHASES = ("scan", "parse", "count", "scatter", "compact", "cache")


def colors_key(colors: np.ndarray) -> bytes:
    return np.ascontiguousarray(colors, dtype=np.int64).tobytes()


def color_chain(g, algorithm: str, ctx, spans, job) -> tuple[np.ndarray, dict]:
    """``color(algorithm, g)`` as its chain of public calls, each spanned.

    JP-ADG is ``adg_ordering`` -> ``dag_pred_counts`` -> ``jp_color``;
    DEC-ADG-ITR is ``adg_ordering`` -> ``itr_color_partitions`` under
    the engine's tiebreak permutation.  Returns the colors and the
    books of each step: span walls, work, depth and counters.
    """
    rec: dict = {"algorithm": algorithm, "p": ctx.workers}
    with spans.span("ordering.adg", job) as ev:
        order = adg_ordering(g, eps=EPS, seed=ENGINE_SEED, ctx=ctx)
    rec["order"] = (ev["wall"], order.cost.work, order.cost.depth)
    rec["order_iters"] = order.num_levels
    if algorithm == "JP-ADG":
        with spans.span("coloring.jp.dag", job) as dag:
            pred = dag_pred_counts(g, order.ranks, ctx)
        with spans.span("coloring.jp.waves", job) as waves:
            colors, rec["waves"] = jp_color(g, order.ranks, pred_counts=pred,
                                            ctx=ctx)
        rec["dag_s"], rec["waves_s"] = dag["wall"], waves["wall"]
        wall = dag["wall"] + waves["wall"]
    else:
        with spans.span("coloring.dec_adg_itr", job) as itr:
            colors, rec["rounds"], rec["conflicts"] = itr_color_partitions(
                g, order.levels, order.num_levels,
                random_tiebreak(g.n, ENGINE_SEED), ctx)
        wall = itr["wall"]
    rec["color"] = (wall, ctx.cost.work, ctx.cost.depth)
    rec["n"] = g.n
    with spans.span("coloring.verify", job):
        certify(is_valid_coloring(g, colors),
                f"{algorithm}: traced chain produced an invalid coloring")
    return colors, rec


def ingest_layers(events: list[dict]) -> dict:
    """Per-layer ingest metrics from spans that carry ``ingest_report``s."""
    reps = [e["report"] for e in events]
    out = {"ingest.wall_s": median([e["wall"] for e in events]),
           "ingest.mb_per_s": median([r["mb_per_s"] for r in reps]),
           "ingest.edges": reps[-1]["edges_in"]}
    for phase in INGEST_PHASES:
        out[f"ingest.{phase}_s"] = median(
            [r["phase_walls"].get(f"ingest.{phase}", 0.0) for r in reps])
    return out


def chain_layers(recs: list[dict]) -> dict:
    """Per-layer metrics of the ordering and coloring steps of chains."""
    out: dict = {}
    order = [r["order"] for r in recs]
    if order:
        _, work, depth = order[-1]
        out["order.adg_s"] = median([o[0] for o in order])
        out["order.adg.iters"] = recs[-1]["order_iters"]
        out["order.adg.work"], out["order.adg.depth"] = work, depth
        out["model.order_ns_per_unit"] = median(
            [ns_per_unit(o[0], o[1], o[2], r["p"])
             for o, r in zip(order, recs)])
    jp = [r for r in recs if r["algorithm"] == "JP-ADG"]
    if jp:
        out["color.jp_dag_s"] = median([r["dag_s"] for r in jp])
        out["color.jp_waves_s"] = median([r["waves_s"] for r in jp])
        out["color.jp.waves"] = jp[-1]["waves"]
        out["color.jp.work"], out["color.jp.depth"] = jp[-1]["color"][1:]
        out["model.jp_ns_per_unit"] = median(
            [ns_per_unit(*r["color"], r["p"]) for r in jp])
    itr = [r for r in recs if r["algorithm"] == "DEC-ADG-ITR"]
    if itr:
        out["color.itr_s"] = median([r["color"][0] for r in itr])
        out["color.itr.rounds"] = itr[-1]["rounds"]
        out["color.itr.work"], out["color.itr.depth"] = itr[-1]["color"][1:]
        out["color.itr.conflict_ratio"] = itr[-1]["conflicts"] / itr[-1]["n"]
        out["model.itr_ns_per_unit"] = median(
            [ns_per_unit(*r["color"], r["p"]) for r in itr])
    return out


def chain_rows(recs: list[dict]) -> list[tuple]:
    """Report rows (layer, wall, W, D, P) for the chains' booked steps."""
    rows = []
    for name, key, alg in (("ordering.adg", "order", None),
                           ("coloring.jp", "color", "JP-ADG"),
                           ("coloring.dec_adg_itr", "color", "DEC-ADG-ITR")):
        sel = [r for r in recs if alg is None or r["algorithm"] == alg]
        if sel:
            _, work, depth = sel[-1][key]
            rows.append((name, median([r[key][0] for r in sel]), work, depth,
                         sel[-1]["p"]))
    return rows


class _Batch(Workload):
    """Set-up, jobs and traced jobs shared by the two batch workloads."""

    backend = "serial"
    workers = 1
    #: The colorings of one job, in order.
    algorithms: tuple[str, ...] = ALGORITHMS
    #: Prefixes of the per-layer metrics this workload never exercises.
    bypassed: tuple[str, ...] = ("repair.", "svc.")

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        self.seed = seed
        self.graph = self.make_graph(seed, size)
        with Stopwatch() as sw:
            self.d = int(peel_degeneracy(self.graph).degeneracy)
        self.peel_s = sw.busy
        self.bound = paper_bound(self.d)
        self.inputs["graph"] = self.graph.content_digest
        self.expected: dict[str, bytes] = {}
        # Warm-up: the runtime's one-shot calibrations and lazy imports.
        color("JP-ADG", kronecker(8, 4, seed=seed), backend=self.backend,
              workers=self.workers, eps=EPS)
        self.config.update(backend=self.backend, workers=self.workers,
                           degeneracy=self.d, bound=self.bound,
                           n=self.graph.n, m=self.graph.m)

    def make_graph(self, seed: int, size: str):
        raise NotImplementedError

    def job_graph(self):
        """The graph a job colors (ingest-color re-ingests its file)."""
        return self.graph

    def check_colors(self, algorithm: str, g, colors) -> int:
        """Neighbor scan, paper bound and run-to-run determinism."""
        assert_valid_coloring(g, colors)
        used = int(colors.max()) if colors.size else 0
        certify(used <= self.bound,
                f"{algorithm}: {used} colors > bound {self.bound}")
        key = colors_key(colors)
        certify(self.expected.setdefault(algorithm, key) == key,
                f"{algorithm}: colors differ from the first job's")
        return used

    def color_once(self, algorithm: str, g, backend, workers,
                   out: dict) -> None:
        """One certified ``color`` call; books its wall and dispatch."""
        with Stopwatch() as sw:
            res = color(algorithm, g, backend=backend, workers=workers,
                        eps=EPS)
            out[algorithm] = self.check_colors(algorithm, g, res.colors)
        out[algorithm + "_s"] = sw.busy
        decisions = (res.dispatch or {}).get("decisions") or {}
        for k, v in decisions.items():
            out["dispatch"][k] += v
        out["kernel_tier"] = res.kernel_tier

    def job(self, _job, backend=None, workers=None) -> dict:
        backend = backend or self.backend
        workers = workers or self.workers
        out: dict = {"dispatch": {"inline": 0, "parallel": 0}}
        with Stopwatch() as total:
            g = self.job_graph()
            for algorithm in self.algorithms:
                self.color_once(algorithm, g, backend, workers, out)
            self.finish_job(g)
        out["wall"], out["clock"] = total.busy, total
        return out

    def finish_job(self, g) -> None:
        pass

    def traced_job(self, job, spans) -> dict:
        with Stopwatch() as total, spans.span("job", job) as ev:
            g = self.traced_graph(job, spans)
            recs = []
            for algorithm in self.algorithms:
                ctx = ExecutionContext(backend=self.backend,
                                       workers=self.workers)
                try:
                    colors, rec = color_chain(g, algorithm, ctx, spans, job)
                finally:
                    ctx.close()
                certify(self.expected.get(algorithm) == colors_key(colors),
                        f"{algorithm}: traced chain colors differ from "
                        "the untraced job's")
                recs.append(rec)
            self.traced_finish(g, job, spans)
        return {"recs": recs, "wall": total.busy, "span": ev["id"],
                "share": total.share}

    def traced_graph(self, job, spans):
        return self.graph

    def traced_finish(self, g, job, spans) -> None:
        pass

    # -- measuring -------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        return self.end_to_end(self.run_for(seconds, self.job))

    def end_to_end(self, jobs: list[dict], side: list[dict] | None = None
                   ) -> dict:
        """End-to-end metrics of ``jobs``.

        ``side`` holds the DEC-ADG-ITR colorings timed beside the jobs
        when the job itself runs none (ingest-color).
        """
        side = jobs if side is None else side
        walls = [j["wall"] for j in jobs]
        self.config["samples"] = len(walls)
        self.config["tail"] = tail(walls)[1]
        self.config["steal_share"] = steal_share([j["clock"] for j in jobs])
        if jobs:
            self.config["kernel_tier"] = jobs[-1]["kernel_tier"]
        jp = [j["JP-ADG"] for j in jobs]
        dec = [j["DEC-ADG-ITR"] for j in side]
        return {
            "setup_s": None,  # filled in by run.py
            "solve_p50_s": median(walls),
            "jp_adg_p50_s": median([j["JP-ADG_s"] for j in jobs]),
            "dec_itr_p50_s": median([j["DEC-ADG-ITR_s"] for j in side]),
            "colors": max((j[a] for j in jobs for a in self.algorithms),
                          default=0),
            "jp_adg_colors": max(jp, default=0),
            "dec_itr_colors": max(dec, default=0),
            "svc_ops_per_s": len(walls) / sum(walls) if walls else 0.0,
            "svc_p50_ms": median(walls) * 1e3,
            "svc_p99_ms": tail(walls)[0] * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": (self.attempted - self.failed) / max(self.attempted, 1),
        }

    def measure_traced(self, seconds: float, spans) -> tuple[dict, list]:
        """Untraced jobs, then the same jobs traced, then a serial baseline.

        ingest-color already runs serially, so its serial baseline is
        its untraced run and the time goes to the other two parts.
        """
        parallel = self.backend != "serial"
        part = seconds / (3 if parallel else 2)
        plain = self.run_for(part, self.job)
        traced = self.run_for(part, lambda j: self.traced_job(j, spans))
        serial = self.run_for(part, lambda j: self.job(j, "serial", 1)) \
            if parallel else plain
        untraced_p50 = median([j["wall"] for j in plain])
        serial_p50 = median([j["wall"] for j in serial])
        recs = [r for t in traced for r in t["recs"]]
        # Span walls are raw; the job's steal share puts them on the
        # untraced jobs' steal-free footing.
        covered = spans.attributed("job")
        layer_walls = [covered[t["span"]] * t["share"] for t in traced]
        layers = chain_layers(recs)
        layers.update({
            "verify.scan_s": median(spans.walls("coloring.verify")),
            "verify.peel_s": self.peel_s,
            "runtime.parallel_rounds": median(
                [j["dispatch"]["parallel"] for j in plain]),
            "runtime.inline_rounds": median(
                [j["dispatch"]["inline"] for j in plain]),
            "runtime.workers": self.workers,
            "runtime.nproc": self.config["nproc"],
            "runtime.serial_p50_s": serial_p50,
            "runtime.speedup": serial_p50 / untraced_p50
            if untraced_p50 else 0.0,
            # The layer spans of a traced job against the untraced job:
            # whatever ``color`` does outside the chain of layer calls
            # (context and pool start-up, result and ledger books,
            # dispatch) shows here.
            "unattributed_frac": 1 - median(layer_walls) / untraced_p50,
            "trace_overhead_frac": (median([t["wall"] for t in traced])
                                    - untraced_p50) / untraced_p50,
        })
        layers.update(self.traced_layers(spans))
        rows = self.ingest_rows(spans) + chain_rows(recs) + [
            ("coloring.verify", layers["verify.scan_s"], None, None, None),
            ("graphs.properties.peel", layers["verify.peel_s"], None, None,
             None)]
        fracs = {k: layers[k] for k in ("unattributed_frac",
                                        "trace_overhead_frac",
                                        "runtime.speedup")}
        return layers, layer_table(f"traced run: {self.name}", rows, fracs)

    def traced_layers(self, spans) -> dict:
        return {}

    def ingest_rows(self, spans) -> list[tuple]:
        return []


class ColorMem(_Batch):
    """In-memory Kronecker graph, threaded backend, adaptive dispatch."""

    name = "color-mem"
    backend = "threaded"
    bypassed = ("ingest.", "repair.", "svc.")
    SIZES = {"full": (16, 24), "toy": (10, 8)}

    def __init__(self, seed: int, size: str) -> None:
        self.workers = load_workers()
        super().__init__(seed, size)
        self.config["parser_used"] = None

    def make_graph(self, seed: int, size: str):
        scale, edge_factor = self.SIZES[size]
        return kronecker(scale, edge_factor, seed=seed)


class IngestColor(_Batch):
    """Seeded edge-list file -> ``ingest`` -> certified JP-ADG coloring."""

    name = "ingest-color"
    algorithms = ("JP-ADG",)
    bypassed = ("color.itr", "model.itr", "repair.", "svc.")
    SIZES = {"full": (15, 46), "toy": (10, 8)}
    #: Share of ``--seconds`` that runs jobs; the rest times DEC-ADG-ITR
    #: on the ingested graph.
    JOB_SHARE = 0.7

    def __init__(self, seed: int, size: str) -> None:
        self.dir = WORK / "inputs" / f"ingest-color-{size}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / "graph.el"
        self.cache_dir = self.dir / "ingest-cache"
        super().__init__(seed, size)
        self.inputs["edge_list"] = file_sha(self.path)
        # Builds (or loads) the C parser and imports the ingest runtime.
        warm = self.dir / "warm.el"
        warm.write_text("1000003 1000009\n", encoding="ascii")
        _, rep = ingest_report(warm, cache=False)
        self.config["parser_used"] = rep["parser_used"]
        self.ingested = None
        self.ingested_digest: str | None = None

    def make_graph(self, seed: int, size: str):
        """Write the edge list with ids spread over a sparse 7-digit space.

        Real exports have holes between ids, so ingest's id-compaction
        pass runs; the generated graph stays in memory for the
        degeneracy certificate and the edge count check.
        """
        scale, edge_factor = self.SIZES[size]
        g = kronecker(scale, edge_factor, seed=seed)
        u, v = g.undirected_edges()
        relabel = np.arange(g.n, dtype=np.int64) * 6 + 1_000_003
        with open(self.path, "w", encoding="ascii") as fh:
            fh.write(f"# perfbench ingest-color seed={seed} n={g.n} m={g.m}\n")
            block = 1 << 18
            for lo in range(0, u.size, block):
                a = relabel[u[lo:lo + block]].astype("U8")
                b = relabel[v[lo:lo + block]].astype("U8")
                fh.write("\n".join(np.char.add(np.char.add(a, " "),
                                               b).tolist()))
                fh.write("\n")
        return g

    def check_ingested(self, g) -> None:
        certify(g.m == self.graph.m,
                f"ingest read {g.m} edges, the file has {self.graph.m}")
        if self.ingested_digest is None:
            self.ingested_digest = g.content_digest
            self.inputs["ingested_graph"] = g.content_digest
        certify(g.content_digest == self.ingested_digest,
                "ingest produced a different graph than the first job's")
        self.ingested = g

    def job_graph(self):
        g = ingest(self.path, cache_dir=self.cache_dir, force=True)
        self.check_ingested(g)
        return g

    def finish_job(self, g) -> None:
        d = degeneracy(g)
        certify(d == self.d, f"degeneracy {d} != set-up's {self.d}")

    def measure(self, seconds: float) -> dict:
        jobs = self.run_for(seconds * self.JOB_SHARE, self.job)
        side = self.run_for(seconds * (1 - self.JOB_SHARE), self.dec_job)
        return self.end_to_end(jobs, side)

    def dec_job(self, _job) -> dict:
        """DEC-ADG-ITR on the last ingested graph, outside any job."""
        out: dict = {"dispatch": {"inline": 0, "parallel": 0}}
        self.color_once("DEC-ADG-ITR", self.ingested, self.backend,
                        self.workers, out)
        return out

    def traced_graph(self, job, spans):
        with spans.span("graphs.ingest", job) as ev:
            g, rep = ingest_report(self.path, cache_dir=self.cache_dir,
                                   force=True)
        self.check_ingested(g)
        ev["report"] = rep
        return g

    def traced_finish(self, g, job, spans) -> None:
        with spans.span("graphs.properties.peel", job):
            d = peel_degeneracy(g).degeneracy
        certify(d == self.d, f"degeneracy {d} != set-up's {self.d}")

    def traced_layers(self, spans) -> dict:
        out = ingest_layers([e for e in spans.events
                             if e["name"] == "graphs.ingest"])
        out["verify.peel_s"] = median(spans.walls("graphs.properties.peel"))
        return out

    def ingest_rows(self, spans) -> list[tuple]:
        return [("graphs.ingest", median(spans.walls("graphs.ingest")),
                 None, None, None)]
