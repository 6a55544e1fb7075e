"""The experiment harness: run algorithm suites over graph suites.

Produces the rows behind the paper's Fig. 1 (run-times split into
reordering + coloring, and color counts relative to JP-R) and Table III
(measured vs bound).  All rows are plain dicts so pytest-benchmark,
tests, and the report writer can consume them alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.bounds import GraphParams, quality_bound
from ..coloring.registry import ALGORITHMS, color
from ..coloring.result import ColoringResult
from ..coloring.verify import assert_valid_coloring
from ..graphs.csr import CSRGraph
from ..graphs.properties import degeneracy
from ..machine.brent import simulate


@dataclass
class RunRecord:
    """One (algorithm, graph) execution with derived metrics."""

    algorithm: str
    graph: str
    n: int
    m: int
    degeneracy: int
    colors: int
    quality_bound: int
    work: int
    depth: int
    reorder_work: int
    coloring_work: int
    rounds: int
    conflicts: int
    wall_seconds: float
    reorder_wall_seconds: float
    sim_time_32: float
    backend: str = "serial"
    workers: int = 1
    phase_walls: dict = field(default_factory=dict)
    #: Tracer digest when the run was traced (per-round metric series
    #: under "series"), else
    #: None.
    trace_summary: dict | None = None
    #: Resource-telemetry digest when the run sampled resources
    #: (coordinator peak RSS / CPU), else None.
    resources: dict | None = None

    @classmethod
    def from_result(cls, g: CSRGraph, d: int,
                    res: ColoringResult) -> "RunRecord":
        params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                             degeneracy=d)
        return cls(
            algorithm=res.algorithm, graph=g.name, n=g.n, m=g.m,
            degeneracy=d, colors=res.num_colors,
            quality_bound=quality_bound(res.algorithm, params, res.eps),
            work=res.total_work, depth=res.total_depth,
            reorder_work=res.reorder_cost.work if res.reorder_cost else 0,
            coloring_work=res.cost.work,
            rounds=res.rounds, conflicts=res.conflicts_resolved,
            wall_seconds=res.total_wall_seconds,
            reorder_wall_seconds=res.reorder_wall_seconds,
            sim_time_32=simulate(res.combined_cost(), 32).time,
            backend=res.backend, workers=res.workers,
            phase_walls=dict(res.phase_walls),
            trace_summary=res.trace_summary,
            resources=res.resources,
        )

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SuiteResult:
    """All records of one harness invocation, with lookup helpers."""

    records: list[RunRecord] = field(default_factory=list)

    def get(self, algorithm: str, graph: str) -> RunRecord:
        for r in self.records:
            if r.algorithm == algorithm and r.graph == graph:
                return r
        raise KeyError(f"no record for ({algorithm}, {graph})")

    def colors_matrix(self) -> dict[str, dict[str, float]]:
        """results[algorithm][graph] = color count (profile input)."""
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            out.setdefault(r.algorithm, {})[r.graph] = float(r.colors)
        return out

    def relative_quality(self, baseline: str = "JP-R") -> list[dict]:
        """Color counts normalized to a baseline algorithm (Fig. 1 style)."""
        base: dict[str, int] = {r.graph: r.colors for r in self.records
                                if r.algorithm == baseline}
        rows = []
        for r in self.records:
            if r.graph in base and base[r.graph] > 0:
                rows.append({"algorithm": r.algorithm, "graph": r.graph,
                             "colors": r.colors,
                             "relative": r.colors / base[r.graph]})
        return rows

    def as_rows(self) -> list[dict]:
        return [r.as_dict() for r in self.records]


def run_suite(graphs: dict[str, CSRGraph],
              algorithms: list[str] | None = None,
              eps: float | None = None, seed: int = 0,
              validate: bool = True,
              algorithm_kwargs: dict[str, dict] | None = None,
              backend: str | None = None,
              workers: int | None = None,
              trace=False,
              ledger=None) -> SuiteResult:
    """Run each algorithm on each graph; returns all records.

    ``algorithm_kwargs`` maps algorithm name -> extra keyword arguments
    (e.g. ``{"JP-ADG": {"eps": 0.1}}``).  ``eps`` goes to every
    algorithm that takes one unless overridden (``None``: each one's
    default); each record's quality bound is taken at the ε its run
    used.  ``backend``/``workers`` are recorded on every run; each
    record reports the backend, worker count, and per-phase wall times
    (ordering and coloring) of its run, so serial and threaded
    trajectories are comparable row by row.

    ``trace=True`` traces every run with a fresh
    in-memory tracer, so each record's ``trace_summary`` carries that
    run's own per-round series.  Passing a
    :class:`~repro.obs.Tracer` instance instead shares one trace across
    the whole suite (one exportable file; per-record summaries are then
    cumulative snapshots).

    ``ledger`` selects a flight-recorder sink.  ``None`` (the default)
    leaves recording to the driver's own ``$REPRO_LEDGER`` seam, which
    appends one ``kind="run"`` record per execution.  Passing a path,
    ``True``, or a :class:`~repro.obs.Ledger` makes the harness itself
    append one richer ``kind="suite"`` record per :class:`RunRecord`
    (carrying the suite's validation verdict) — use one seam or the
    other, not both, or every run is recorded twice.
    """
    from ..obs import Tracer
    from ..obs.ledger import NULL_LEDGER, resolve_ledger, run_record

    book = NULL_LEDGER if ledger is None else resolve_ledger(ledger)
    if algorithms is None:
        algorithms = sorted(ALGORITHMS)
    algorithm_kwargs = algorithm_kwargs or {}
    out = SuiteResult()
    for gname, g in graphs.items():
        d = degeneracy(g)
        for alg in algorithms:
            kwargs = dict(algorithm_kwargs.get(alg, {}))
            kwargs.setdefault("seed", seed)
            kwargs.setdefault("eps", eps)
            run_trace = Tracer() if trace is True else (trace or None)
            res = color(alg, g, backend=backend, workers=workers,
                        trace=run_trace, **kwargs)
            if validate:
                assert_valid_coloring(g, res.colors)
            out.records.append(RunRecord.from_result(g, d, res))
            if book.enabled:
                book.append(run_record(res, graph=g, kind="suite",
                                       valid=True if validate else None))
    return out
