"""repro: parallel graph coloring with guarantees on work, depth, and quality.

A from-scratch Python reproduction of Besta et al., "High-Performance
Parallel Graph Coloring with Strong Guarantees on Work, Depth, and
Quality" (ACM/IEEE Supercomputing 2020).

Quickstart::

    from repro import kronecker, jp_adg, assert_valid_coloring

    g = kronecker(scale=12, edge_factor=8, seed=1)
    result = jp_adg(g, eps=0.01, seed=0)
    assert_valid_coloring(g, result.colors)
    print(result.num_colors, result.total_work, result.total_depth)

The package is organized as:

- :mod:`repro.graphs` — CSR substrate, generators, I/O, degeneracy;
- :mod:`repro.primitives` — segment kernels, integer sorts, the C builder;
- :mod:`repro.machine` — work-depth cost model, Brent simulation;
- :mod:`repro.runtime` — ExecutionContext: backend/workers
  configuration, rounds, end-to-end accounting;
- :mod:`repro.obs` — run tracing: phase/round spans, per-round metric
  series, JSONL and Chrome-trace (Perfetto) export;
- :mod:`repro.ordering` — FF/R/LF/LLF/SL/SLL/ASL/ID/SD and **ADG**;
- :mod:`repro.coloring` — Greedy, JP-*, ITR family, SIM-COL, **JP-ADG**,
  **DEC-ADG**, **DEC-ADG-ITR**;
- :mod:`repro.analysis` — theoretical bounds, performance profiles;
- :mod:`repro.bench` — dataset stand-ins and the experiment harness.
"""

from .coloring import (
    ALGORITHMS,
    ColoringResult,
    assert_valid_coloring,
    color,
    dec_adg,
    dec_adg_itr,
    dec_adg_m,
    greedy_by_name,
    is_valid_coloring,
    itr,
    itr_asl,
    itrb,
    jp_adg,
    jp_adg_m,
    jp_by_name,
    luby_coloring,
)
from .graphs import (
    CSRGraph,
    barabasi_albert,
    chung_lu,
    complete_graph,
    degeneracy,
    from_edge_list,
    from_edges,
    gnm_random,
    grid_2d,
    ingest,
    kronecker,
    path_graph,
    random_tree,
    read_edge_list,
    ring,
    road_network,
    star,
    stats,
)
from .machine import CostModel, MemoryModel, simulate
from .obs import NULL_TRACER, Tracer, write_chrome_trace, write_jsonl
from .ordering import (
    ORDERINGS,
    Ordering,
    adg_m_ordering,
    adg_ordering,
    get_ordering,
)
from .runtime import ExecutionContext, default_backend

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # coloring
    "ALGORITHMS", "ColoringResult", "assert_valid_coloring", "color",
    "dec_adg", "dec_adg_itr", "dec_adg_m", "greedy_by_name",
    "is_valid_coloring", "itr", "itr_asl", "itrb", "jp_adg", "jp_adg_m",
    "jp_by_name", "luby_coloring",
    # graphs
    "CSRGraph", "barabasi_albert", "chung_lu", "complete_graph", "degeneracy",
    "from_edge_list", "from_edges", "gnm_random", "grid_2d", "ingest",
    "kronecker", "path_graph", "random_tree", "read_edge_list", "ring",
    "road_network",
    "star", "stats",
    # machine
    "CostModel", "MemoryModel", "simulate",
    # observability
    "NULL_TRACER", "Tracer", "write_chrome_trace", "write_jsonl",
    # runtime
    "ExecutionContext", "default_backend",
    # ordering
    "ORDERINGS", "Ordering", "adg_m_ordering", "adg_ordering", "get_ordering",
]
