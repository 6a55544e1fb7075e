"""Graph substrate: CSR storage, builders, generators, I/O, properties."""

from .analytics import (
    average_local_clustering,
    bfs_distances,
    degree_assortativity,
    degree_histogram,
    effective_diameter,
    global_clustering,
    triangle_count,
    triangles_per_vertex,
)
from .builders import (
    empty_graph,
    from_adjacency,
    from_edge_list,
    from_edges,
    from_networkx,
    relabel,
    to_networkx,
)
from .csr import CSRGraph
from .delta import (
    AppliedDelta,
    GraphDelta,
    apply_delta,
    format_delta_spec,
    parse_delta_spec,
)
from .generators import (
    barabasi_albert,
    chung_lu,
    complete_graph,
    gnm_random,
    grid_2d,
    kronecker,
    path_graph,
    planted_kcore,
    random_bipartite,
    random_tree,
    ring,
    road_network,
    star,
)
from .ingest import (
    ingest,
    ingest_report,
    parse_edge_bytes,
)
from .io import (
    load_npz,
    read_edge_list,
    read_metis,
    save_npz,
    write_edge_list,
    write_metis,
)
from .properties import (
    GraphStats,
    PeelResult,
    connected_components,
    coreness,
    degeneracy,
    is_bipartite,
    num_components,
    peel_degeneracy,
    stats,
)
from .subgraph import InducedSubgraph, degrees_within, edges_within, induced_subgraph

__all__ = [
    "CSRGraph",
    "AppliedDelta", "GraphDelta", "apply_delta", "format_delta_spec",
    "parse_delta_spec",
    "average_local_clustering", "bfs_distances", "degree_assortativity",
    "degree_histogram", "effective_diameter", "global_clustering",
    "triangle_count", "triangles_per_vertex",
    "empty_graph", "from_adjacency", "from_edge_list", "from_edges",
    "from_networkx", "relabel", "to_networkx",
    "barabasi_albert", "chung_lu", "complete_graph", "gnm_random", "grid_2d",
    "kronecker", "path_graph", "planted_kcore", "random_bipartite",
    "random_tree", "ring", "road_network", "star",
    "ingest", "ingest_report", "parse_edge_bytes",
    "load_npz", "read_edge_list", "read_metis", "save_npz",
    "write_edge_list", "write_metis",
    "GraphStats", "PeelResult", "connected_components", "coreness",
    "degeneracy", "is_bipartite", "num_components", "peel_degeneracy", "stats",
    "InducedSubgraph", "degrees_within", "edges_within", "induced_subgraph",
]
