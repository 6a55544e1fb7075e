"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

# Deterministic, CI-friendly hypothesis defaults: property tests must
# not flake, and session-scoped graph fixtures are intentionally reused
# across examples.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro")

from repro.graphs import (
    CSRGraph,
    barabasi_albert,
    chung_lu,
    complete_graph,
    empty_graph,
    from_edges,
    gnm_random,
    grid_2d,
    kronecker,
    path_graph,
    planted_kcore,
    random_bipartite,
    random_tree,
    ring,
    star,
)


# -- deterministic fixture graphs ---------------------------------------------

@pytest.fixture(scope="session")
def small_random() -> CSRGraph:
    return gnm_random(200, 600, seed=7, name="small_random")


@pytest.fixture(scope="session")
def medium_powerlaw() -> CSRGraph:
    return chung_lu(1500, 6000, exponent=2.3, seed=11, name="medium_powerlaw")


@pytest.fixture(scope="session")
def small_kron() -> CSRGraph:
    return kronecker(scale=9, edge_factor=8, seed=3, name="small_kron")


@pytest.fixture(scope="session")
def mesh() -> CSRGraph:
    return grid_2d(20, 25, name="mesh")


@pytest.fixture(scope="session")
def tree_graph() -> CSRGraph:
    return random_tree(300, seed=5, name="tree")


@pytest.fixture(scope="session")
def clique10() -> CSRGraph:
    return complete_graph(10, name="clique10")


def graph_zoo() -> list[CSRGraph]:
    """A structurally diverse set of graphs for cross-algorithm sweeps."""
    return [
        gnm_random(150, 450, seed=1, name="zoo_gnm"),
        chung_lu(300, 1200, exponent=2.4, seed=2, name="zoo_powerlaw"),
        kronecker(scale=8, edge_factor=6, seed=3, name="zoo_kron"),
        grid_2d(12, 13, name="zoo_grid"),
        ring(50, name="zoo_ring"),
        path_graph(40, name="zoo_path"),
        complete_graph(12, name="zoo_clique"),
        star(30, name="zoo_star"),
        random_tree(80, seed=4, name="zoo_tree"),
        random_bipartite(40, 50, 300, seed=5, name="zoo_bipartite"),
        planted_kcore(100, 8, fringe_edges=2, seed=6, name="zoo_kcore"),
        barabasi_albert(120, attach=4, seed=7, name="zoo_ba"),
        empty_graph(10, name="zoo_isolated"),
        from_edges([0], [1], n=5, name="zoo_one_edge"),
    ]


@pytest.fixture(scope="session", params=[g.name for g in graph_zoo()])
def zoo_graph(request) -> CSRGraph:
    for g in graph_zoo():
        if g.name == request.param:
            return g
    raise AssertionError("unreachable")


# -- independent oracle ----------------------------------------------------------

def sequential_greedy(g: CSRGraph, sequence) -> np.ndarray:
    """Greedy coloring by a plain per-vertex loop (1-based colors).

    Kept apart from the library's rank sweep so JP and Greedy are
    checked against code they do not share.
    """
    colors = np.zeros(g.n, dtype=np.int64)
    indptr, indices = g.indptr, g.indices
    scratch = np.zeros(g.max_degree + 2, dtype=bool)
    for v in np.asarray(sequence, dtype=np.int64).tolist():
        row = indices[indptr[v]:indptr[v + 1]]
        taken = colors[row]
        taken = taken[(taken > 0) & (taken <= row.size + 1)]
        scratch[taken] = True
        c = 1
        while scratch[c]:
            c += 1
        colors[v] = c
        scratch[taken] = False
    return colors


def misaligned(a) -> np.ndarray:
    """A copy of ``a`` as int64 starting one byte past an aligned
    address — what an unpadded npz member maps to."""
    a = np.asarray(a, dtype=np.int64)
    out = np.frombuffer(bytearray(a.size * 8 + 1), dtype=np.int64,
                        count=a.size, offset=1)
    out[:] = a
    assert a.size == 0 or not out.flags.aligned
    return out


# -- hypothesis strategy for arbitrary small graphs -----------------------------

@st.composite
def graphs(draw, max_n: int = 30, max_m: int = 90):
    """Random small simple graphs (possibly disconnected or empty)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    max_edges = min(max_m, n * (n - 1) // 2)
    k = draw(st.integers(min_value=0, max_value=max_edges))
    if k == 0 or n < 2:
        return empty_graph(n, name="hyp")
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=k, max_size=k))
    u = np.asarray([p[0] for p in pairs], dtype=np.int64)
    v = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return from_edges(u, v, n=n, name="hyp")
