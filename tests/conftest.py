"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import shutil
import subprocess
import sys
import threading
from pathlib import Path

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
from repro.primitives import cbuild


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
    address, which a compiled loop must not load from."""
    a = np.asarray(a, dtype=np.int64)
    out = np.frombuffer(bytearray(a.size * 8 + 1), dtype=np.int64,
                        count=a.size, offset=1)
    out[:] = a
    assert a.size == 0 or not out.flags.aligned
    return out


def warm_from_ingest_cache(g, tmp_path) -> tuple[CSRGraph, CSRGraph]:
    """``(cold, warm)``: ``g`` written as an edge list and ingested cold
    into a cache, then loaded again from that cache, its arrays
    memory-mapped read-only.  Both are ``g`` as its edge list reads
    back: isolated vertices, which no line names, are dropped."""
    from repro.graphs.ingest import ingest_report
    from repro.graphs.io import write_edge_list

    path = str(tmp_path / "g.el")
    write_edge_list(g, path)
    cdir = str(tmp_path / "cache")
    cold, _ = ingest_report(path, cache_dir=cdir)
    warm, report = ingest_report(path, cache_dir=cdir)
    assert report["cached"] == "stat"
    assert isinstance(warm.indices.base, np.memmap)
    assert not warm.indices.flags.writeable
    assert warm.content_digest == cold.content_digest
    return cold, warm


# -- the compiled library -----------------------------------------------------

def require_c() -> None:
    """Skip the calling test when the compiled library does not build."""
    if cbuild.load() is None:
        pytest.skip("no C compiler: the compiled library is unavailable")


def _hide(mp: pytest.MonkeyPatch, names: tuple) -> None:
    real = cbuild.entry
    mp.setattr(cbuild, "entry", lambda name: None
               if not names or name in names else real(name))


@pytest.fixture
def hide_c(monkeypatch):
    """``hide_c(*names)``: the named entry points -- every one when none
    is named -- read as unbuilt for the rest of the test, so their
    callers run the Python/NumPy fallback."""
    return lambda *names: _hide(monkeypatch, names)


def both_paths(call, *names) -> list:
    """``[call()]`` on the compiled library, then with the entry points
    ``names`` (every one when none is named) hidden."""
    require_c()
    out = [call()]
    with pytest.MonkeyPatch.context() as mp:
        _hide(mp, names)
        out.append(call())
    return out


@pytest.fixture
def c_calls(monkeypatch) -> list:
    """Every entry point stood in for by a recorder: the list of
    ``(name, args)`` the compiled library would have been called with."""
    calls: list = []
    monkeypatch.setattr(cbuild, "entry", lambda name:
                        lambda *args: calls.append((name, args)))
    return calls


@pytest.fixture
def fresh_build(monkeypatch, tmp_path) -> list:
    """The loader re-armed as in a new process, building from a copy of
    the C sources (``tmp_path / "csrc"``, now ``cbuild.CSRC``) into an
    empty ``$REPRO_CC_CACHE`` (``tmp_path / "cc"``).  Returns the list
    each :func:`~repro.primitives.cbuild.build_shared` call appends to."""
    shutil.copytree(cbuild.CSRC, tmp_path / "csrc")
    monkeypatch.setattr(cbuild, "CSRC", str(tmp_path / "csrc"))
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    monkeypatch.setattr(cbuild, "_tried", False)
    monkeypatch.setattr(cbuild, "_bound", None)
    builds: list = []
    real = cbuild.build_shared
    monkeypatch.setattr(cbuild, "build_shared",
                        lambda: builds.append(1) or real())
    return builds


#: The ways a fresh build can fail, for :func:`broken_build`.
BUILD_FAILURES = ("no_compiler", "cc_fails", "bad_source")


@pytest.fixture
def broken_build(fresh_build, monkeypatch):
    """``broken_build(how)``: the fresh build fails ``how`` -- no
    compiler on ``PATH``, a compiler that exits 1, or a source that
    does not compile."""
    def breaks(how: str) -> None:
        if how == "no_compiler":
            monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        elif how == "cc_fails":
            # Any existing file stands in: the build keys on its bytes.
            monkeypatch.setattr(cbuild.shutil, "which",
                                lambda name: sys.executable)
            monkeypatch.setattr(
                cbuild.subprocess, "run",
                lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1))
        else:
            assert how == "bad_source", how
            (Path(cbuild.CSRC) / "peel.c").write_text("this is not C;\n")
    return breaks


def concurrently(call, k: int = 8) -> list:
    """``call()``'s results from ``k`` threads started together, with
    the switch interval shrunk so they interleave."""
    got: list = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(call()))
                   for _ in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == k
    return got


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
