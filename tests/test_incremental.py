"""Property-based equivalence layer for delta-driven incremental recoloring.

The contract under test (ISSUE: dynamic-graph service): after *every*
``apply_delta`` the live coloring is (a) valid on the mutated graph and
(b) within the paper bound computed against the MUTATED graph's exact
degeneracy; and (c) replaying the same delta sequence functionally and
running a full recompute yields a valid coloring within the same bound
— the incremental path never does worse than starting over.

The strategies draw *abstract* operations (kind + two integers) that
the test materializes against the live graph state — every drawn
sequence is applicable, so there are no ``assume`` calls and zero
skipped examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import GraphParams, quality_bound
from repro.coloring import IncrementalColoring, color
from repro.coloring.incremental import INCREMENTAL_FAMILY
from repro.coloring.verify import assert_valid_coloring, num_colors
from repro.graphs import (
    CSRGraph,
    GraphDelta,
    apply_delta,
    degeneracy,
    format_delta_spec,
    gnm_random,
    kronecker,
    parse_delta_spec,
    ring,
)

# -- strategies ---------------------------------------------------------------

BASE_GRAPHS = {
    "ring": lambda: ring(12, name="inc_ring"),
    "gnm": lambda: gnm_random(30, 60, seed=3, name="inc_gnm"),
    "kron": lambda: kronecker(scale=5, edge_factor=4, seed=5,
                              name="inc_kron"),
}

#: One abstract mutation: (kind, a, b).  The integers are interpreted
#: modulo the live graph's current shape, so every op applies cleanly.
ops = st.tuples(st.sampled_from(["add", "del", "addv", "delv"]),
                st.integers(0, 10_000), st.integers(0, 10_000))


def materialize(g: CSRGraph, op) -> GraphDelta:
    """Turn an abstract op into a concrete, always-applicable delta."""
    kind, a, b = op
    n = g.n
    if kind == "add":
        u = a % n
        v = b % (n - 1)
        if v >= u:
            v += 1
        return GraphDelta(add_edges=np.array([[u, v]], dtype=np.int64))
    if kind == "del":
        u = a % n
        row = g.neighbors(u)
        if row.size:
            v = int(row[b % row.size])
        else:  # no incident edge: a non-strict no-op removal
            v = (u + 1) % n
        return GraphDelta(remove_edges=np.array([[u, v]], dtype=np.int64))
    if kind == "addv":
        k = 1 + a % 2
        # Attach each appended vertex to an existing one.
        edges = np.array([[n + i, (b + i) % n] for i in range(k)],
                         dtype=np.int64)
        return GraphDelta(add_vertices=k, add_edges=edges)
    return GraphDelta(remove_vertices=np.array([a % n], dtype=np.int64))


def paper_bound(algorithm: str, g: CSRGraph, eps: float) -> int:
    """The Table-III bound against the CURRENT graph's exact degeneracy."""
    params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                         degeneracy=degeneracy(g))
    return quality_bound(algorithm, params, eps)


# -- the equivalence property -------------------------------------------------

@pytest.mark.parametrize("algorithm,eps", [("DEC-ADG-ITR", 0.01),
                                           ("DEC-ADG", 6.0)])
@pytest.mark.parametrize("base", sorted(BASE_GRAPHS))
@settings(max_examples=15)
@given(seq=st.lists(ops, min_size=1, max_size=8))
def test_incremental_equivalence(base, algorithm, eps, seq):
    g = BASE_GRAPHS[base]()
    replay = g  # functional copies; the incremental engine gets its own
    inc = IncrementalColoring(
        CSRGraph(g.indptr.copy(), g.indices.copy(), name=g.name),
        algorithm, eps=eps, seed=0, backend="serial")
    try:
        for op in seq:
            delta = materialize(inc.graph, op)
            report = inc.apply_delta(delta)
            # (a) valid on the mutated graph, every single step.
            assert_valid_coloring(inc.graph, inc.colors)
            bound = paper_bound(algorithm, inc.graph, eps)
            # (b) within the paper bound vs the MUTATED graph.
            assert report["colors"] <= bound
            assert num_colors(inc.colors) == report["colors"]
            # (c-1) the in-place graph equals the functional replay.
            replay = apply_delta(replay, delta).graph
            assert replay.content_digest == inc.graph.content_digest
        # (c-2) replay-then-full-recompute is valid and no better
        # certified: same bound as the incremental path's final graph.
        res = color(algorithm, replay, eps=eps, seed=0)
        assert_valid_coloring(replay, res.colors)
        assert res.num_colors <= paper_bound(algorithm, replay, eps)
    finally:
        inc.close()


@settings(max_examples=20)
@given(seq=st.lists(ops, min_size=1, max_size=10))
def test_apply_delta_matches_edge_set_semantics(seq):
    """apply_delta == python-set edge arithmetic, validated CSR out."""
    g = gnm_random(25, 50, seed=9, name="sets")
    edges = {(int(u), int(v)) for u, v in zip(*g.undirected_edges())}
    n = g.n
    for op in seq:
        delta = materialize(g, op)
        res = apply_delta(g, delta)
        n += int(delta.add_vertices)
        for u, v in delta.add_edges:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
        for u, v in delta.remove_edges:
            edges.discard((min(int(u), int(v)), max(int(u), int(v))))
        for w in delta.remove_vertices:
            edges = {(u, v) for (u, v) in edges
                     if u != int(w) and v != int(w)}
        g = res.graph
        g.validate()
        assert g.n == n
        assert {(int(u), int(v))
                for u, v in zip(*g.undirected_edges())} == edges


@given(seq=st.lists(ops, min_size=1, max_size=6))
def test_delta_spec_round_trip(seq):
    g = gnm_random(20, 40, seed=1)
    for op in seq:
        delta = materialize(g, op)
        again = parse_delta_spec(format_delta_spec(delta))
        assert np.array_equal(again.add_edges, delta.add_edges)
        assert np.array_equal(again.remove_edges, delta.remove_edges)
        assert again.add_vertices == delta.add_vertices
        assert np.array_equal(again.remove_vertices, delta.remove_vertices)


# -- locality: single-edge deltas repair a vanishing fraction -----------------

def test_single_edge_delta_locality():
    """Twenty single-edge inserts on a 2k-vertex graph must stay local:
    no full recompute, and total recolor work well under 10% of n."""
    g = gnm_random(2000, 8000, seed=13, name="locality")
    inc = IncrementalColoring(g, "DEC-ADG-ITR", eps=0.01, seed=0,
                              backend="serial")
    try:
        rng = np.random.default_rng(17)
        applied = 0
        while applied < 20:
            u, v = (int(x) for x in rng.integers(0, inc.graph.n, 2))
            if u == v or inc.graph.has_edge(u, v):
                continue
            report = inc.apply_delta(
                GraphDelta(add_edges=np.array([[u, v]], dtype=np.int64)))
            assert not report["full_recompute"]
            applied += 1
        assert_valid_coloring(inc.graph, inc.colors)
        assert inc.stats["full_recomputes"] == 0
        assert inc.stats["repaired"] < 0.1 * inc.graph.n
        final = inc.verify()
        assert final["valid"] and final["within_bound"]
    finally:
        inc.close()


def test_repair_books_memory_under_its_phases():
    """The deg_l array and each frontier repair book their memory
    touches under the phases ``inc`` and ``inc:repair``, so a profile
    tells them apart; nothing lands outside a phase."""
    g = gnm_random(200, 800, seed=5)
    inc = IncrementalColoring(g, "DEC-ADG-ITR", eps=0.01, seed=0,
                              backend="serial")
    try:
        c = inc.colors
        u, v = next((int(u), int(v)) for u in range(g.n)
                    for v in range(u + 1, g.n)
                    if c[u] == c[v] and not g.has_edge(u, v))
        m = g.m
        before = inc.ctx.mem.by_phase.get("inc:repair", (0, 0))
        report = inc.apply_delta(
            GraphDelta(add_edges=np.array([[u, v]], dtype=np.int64)))
        assert report["repaired"] >= 1
        by_phase = inc.ctx.mem.by_phase
        assert by_phase["inc"] == (4 * m, 0)
        assert sum(by_phase["inc:repair"]) > sum(before)
        assert "<toplevel>" not in by_phase
    finally:
        inc.close()


# -- guardrails ---------------------------------------------------------------

def test_incremental_rejects_non_dec_algorithms():
    g = ring(10)
    with pytest.raises(ValueError, match="incremental"):
        IncrementalColoring(g, "JP-ADG")
    assert "JP-ADG" not in INCREMENTAL_FAMILY


@pytest.mark.parametrize("edges", [[[0, 1, 2], [3, 4, 5]], [0, 1, 2, 3]])
@pytest.mark.parametrize("field", ["add_edges", "remove_edges"])
def test_delta_edges_of_wrong_shape_raise(field, edges):
    """Edges must come as (k, 2); another shape is never re-paired."""
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        GraphDelta(**{field: edges})


def test_empty_delta_edges_mean_no_edges():
    delta = GraphDelta(add_edges=[], remove_edges=np.empty((0, 2)))
    assert delta.add_edges.shape == delta.remove_edges.shape == (0, 2)


def test_incremental_from_empty_graph():
    from repro.graphs import empty_graph

    inc = IncrementalColoring(empty_graph(0), "DEC-ADG-ITR",
                              backend="serial")
    try:
        report = inc.apply_delta(parse_delta_spec("addv:4;add:0-1,2-3"))
        assert report["colors"] >= 1
        assert_valid_coloring(inc.graph, inc.colors)
        assert inc.graph.n == 4 and inc.graph.m == 2
    finally:
        inc.close()


def test_deletions_invalidate_cached_certificates():
    """A deletion must force the ladder off the cheap rung (degeneracy
    may have dropped, the old certificate is unsound)."""
    g = gnm_random(100, 400, seed=2)
    inc = IncrementalColoring(g, "DEC-ADG-ITR", eps=0.01, seed=0,
                              backend="serial")
    try:
        eu, ev = g.undirected_edges()
        uu, vv = int(eu[0]), int(ev[0])
        report = inc.apply_delta(
            GraphDelta(remove_edges=np.array([[uu, vv]], dtype=np.int64)))
        assert report["certified"] in ("peel", "exact", "recompute")
        assert report["certified"] != "cheap"
    finally:
        inc.close()
