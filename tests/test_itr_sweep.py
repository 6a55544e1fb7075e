"""DEC-ADG-ITR's level loop as one compiled pass: pinned books,
C/NumPy agreement, C boundary, fallback.

``GOLDEN`` holds what the chunked ITR rounds recorded for the
configurations below, captured from that engine before the compiled
pass replaced it: both paths must reproduce its colors, rounds,
conflicts, work, depth, round log, per-phase snapshot, memory books and
``dec-itr.*`` tracer series bit for bit.  ``GOLDEN_ITR`` does the same
for the ITR and ITR-ASL baselines, which run the pass as one level:
captured from their own NumPy round loop before it was deleted.  The
NumPy rounds are the C path's oracle everywhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.dec_adg_itr import dec_adg_itr, itr_color_partitions
from repro.coloring.incremental import IncrementalColoring
from repro.coloring.speculative import itr, itr_asl
from repro.coloring.verify import is_valid_coloring
from repro.graphs import CSRGraph
from repro.graphs.builders import empty_graph, from_edges
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    gnm_random,
    grid_2d,
    kronecker,
    ring,
    star,
)
from repro.obs import Tracer
from repro.ordering.adg import adg_ordering
from repro.ordering.base import random_tiebreak
from repro.primitives import cbuild
from repro.runtime import ExecutionContext

from .conftest import (both_paths, graphs, misaligned, require_c,
                       warm_from_ingest_cache)

# The package re-exports the engine function under the module's name.
itr_mod = sys.modules["repro.coloring.dec_adg_itr"]

GRAPHS = {
    "kron": lambda: kronecker(scale=9, edge_factor=8, seed=3),
    "gnm": lambda: gnm_random(400, 1600, seed=5),
    "ba": lambda: barabasi_albert(300, 3, seed=2),
    "grid": lambda: grid_2d(15, 17),
    "clique": lambda: complete_graph(12),
    "ring": lambda: ring(64),
    "empty": lambda: empty_graph(0),
    "isolated": lambda: from_edges([0, 3, 3], [3, 4, 7], n=12),
}
SERIES = ("dec-itr.partition", "dec-itr.palette", "dec-itr.active",
          "dec-itr.conflicts", "dec-itr.colored")


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        raw = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
    else:
        raw = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def run(g, eps=0.01, variant="avg", backend="serial") -> dict:
    """Everything a DEC-ADG-ITR run books, unreduced."""
    workers = 2 if backend == "threaded" else None
    with ExecutionContext(backend=backend, workers=workers,
                          trace=Tracer()) as ctx:
        res = dec_adg_itr(g, eps=eps, variant=variant, seed=0, ctx=ctx)
        metrics = ctx.tracer.metrics
        series = {n: metrics.series(n) for n in SERIES if n in metrics}
    return {"colors": res.colors, "rounds": res.rounds,
            "conflicts": res.conflicts_resolved, "work": res.cost.work,
            "depth": res.cost.depth, "round_log": res.cost.round_log,
            "snapshot": res.cost.snapshot(),
            "mem": [res.mem.random, res.mem.sequential],
            "mem_phases": sorted(res.mem.by_phase.items()),
            "series": series}


def fingerprint(*args, **kwargs) -> dict:
    """:func:`run` with its arrays and logs reduced to digests."""
    out = run(*args, **kwargs)
    for key in ("colors", "round_log", "snapshot", "mem_phases", "series"):
        out[key] = _digest(out[key])
    return out


def _assert_same_run(a: dict, b: dict) -> None:
    np.testing.assert_array_equal(a.pop("colors"), b.pop("colors"))
    assert a == b


# Recorded from the chunked ITR rounds; key "graph|eps|variant|backend".
GOLDEN = {
    "kron|0.01|avg|serial": dict(
        colors="310333d165c03ebd", rounds=21, conflicts=120, work=22939,
        depth=240, round_log="884b47cc69a251b9",
        snapshot="801c12bda8eefc0a", mem=[7571, 11193],
        mem_phases="1467a26f4d28fc95", series="afc9865aaf6f251f"),
    "gnm|0.01|avg|serial": dict(
        colors="368d9d311dffe8ab", rounds=16, conflicts=125, work=12366,
        depth=151, round_log="1256908a4ed0f1fd",
        snapshot="fa9480229f891bb0", mem=[4504, 5132],
        mem_phases="d0f92ec09462643d", series="30ef10268c653914"),
    "ba|0.01|avg|serial": dict(
        colors="6f4b6ac3efc4e72c", rounds=10, conflicts=63, work=6731,
        depth=100, round_log="2c4c50433e0d2294",
        snapshot="0ccf3d0097bf44ff", mem=[2239, 2865],
        mem_phases="9a680da6910ca611", series="cd32e1cfda11029c"),
    "grid|0.01|avg|serial": dict(
        colors="163eb51c4daf051d", rounds=16, conflicts=46, work=4497,
        depth=114, round_log="d20c1da161762511",
        snapshot="52e164115a130d1e", mem=[1528, 1785],
        mem_phases="55fe38c1dabb319a", series="35a6e501ba6347de"),
    "clique|0.01|avg|serial": dict(
        colors="994bddf006a5c20f", rounds=12, conflicts=66, work=2238,
        depth=123, round_log="5301a08ebacb9af6",
        snapshot="62668309edc2860f", mem=[990, 1092],
        mem_phases="166cedba5a702775", series="54f2933fa48bf5ae"),
    "ring|0.01|avg|serial": dict(
        colors="acc6d786a010474e", rounds=3, conflicts=52, work=1193,
        depth=19, round_log="400c2d9f2b45e349",
        snapshot="347e13d2268eb13b", mem=[360, 580],
        mem_phases="b4d53f24531016d4", series="9e68a41bd27fd6be"),
    "empty|0.01|avg|serial": dict(
        colors="e3b0c44298fc1c14", rounds=0, conflicts=0, work=0,
        depth=0, round_log="4f53cda18c2baa0c",
        snapshot="9e17aba66997d7af", mem=[0, 0],
        mem_phases="4f53cda18c2baa0c", series="44136fa355b3678a"),
    "isolated|0.01|avg|serial": dict(
        colors="e9c6255ab16843c4", rounds=3, conflicts=0, work=72,
        depth=19, round_log="92b37b6496dd9622",
        snapshot="5cfec4c151c40bed", mem=[6, 39],
        mem_phases="e69039de188b2631", series="da69f003b685ef2e"),
    "kron|0.1|median|serial": dict(
        colors="c6aa383c16151f0c", rounds=25, conflicts=71, work=18374,
        depth=299, round_log="09564ac1f73939d1",
        snapshot="9a9198761efca96a", mem=[6644, 7793],
        mem_phases="ae0352fd58795c96", series="0fa7f557962ca001"),
    "kron|1.0|avg|serial": dict(
        colors="8ca21f8a0dba31cb", rounds=20, conflicts=392, work=57560,
        depth=285, round_log="f964c8a75c6ab709",
        snapshot="71ad6eca31ecdd80", mem=[18070, 35019],
        mem_phases="293abfe7b1a48982", series="277ea935d5a94128"),
    "gnm|0.1|avg|serial": dict(
        colors="e9db087ebf46fbf3", rounds=15, conflicts=141, work=12766,
        depth=141, round_log="af973579bac73c1f",
        snapshot="ca8b813ce173879b", mem=[4657, 5358],
        mem_phases="08687405c4faf396", series="36690a7a7739411f"),
    "kron|0.01|avg|threaded": dict(
        colors="310333d165c03ebd", rounds=21, conflicts=120, work=22939,
        depth=240, round_log="884b47cc69a251b9",
        snapshot="801c12bda8eefc0a", mem=[7571, 11193],
        mem_phases="1467a26f4d28fc95", series="afc9865aaf6f251f"),
    "gnm|1.0|median|threaded": dict(
        colors="e826ec612b90631b", rounds=17, conflicts=87, work=11575,
        depth=165, round_log="4cf560e68e2486eb",
        snapshot="d8b8973168277875", mem=[4115, 4796],
        mem_phases="a8dc9302f3de447e", series="f4d99ec59eeac5fc"),
}


# Recorded from the ITR baselines' own NumPy rounds (seed 0); key
# "algorithm|graph".
GOLDEN_ITR = {
    "ITR|kron": dict(
        colors="6191c0af644ffe5d", rounds=19, conflicts=1095, work=84694,
        depth=312, round_log="0bc965e90dabb979",
        snapshot="2ba4878100b7725b", mem=[81480, 0],
        mem_phases="b6ca9f45018e6c35"),
    "ITR|gnm": dict(
        colors="accaae10e59f4d54", rounds=8, conflicts=904, work=24590,
        depth=94, round_log="a0356883e258b93e",
        snapshot="0468290f629694c9", mem=[21982, 0],
        mem_phases="9ebc8991ac475ecb"),
    "ITR|ba": dict(
        colors="8fa60b6eb2866533", rounds=7, conflicts=512, work=12730,
        depth=94, round_log="67b5354868468fec",
        snapshot="58012d5e7633e0ee", mem=[11106, 0],
        mem_phases="5ad88470f1c56b86"),
    "ITR|grid": dict(
        colors="af18c4b7ecc3f667", rounds=4, conflicts=297, work=5278,
        depth=24, round_log="782ed3d2cc2b985f",
        snapshot="4b37505b7f3aff07", mem=[4174, 0],
        mem_phases="0a788200350adab8"),
    "ITR|clique": dict(
        colors="994bddf006a5c20f", rounds=12, conflicts=66, work=1872,
        depth=120, round_log="3436f306acf0725c",
        snapshot="9607b34fa238f370", mem=[1716, 0],
        mem_phases="43eb75abf1324e56"),
    "ITR|ring": dict(
        colors="acc6d786a010474e", rounds=3, conflicts=52, work=696,
        depth=12, round_log="18cc70dd0ebba780",
        snapshot="5dd4b26e7427f296", mem=[464, 0],
        mem_phases="b7514a014ef4107e"),
    "ITR|empty": dict(
        colors="e3b0c44298fc1c14", rounds=0, conflicts=0, work=0,
        depth=0, round_log="4f53cda18c2baa0c",
        snapshot="9e17aba66997d7af", mem=[0, 0],
        mem_phases="4f53cda18c2baa0c"),
    "ITR|isolated": dict(
        colors="1269a18cc92f8506", rounds=2, conflicts=2, work=48,
        depth=12, round_log="4addc048601c0daf",
        snapshot="84cbc295d1618fb2", mem=[20, 0],
        mem_phases="35fcff61b0f39a24"),
    "ITR-ASL|kron": dict(
        colors="8aae01a13904844d", rounds=15, conflicts=1438, work=79496,
        depth=238, round_log="419a68d8fc2f134d",
        snapshot="0d99f75ddddf9754", mem=[75596, 0],
        mem_phases="146b2d98b0798145"),
    "ITR-ASL|gnm": dict(
        colors="22b1e69d9afaf6b2", rounds=11, conflicts=1853, work=38788,
        depth=116, round_log="e1dba362d8cd167e",
        snapshot="677889d45e559a45", mem=[34282, 0],
        mem_phases="38acfae7f5080a61"),
    "ITR-ASL|ba": dict(
        colors="9c0201a790e5ad31", rounds=7, conflicts=946, work=15902,
        depth=84, round_log="2705b3ffc9d88856",
        snapshot="f5cd8069b69bee34", mem=[13410, 0],
        mem_phases="2f4536bcf8bd0b49"),
    "ITR-ASL|grid": dict(
        colors="167fcc599c69a8ad", rounds=9, conflicts=1080, work=12454,
        depth=52, round_log="710bd433b665c84a",
        snapshot="246b99bcb1753eee", mem=[9784, 0],
        mem_phases="3b2839577230842b"),
    "ITR-ASL|clique": dict(
        colors="994bddf006a5c20f", rounds=12, conflicts=66, work=1872,
        depth=120, round_log="3436f306acf0725c",
        snapshot="9607b34fa238f370", mem=[1716, 0],
        mem_phases="43eb75abf1324e56"),
    "ITR-ASL|ring": dict(
        colors="acc6d786a010474e", rounds=3, conflicts=52, work=696,
        depth=12, round_log="18cc70dd0ebba780",
        snapshot="5dd4b26e7427f296", mem=[464, 0],
        mem_phases="b7514a014ef4107e"),
    "ITR-ASL|empty": dict(
        colors="e3b0c44298fc1c14", rounds=0, conflicts=0, work=0,
        depth=0, round_log="4f53cda18c2baa0c",
        snapshot="9e17aba66997d7af", mem=[0, 0],
        mem_phases="4f53cda18c2baa0c"),
    "ITR-ASL|isolated": dict(
        colors="e9c6255ab16843c4", rounds=2, conflicts=3, work=48,
        depth=10, round_log="eb4c487500f1d559",
        snapshot="a0d031e7e5c12f2d", mem=[18, 0],
        mem_phases="1deda3a9be8e335b"),
}
ITR_FNS = {"ITR": itr, "ITR-ASL": itr_asl}


def itr_fingerprint(algorithm: str, graph: str) -> dict:
    """An ITR or ITR-ASL run's books, arrays and logs as digests."""
    res = ITR_FNS[algorithm](GRAPHS[graph](), seed=0)
    return {"colors": _digest(res.colors), "rounds": res.rounds,
            "conflicts": res.conflicts_resolved, "work": res.cost.work,
            "depth": res.cost.depth,
            "round_log": _digest(res.cost.round_log),
            "snapshot": _digest(res.cost.snapshot()),
            "mem": [res.mem.random, res.mem.sequential],
            "mem_phases": _digest(sorted(res.mem.by_phase.items()))}


@pytest.fixture
def numpy_path(hide_c):
    """Force the NumPy rounds for the duration of one test."""
    hide_c("repro_itr_levels")


def interior(g, levels, num_levels, priority) -> tuple:
    """One serial ``itr_color_partitions`` call and all it books."""
    with ExecutionContext(backend="serial", trace=Tracer()) as ctx:
        colors, rounds, conflicts = itr_color_partitions(
            g, levels, num_levels, priority, ctx)
    series = {n: ctx.tracer.metrics.series(n) for n in SERIES
              if n in ctx.tracer.metrics}
    return (colors.tolist(), rounds, conflicts, ctx.cost.snapshot(),
            ctx.cost.round_log, ctx.mem.by_phase, series)


def _split(key: str) -> tuple:
    graph, eps, variant, backend = key.split("|")
    return graph, float(eps), variant, backend


class TestPinnedBooks:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_path(self, key):
        graph, eps, variant, backend = _split(key)
        got = fingerprint(GRAPHS[graph](), eps, variant, backend)
        assert got == GOLDEN[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_numpy_path(self, key, numpy_path):
        graph, eps, variant, backend = _split(key)
        got = fingerprint(GRAPHS[graph](), eps, variant, backend)
        assert got == GOLDEN[key]


class TestPinnedITRBaselines:
    """ITR and ITR-ASL are the pass on one level, their books replayed."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_ITR))
    def test_default_path(self, key):
        assert itr_fingerprint(*key.split("|")) == GOLDEN_ITR[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN_ITR))
    def test_numpy_path(self, key, numpy_path):
        assert itr_fingerprint(*key.split("|")) == GOLDEN_ITR[key]

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("algorithm", sorted(ITR_FNS))
    def test_round_limit_names_itr(self, algorithm, path, hide_c):
        if path == "numpy":
            hide_c("repro_itr_levels")
        else:
            require_c()
        with pytest.raises(RuntimeError, match="^ITR failed to converge$"):
            ITR_FNS[algorithm](complete_graph(16), seed=0, max_rounds=1)


CONFIGS = [(0.01, "avg"), (0.1, "avg"), (1.0, "avg"), (0.1, "median")]


class TestCAndNumpyAgree:
    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    @pytest.mark.parametrize("eps,variant", CONFIGS)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_engine_books(self, graph, eps, variant, backend):
        g = GRAPHS[graph]()
        _assert_same_run(*both_paths(lambda: run(g, eps, variant, backend)))

    @given(graphs(max_n=40, max_m=160), st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_and_levels(self, g, num_levels, rnd):
        """Any level assignment and priority permutation, not only ADG's."""
        levels = np.asarray([rnd.randint(1, num_levels) for _ in range(g.n)],
                            dtype=np.int64)
        priority = np.asarray(rnd.sample(range(3 * g.n), g.n),
                              dtype=np.int64)
        compiled, oracle = both_paths(
            lambda: interior(g, levels, num_levels, priority))
        assert compiled == oracle
        assert is_valid_coloring(g, np.asarray(compiled[0], dtype=np.int64))

    def test_incremental_full_recompute(self):
        g = kronecker(scale=10, edge_factor=8, seed=4)

        def recompute():
            with ExecutionContext(backend="serial", trace=Tracer()) as ctx:
                inc = IncrementalColoring(g, "DEC-ADG-ITR", eps=0.1, ctx=ctx)
                return (inc.colors.tolist(), ctx.cost.snapshot(),
                        ctx.cost.round_log, ctx.mem.total,
                        ctx.tracer.metrics.series("dec-itr.active"))

        compiled, oracle = both_paths(recompute)
        assert compiled == oracle
        np.testing.assert_array_equal(
            np.asarray(compiled[0]), dec_adg_itr(g, eps=0.1, seed=0).colors)


class TestPassEdges:
    """Partitions at the ends of the compiled pass's scratch and rounds:
    both paths agree on everything :func:`interior` returns."""

    def _agree(self, g, levels, num_levels, seed=0) -> tuple:
        levels = np.asarray(levels, dtype=np.int64)
        priority = random_tiebreak(g.n, seed)
        compiled, oracle = both_paths(lambda: interior(
            g, levels, num_levels, priority))
        assert compiled == oracle
        assert is_valid_coloring(g, np.asarray(compiled[0], dtype=np.int64))
        return compiled

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_clique_top_level_runs_many_rounds(self, seed):
        """K_60 less the edges (i, i + 1), i a multiple of 8, on level 2
        over a level-1 tail: each top round commits one or two winners."""
        k, tail = 60, 30
        src, dst = np.triu_indices(k, 1)
        keep = (dst - src != 1) | (src % 8 != 0)
        t = np.arange(k, k + tail)
        g = from_edges(np.concatenate([src[keep], t, t, t[1:]]),
                       np.concatenate([dst[keep], t % k, (7 * t) % k,
                                       t[:-1]]), n=k + tail)
        out = self._agree(g, [2] * k + [1] * tail, 2, seed)
        # Round numbers restart at 1 with the level-1 partition.
        colored = out[6]["dec-itr.colored"]
        rounds = next(i for i, (r, _) in enumerate(colored) if i and r == 1)
        assert rounds >= 50
        assert all(1 <= c <= 2 for _, c in colored[:rounds])

    def test_every_row_in_the_partition(self):
        """One level, so the in-partition CSR fills its whole scratch."""
        g = complete_graph(33)
        out = self._agree(g, np.ones(g.n), 1)
        assert out[1] == g.n and sorted(out[0]) == list(range(1, g.n + 1))

    @pytest.mark.parametrize("leaves", [1, 2, 40])
    def test_every_row_above_the_partition(self, leaves):
        """A star's center alone on level 2: every leaf row is one
        higher-level neighbor, so the color buffer fills its whole
        scratch, and the center's row is all below its partition."""
        g = star(leaves)
        levels = np.ones(g.n)
        levels[0] = 2
        out = self._agree(g, levels, 2)
        assert out[0] == [1] + [2] * leaves
        assert out[1:3] == (2, 0)


class TestNoDispatch:
    def test_itr_kernels_are_gone(self):
        # The kernel registry itself is gone: rounds are direct calls.
        import importlib.util

        assert importlib.util.find_spec("repro.runtime.kernels") is None


class TestCBoundary:
    def _check(self, g, ordered=None):
        order = adg_ordering(ordered or g, eps=0.01, seed=0)
        priority = random_tiebreak(g.n, 0)
        compiled, oracle = both_paths(lambda: interior(
            g, order.levels, order.num_levels, priority))
        assert compiled == oracle
        return compiled

    def test_int32_arrays(self):
        g = GRAPHS["gnm"]()
        g32 = CSRGraph(indptr=g.indptr.astype(np.int32),
                       indices=g.indices.astype(np.int32))
        # ADG itself takes int64 CSRs; the interior takes either.
        assert self._check(g32, ordered=g) == self._check(g)

    def test_read_only_memmap_from_the_ingest_cache(self, tmp_path):
        g, cached = warm_from_ingest_cache(gnm_random(20000, 80000, seed=9),
                                           tmp_path)
        assert self._check(cached) == self._check(g)

    def test_odd_offset_arrays(self):
        g = GRAPHS["gnm"]()
        odd = CSRGraph(indptr=misaligned(g.indptr),
                       indices=misaligned(g.indices))
        order = adg_ordering(g, eps=0.01, seed=0)
        priority = random_tiebreak(g.n, 0)
        compiled, oracle = both_paths(lambda: interior(
            odd, misaligned(order.levels), order.num_levels,
            misaligned(priority)))
        assert compiled == oracle
        assert compiled == interior(g, order.levels, order.num_levels,
                                    priority)

    @pytest.mark.parametrize("bad", [
        "short_indptr", "indptr_past_end", "falling_indptr",
        "vertex_out_of_range", "negative_vertex", "short_levels",
        "int32_levels", "float_priority", "long_priority", "2d_levels",
        "level_zero", "level_above_num_levels"])
    def test_malformed_inputs_never_reach_c(self, bad, c_calls):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        levels = np.array([1, 1], dtype=np.int64)
        priority = np.array([0, 1], dtype=np.int64)
        if bad == "short_indptr":
            indptr = np.array([0, 1])
        elif bad == "indptr_past_end":
            indptr = np.array([0, 1, 3])
        elif bad == "falling_indptr":
            indptr = np.array([0, 2, 1, 2])
            levels = priority = np.array([1, 1, 1], dtype=np.int64)
        elif bad == "vertex_out_of_range":
            indices = np.array([1, 2])
        elif bad == "negative_vertex":
            indices = np.array([1, -1])
        elif bad == "short_levels":
            levels = levels[:1]
        elif bad == "int32_levels":
            levels = levels.astype(np.int32)
        elif bad == "float_priority":
            priority = priority.astype(np.float64)
        elif bad == "long_priority":
            priority = np.arange(3, dtype=np.int64)
        elif bad == "level_zero":
            levels = np.array([1, 0], dtype=np.int64)
        elif bad == "level_above_num_levels":
            levels = np.array([2, 1], dtype=np.int64)
        else:
            levels = levels.reshape(1, 2)
        g = CSRGraph(indptr=indptr, indices=indices)
        with pytest.raises(ValueError):
            itr_color_partitions(g, levels, 1, priority,
                                 ExecutionContext(backend="serial"))
        assert c_calls == []

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("max_rounds", [0, 1, -3])
    def test_round_limit_raises(self, path, max_rounds, hide_c):
        if path == "numpy":
            hide_c("repro_itr_levels")
        else:
            require_c()
        g = complete_graph(20)
        with pytest.raises(RuntimeError,
                           match="^DEC-ADG-ITR failed to converge$"):
            dec_adg_itr(g, seed=0, max_rounds=max_rounds)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_round_limit_that_suffices(self, path, hide_c):
        if path == "numpy":
            hide_c("repro_itr_levels")
        else:
            require_c()
        g = GRAPHS["kron"]()
        assert dec_adg_itr(g, seed=0, max_rounds=25).rounds == \
            GOLDEN["kron|0.01|avg|serial"]["rounds"]

    @staticmethod
    def _limited(path: str, body: str, env: dict | None = None) -> str:
        """Run ``body`` in a fresh interpreter on ``path``, where
        ``limit(headroom)`` caps the address space at its current size
        plus ``headroom`` bytes; returns its stdout."""
        if path == "compiled":
            require_c()
        script = textwrap.dedent(f"""
            import resource, sys
            import numpy as np
            from repro.coloring.dec_adg_itr import itr_color_partitions
            from repro.coloring.speculative import itr
            from repro.coloring.verify import is_valid_coloring
            from repro.graphs.generators import star
            from repro.runtime import ExecutionContext
            from repro.primitives import cbuild
            entry = cbuild.entry
            if {path!r} == "numpy":
                cbuild.entry = lambda name: (None if name == "repro_itr_levels"
                                             else entry(name))
            itr_c = cbuild.entry("repro_itr_levels")
            assert (itr_c is None) == ({path!r} == "numpy")

            def limit(headroom):
                with open("/proc/self/statm") as fh:
                    vm = int(fh.read().split()[0]) * resource.getpagesize()
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                resource.setrlimit(resource.RLIMIT_AS, (vm + headroom, hard))
        """) + textwrap.dedent(body)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=None if env is None else {**os.environ,
                                                            **env})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_one_level_star_colors_under_512_mb(self, path):
        """A star in one partition: each B_v row is sized by its own
        deg_l, so neither path allocates n x (max deg_l + 3) (~2 GB
        here) and both color it within 512 MB, as ITR does."""
        out = self._limited(path, """
            g = star(45000)
            levels = np.ones(g.n, dtype=np.int64)
            priority = np.arange(g.n, dtype=np.int64)
            limit(512 << 20)
            colors, rounds, _ = itr_color_partitions(
                g, levels, 1, priority, ExecutionContext(backend="serial"))
            res = itr(g, seed=0)
            print(is_valid_coloring(g, colors), colors.max(),
                  is_valid_coloring(g, res.colors), res.num_colors)
        """)
        assert out == "True 2 True 2"

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_limit_too_tight_for_the_scratch_raises_memory_error(self, path):
        """With no room even for the pass's scratch the allocation must
        fail as a ``MemoryError``, not crash the process."""
        out = self._limited(path, """
            g = star(200000)
            levels = np.ones(g.n, dtype=np.int64)
            priority = np.arange(g.n, dtype=np.int64)
            ctx = ExecutionContext(backend="serial")
            limit(1 << 20)
            try:
                itr_color_partitions(g, levels, 1, priority, ctx)
            except MemoryError:
                print("MemoryError")
        """)
        assert out == "MemoryError"

    def test_failed_bitmap_calloc_raises_memory_error(self):
        """The scratch fits and only the bitmap does not: the pass
        returns -2, raised as a ``MemoryError`` in the engine's name.
        glibc maps every block of 64 KiB or more, and the ~2 MB bitmap
        is larger than all the free heap space (under 1 MB after the
        imports), so it cannot come from there either."""
        out = self._limited("compiled", """
            def capped(*args):
                soft, hard = resource.getrlimit(resource.RLIMIT_AS)
                limit(0)
                try:
                    return itr_c(*args)
                finally:
                    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

            cbuild.entry = lambda name: (capped if name == "repro_itr_levels"
                                         else entry(name))
            g = star(500000)
            levels = np.ones(g.n, dtype=np.int64)
            priority = np.arange(g.n, dtype=np.int64)
            ctx = ExecutionContext(backend="serial")
            for run in (lambda: itr_color_partitions(g, levels, 1, priority,
                                                     ctx),
                        lambda: itr(g, seed=0)):
                try:
                    run()
                except MemoryError as exc:
                    print(exc)
        """, env={"MALLOC_MMAP_THRESHOLD_": "65536"})
        assert out.splitlines() == ["DEC-ADG-ITR bitmap allocation failed",
                                    "ITR bitmap allocation failed"]


class TestFallback:
    """A failed build (each way ``test_cbuild`` covers) leaves DEC-ADG-ITR
    on the NumPy rounds, with the pinned books."""

    @pytest.fixture
    def numpy_calls(self, monkeypatch):
        calls = []
        real = itr_mod._levels_numpy

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(itr_mod, "_levels_numpy", spy)
        return calls

    def _check(self, numpy_calls):
        key = "kron|0.01|avg|serial"
        assert fingerprint(GRAPHS["kron"]()) == GOLDEN[key]
        assert numpy_calls == [1]

    def test_no_compiler_on_path(self, broken_build, numpy_calls):
        broken_build("no_compiler")
        self._check(numpy_calls)

    def test_library_load_returns_none(self, monkeypatch, numpy_calls):
        monkeypatch.setattr(cbuild, "load", lambda: None)
        self._check(numpy_calls)

    def test_source_that_does_not_compile(self, broken_build, numpy_calls):
        broken_build("bad_source")
        self._check(numpy_calls)
