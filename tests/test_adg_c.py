"""The compiled level peel: C/NumPy agreement, C boundary, fallback.

The NumPy loop (``adg._adg_numpy``) is the oracle: for every threshold
rule (ADG's avg, ADG-M's median, ASL's min, SLL's doubling) and every
variant the compiled pass covers (push or pull; plain, sorted or
sorted with fused ranks; cached or re-reduced degree sums; every sort
method) it must give the same levels, ranks, fused predecessor counts,
number of levels, cost snapshot, round log, memory books and ``adg.*``
tracer series.  ``tests/test_adg_sweep.py`` pins both paths to the recorded
books.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.jp import jp_adg, jp_adg_fused
from repro.graphs import CSRGraph
from repro.graphs.builders import empty_graph, from_edges
from repro.graphs.generators import (
    chung_lu,
    complete_graph,
    gnm_random,
    kronecker,
    path_graph,
    ring,
    star,
)
from repro.obs import Tracer
from repro.ordering import adg
from repro.ordering.adg import adg_ordering, asl_ordering, sll_ordering
from repro.ordering.registry import get_ordering
from repro.primitives import cbuild
from repro.runtime import ExecutionContext

from .conftest import (both_paths, concurrently, graphs, misaligned,
                       require_c, warm_from_ingest_cache)
from .test_adg_sweep import GOLDEN, PIN_GRAPHS, fingerprint
from .test_adg_sweep import VARIANTS as PIN_VARIANTS

GRAPHS = {
    "kron": lambda: kronecker(scale=9, edge_factor=8, seed=3),
    "chung": lambda: chung_lu(400, 2000, seed=11),
    "empty": lambda: empty_graph(0),
    "isolated": lambda: from_edges([0, 3, 3], [3, 4, 7], n=12),
    "edgeless": lambda: empty_graph(9),
    "clique": lambda: complete_graph(12),
    "k8": lambda: complete_graph(8),   # SLL doubles 1 -> 8 before round 1
    "path": lambda: path_graph(20),    # ASL peels from both ends inward
    "star": lambda: star(40),
    "ring": lambda: ring(64),
}
SERIES = ("adg.batch", "adg.remaining")

#: Every configuration the compiled pass runs: name -> keywords.
VARIANTS = {}
for _update in ("push", "pull"):
    for _sort in ("plain", "sort", "sort+ranks"):
        if _sort == "sort+ranks" and _update == "pull":
            continue
        for _cache in (True, False):
            for _method in (("counting",) if _sort == "plain"
                            else ("counting", "radix", "quick")):
                VARIANTS["|".join([_update, _sort, _method]
                                  + ([] if _cache else ["nocache"]))] = dict(
                    update=_update, sort_batches=_sort != "plain",
                    compute_ranks=_sort == "sort+ranks",
                    cache_degree_sums=_cache, sort_method=_method)


#: Each threshold rule -> the ordering it gives.
PEELS = {"avg": "ADG", "median": "ADG-M", "min": "ASL", "doubling": "SLL"}

#: The rules besides avg, each with the configurations it runs:
#: ADG-M every variant (its degree sums are never cached or
#: re-reduced), ASL and SLL their one.
RULES = {f"median|{name}": dict(variant="median", **kw)
         for name, kw in VARIANTS.items() if kw["cache_degree_sums"]}
RULES.update(min={}, doubling={})


def books(g, eps=0.1, rule="avg", **kwargs) -> dict:
    """Everything one traced ``rule`` peel (``adg_ordering``, or
    ``asl_ordering``/``sll_ordering`` for min/doubling) returns and
    books."""
    with ExecutionContext(backend="serial", trace=Tracer()) as ctx:
        if rule == "min":
            order = asl_ordering(g, seed=0, ctx=ctx)
        elif rule == "doubling":
            order = sll_ordering(g, seed=0, ctx=ctx)
        else:
            order = adg_ordering(g, eps=eps, seed=0, ctx=ctx, **kwargs)
        metrics = ctx.tracer.metrics
        series = {n: metrics.series(n) for n in SERIES if n in metrics}
    return {"levels": order.levels.tolist(), "ranks": order.ranks.tolist(),
            "pred_counts": None if order.pred_counts is None
            else order.pred_counts.tolist(),
            "num_levels": order.num_levels, "name": order.name,
            "tiebreak": None if order.tiebreak is None
            else order.tiebreak.tolist(),
            "snapshot": order.cost.snapshot(),
            "round_log": order.cost.round_log,
            "mem": [order.mem.random, order.mem.sequential,
                    sorted(order.mem.by_phase.items())],
            "series": series}


class TestCAndNumpyAgree:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_fixed_graphs(self, graph, variant):
        g = GRAPHS[graph]()
        compiled, oracle = both_paths(
            lambda: books(g, **VARIANTS[variant]))
        assert compiled == oracle

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_every_rule(self, graph, rule):
        g = GRAPHS[graph]()
        kwargs = RULES[rule]
        compiled, oracle = both_paths(lambda: books(
            g, rule=rule.split("|")[0], **kwargs))
        assert compiled == oracle

    def test_sll_doubles_past_the_minimum_degree(self):
        # K8's live minimum is 7: the threshold doubles 1 -> 2 -> 4 -> 8,
        # three uncounted rounds, then one round removes every vertex;
        # each of the four scans all eight.
        compiled, oracle = both_paths(
            lambda: books(GRAPHS["k8"](), rule="doubling"))
        assert compiled == oracle
        assert compiled["num_levels"] == 1
        assert compiled["round_log"] == [("order:sll", 8, 1)] * 4

    @pytest.mark.parametrize("eps", [0.0, 0.01, 1.0, 7.5])
    @pytest.mark.parametrize("variant", ["push|plain|counting",
                                         "pull|sort|quick",
                                         "push|sort+ranks|radix"])
    def test_eps_values(self, eps, variant):
        g = kronecker(scale=10, edge_factor=8, seed=1)
        compiled, oracle = both_paths(
            lambda: books(g, eps=eps, **VARIANTS[variant]))
        assert compiled == oracle

    @given(graphs(max_n=40, max_m=160), st.sampled_from(sorted(VARIANTS)),
           st.sampled_from([0.0, 0.01, 0.5, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g, variant, eps):
        compiled, oracle = both_paths(
            lambda: books(g, eps=eps, **VARIANTS[variant]))
        assert compiled == oracle

    @given(graphs(max_n=40, max_m=160), st.sampled_from(sorted(RULES)))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_every_rule(self, g, rule):
        compiled, oracle = both_paths(
            lambda: books(g, rule=rule.split("|")[0], **RULES[rule]))
        assert compiled == oracle

    def test_colorings_that_use_it(self):
        g = kronecker(scale=10, edge_factor=8, seed=2)

        def run():
            return [jp_adg(g, seed=3).colors.tolist(),
                    jp_adg_fused(g, seed=3).colors.tolist(),
                    dec_adg_itr(g, seed=3).colors.tolist()]

        compiled, oracle = both_paths(run)
        assert compiled == oracle

    @pytest.mark.parametrize("rule", sorted(PEELS))
    def test_every_rule_reaches_c(self, rule, c_calls):
        # The recorder returns no iteration count, so the ordering stops
        # right after the one call it records.
        with pytest.raises(TypeError):
            get_ordering(PEELS[rule], GRAPHS["kron"]())
        [(entry, args)] = c_calls
        assert entry == "repro_adg"
        assert args[3] == adg.RULES[rule]


class TestNoProgressInvariant:
    """An infinite eps on an edgeless graph makes the threshold
    (1 + inf) * 0 = NaN, so no vertex is selected: both paths raise."""

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_raises(self, path, cache, hide_c):
        if path == "numpy":
            hide_c("repro_adg")
        else:
            require_c()
        with pytest.raises(RuntimeError, match="no progress"):
            adg_ordering(empty_graph(5), eps=float("inf"),
                         cache_degree_sums=cache)


class TestCBoundary:
    def _check(self, g, ref=None):
        compiled, oracle = both_paths(lambda: books(g, eps=0.01))
        assert compiled == oracle
        if ref is not None:
            assert compiled == books(ref, eps=0.01)

    def test_int32_arrays(self):
        g = gnm_random(400, 1600, seed=5)
        g32 = CSRGraph(indptr=g.indptr.astype(np.int32),
                       indices=g.indices.astype(np.int32))
        self._check(g32, ref=g)

    def test_odd_offset_arrays(self):
        g = GRAPHS["kron"]()
        odd = CSRGraph(indptr=misaligned(g.indptr),
                       indices=misaligned(g.indices))
        self._check(odd, ref=g)

    def test_read_only_memmap_from_the_ingest_cache(self, tmp_path):
        g, cached = warm_from_ingest_cache(gnm_random(20000, 80000, seed=9),
                                           tmp_path)
        self._check(cached, ref=g)

    @pytest.mark.parametrize("bad", [
        "short_indptr", "indptr_past_end", "falling_indptr",
        "nonzero_start", "vertex_out_of_range", "negative_vertex"])
    @pytest.mark.parametrize("rule", ["avg", "median", "min", "doubling"])
    def test_malformed_csr_never_reaches_c(self, bad, rule, c_calls):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        if bad == "short_indptr":
            indptr = np.array([0, 2])
        elif bad == "indptr_past_end":
            indptr = np.array([0, 1, 3])
        elif bad == "falling_indptr":
            indptr = np.array([0, 2, 1, 2])
        elif bad == "nonzero_start":
            indptr = np.array([1, 1, 2])
        elif bad == "vertex_out_of_range":
            indices = np.array([1, 2])
        else:
            indices = np.array([1, -1])
        g = CSRGraph(indptr=indptr, indices=indices)
        with pytest.raises(ValueError):
            get_ordering(PEELS[rule], g)
        assert c_calls == []


class TestFallback:
    """A failed build (each way ``test_cbuild`` covers) leaves ADG on the
    NumPy loop, with the pinned books."""

    @pytest.fixture
    def numpy_calls(self, monkeypatch):
        calls = []
        real = adg._adg_numpy

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(adg, "_adg_numpy", spy)
        return calls

    @staticmethod
    def _order():
        return adg_ordering(PIN_GRAPHS["kron"](), eps=0.1, seed=0,
                            **PIN_VARIANTS["avg|push|sort+ranks"])

    def _check(self, numpy_calls):
        assert fingerprint(self._order()) == GOLDEN["kron|avg|push|sort+ranks"]
        assert numpy_calls == [1]

    def test_no_compiler_on_path(self, broken_build, numpy_calls):
        broken_build("no_compiler")
        self._check(numpy_calls)

    def test_build_command_fails(self, broken_build, numpy_calls):
        broken_build("cc_fails")
        self._check(numpy_calls)

    def test_source_that_does_not_compile(self, broken_build, numpy_calls):
        broken_build("bad_source")
        self._check(numpy_calls)

    def test_library_load_returns_none(self, monkeypatch, numpy_calls):
        monkeypatch.setattr(cbuild, "load", lambda: None)
        self._check(numpy_calls)

    def test_compiled_path_skips_the_numpy_loop(self, numpy_calls):
        require_c()
        adg_ordering(GRAPHS["kron"]())
        assert numpy_calls == []

    def test_concurrent_loaders_build_once(self, fresh_build):
        got = concurrently(lambda: fingerprint(self._order()))
        assert fresh_build == [1]
        assert got == [GOLDEN["kron|avg|push|sort+ranks"]] * len(got)
