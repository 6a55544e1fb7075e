"""DEC-ADG-ITR's level loop as one compiled pass: pinned books,
C/NumPy agreement, C boundary, fallback.

``GOLDEN`` holds what the chunked ITR rounds recorded for the
configurations below, captured from that engine before the compiled
pass replaced it: both paths must reproduce its colors, rounds,
conflicts, work, depth, round log, per-phase snapshot, memory books and
``dec-itr.*`` tracer series bit for bit.  The NumPy rounds are the
C path's oracle everywhere else.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.dec_adg_itr import dec_adg_itr, itr_color_partitions
from repro.coloring.incremental import IncrementalColoring
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
)
from repro.obs import Tracer
from repro.ordering.adg import adg_ordering
from repro.ordering.base import random_tiebreak
from repro.primitives import cbuild
from repro.runtime import ExecutionContext

from .conftest import graphs, misaligned

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
        mem_phases="574799dad84a9206", series="afc9865aaf6f251f"),
    "gnm|0.01|avg|serial": dict(
        colors="368d9d311dffe8ab", rounds=16, conflicts=125, work=12366,
        depth=151, round_log="1256908a4ed0f1fd",
        snapshot="fa9480229f891bb0", mem=[4504, 5132],
        mem_phases="1f4bf0241aca2556", series="30ef10268c653914"),
    "ba|0.01|avg|serial": dict(
        colors="6f4b6ac3efc4e72c", rounds=10, conflicts=63, work=6731,
        depth=100, round_log="2c4c50433e0d2294",
        snapshot="0ccf3d0097bf44ff", mem=[2239, 2865],
        mem_phases="a6616e97cd94cb8e", series="cd32e1cfda11029c"),
    "grid|0.01|avg|serial": dict(
        colors="163eb51c4daf051d", rounds=16, conflicts=46, work=4497,
        depth=114, round_log="d20c1da161762511",
        snapshot="52e164115a130d1e", mem=[1528, 1785],
        mem_phases="426f727f143de3d0", series="35a6e501ba6347de"),
    "clique|0.01|avg|serial": dict(
        colors="994bddf006a5c20f", rounds=12, conflicts=66, work=2238,
        depth=123, round_log="5301a08ebacb9af6",
        snapshot="62668309edc2860f", mem=[990, 1092],
        mem_phases="47fddeb4d6026afd", series="54f2933fa48bf5ae"),
    "ring|0.01|avg|serial": dict(
        colors="acc6d786a010474e", rounds=3, conflicts=52, work=1193,
        depth=19, round_log="400c2d9f2b45e349",
        snapshot="347e13d2268eb13b", mem=[360, 580],
        mem_phases="2d8f4ce3409a3176", series="9e68a41bd27fd6be"),
    "empty|0.01|avg|serial": dict(
        colors="e3b0c44298fc1c14", rounds=0, conflicts=0, work=0,
        depth=0, round_log="4f53cda18c2baa0c",
        snapshot="9e17aba66997d7af", mem=[0, 0],
        mem_phases="4f53cda18c2baa0c", series="44136fa355b3678a"),
    "isolated|0.01|avg|serial": dict(
        colors="e9c6255ab16843c4", rounds=3, conflicts=0, work=72,
        depth=19, round_log="92b37b6496dd9622",
        snapshot="5cfec4c151c40bed", mem=[6, 39],
        mem_phases="90595d4b53d19f26", series="da69f003b685ef2e"),
    "kron|0.1|median|serial": dict(
        colors="c6aa383c16151f0c", rounds=25, conflicts=71, work=18374,
        depth=299, round_log="09564ac1f73939d1",
        snapshot="9a9198761efca96a", mem=[6644, 7793],
        mem_phases="5e4daad47c24acdd", series="0fa7f557962ca001"),
    "kron|1.0|avg|serial": dict(
        colors="8ca21f8a0dba31cb", rounds=20, conflicts=392, work=57560,
        depth=285, round_log="f964c8a75c6ab709",
        snapshot="71ad6eca31ecdd80", mem=[18070, 35019],
        mem_phases="8114bb7b94b7d847", series="277ea935d5a94128"),
    "gnm|0.1|avg|serial": dict(
        colors="e9db087ebf46fbf3", rounds=15, conflicts=141, work=12766,
        depth=141, round_log="af973579bac73c1f",
        snapshot="ca8b813ce173879b", mem=[4657, 5358],
        mem_phases="3510fdf36463b28e", series="36690a7a7739411f"),
    "kron|0.01|avg|threaded": dict(
        colors="310333d165c03ebd", rounds=21, conflicts=120, work=22939,
        depth=240, round_log="884b47cc69a251b9",
        snapshot="801c12bda8eefc0a", mem=[7571, 11193],
        mem_phases="574799dad84a9206", series="afc9865aaf6f251f"),
    "gnm|1.0|median|threaded": dict(
        colors="e826ec612b90631b", rounds=17, conflicts=87, work=11575,
        depth=165, round_log="4cf560e68e2486eb",
        snapshot="d8b8973168277875", mem=[4115, 4796],
        mem_phases="4a70d54b6fb8490e", series="f4d99ec59eeac5fc"),
}


class _NoBuild:
    """Stands in for the compiled library when it cannot be built."""

    def load(self):
        return None


@pytest.fixture
def numpy_path(monkeypatch):
    """Force the NumPy rounds for the duration of one test."""
    monkeypatch.setattr(itr_mod, "_CITR", _NoBuild())


def _require_c():
    if itr_mod._CITR.load() is None:
        pytest.skip("no C compiler: the compiled ITR pass is unavailable")


def _both_paths(call) -> list:
    """``[call()]`` on the compiled pass, then on the NumPy rounds."""
    _require_c()
    out = [call()]
    real, itr_mod._CITR = itr_mod._CITR, _NoBuild()
    try:
        out.append(call())
    finally:
        itr_mod._CITR = real
    return out


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


CONFIGS = [(0.01, "avg"), (0.1, "avg"), (1.0, "avg"), (0.1, "median")]


class TestCAndNumpyAgree:
    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    @pytest.mark.parametrize("eps,variant", CONFIGS)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_engine_books(self, graph, eps, variant, backend):
        g = GRAPHS[graph]()
        _assert_same_run(*_both_paths(lambda: run(g, eps, variant, backend)))

    @given(graphs(max_n=40, max_m=160), st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_and_levels(self, g, num_levels, rnd):
        """Any level assignment and priority permutation, not only ADG's."""
        levels = np.asarray([rnd.randint(1, num_levels) for _ in range(g.n)],
                            dtype=np.int64)
        priority = np.asarray(rnd.sample(range(3 * g.n), g.n),
                              dtype=np.int64)
        compiled, oracle = _both_paths(
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

        compiled, oracle = _both_paths(recompute)
        assert compiled == oracle
        np.testing.assert_array_equal(
            np.asarray(compiled[0]), dec_adg_itr(g, eps=0.1, seed=0).colors)


class TestNoDispatch:
    def test_itr_kernels_are_gone(self):
        # The kernel registry itself is gone: rounds are direct calls.
        import importlib.util

        assert importlib.util.find_spec("repro.runtime.kernels") is None

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_interior_never_maps_chunks(self, path, monkeypatch):
        if path == "numpy":
            monkeypatch.setattr(itr_mod, "_CITR", _NoBuild())
        phases = []
        real = ExecutionContext.map_chunks

        def spy(self, fn, n):
            phases.append(self._phase_stack[-1][0])
            return real(self, fn, n)

        monkeypatch.setattr(ExecutionContext, "map_chunks", spy)
        with ExecutionContext(backend="threaded", workers=2) as ctx:
            dec_adg_itr(GRAPHS["kron"](), seed=0, ctx=ctx)
        assert phases and "dec-itr:color" not in phases


class TestCBoundary:
    def _check(self, g, ordered=None):
        order = adg_ordering(ordered or g, eps=0.01, seed=0)
        priority = random_tiebreak(g.n, 0)
        compiled, oracle = _both_paths(lambda: interior(
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
        from repro.graphs.ingest import _load_cached

        # Members of 1 MiB and up are mapped, not read.
        g = gnm_random(20000, 80000, seed=9)
        path = tmp_path / "g.npz"
        np.savez(path, indptr=g.indptr, indices=g.indices,
                 name=np.array("gnm"))
        cached = _load_cached(str(path), None)
        assert isinstance(cached.indices.base, np.memmap)
        assert not cached.indices.flags.writeable
        assert self._check(cached) == self._check(g)

    def test_odd_offset_arrays(self):
        g = GRAPHS["gnm"]()
        odd = CSRGraph(indptr=misaligned(g.indptr),
                       indices=misaligned(g.indices))
        order = adg_ordering(g, eps=0.01, seed=0)
        priority = random_tiebreak(g.n, 0)
        compiled, oracle = _both_paths(lambda: interior(
            odd, misaligned(order.levels), order.num_levels,
            misaligned(priority)))
        assert compiled == oracle
        assert compiled == interior(g, order.levels, order.num_levels,
                                    priority)

    @pytest.mark.parametrize("bad", [
        "short_indptr", "indptr_past_end", "falling_indptr",
        "vertex_out_of_range", "negative_vertex", "short_levels",
        "int32_levels", "float_priority", "long_priority", "2d_levels"])
    def test_malformed_inputs_never_reach_c(self, bad, monkeypatch):
        calls = []

        class Recorder:
            def load(self):
                return lambda *args: calls.append(args)

        monkeypatch.setattr(itr_mod, "_CITR", Recorder())
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
        else:
            levels = levels.reshape(1, 2)
        g = CSRGraph(indptr=indptr, indices=indices)
        with pytest.raises(ValueError):
            itr_color_partitions(g, levels, 1, priority,
                                 ExecutionContext(backend="serial"))
        assert calls == []

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("max_rounds", [0, 1, -3])
    def test_round_limit_raises(self, path, max_rounds, monkeypatch):
        if path == "numpy":
            monkeypatch.setattr(itr_mod, "_CITR", _NoBuild())
        else:
            _require_c()
        g = complete_graph(20)
        with pytest.raises(RuntimeError, match="failed to converge"):
            dec_adg_itr(g, seed=0, max_rounds=max_rounds)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_round_limit_that_suffices(self, path, monkeypatch):
        if path == "numpy":
            monkeypatch.setattr(itr_mod, "_CITR", _NoBuild())
        else:
            _require_c()
        g = GRAPHS["kron"]()
        assert dec_adg_itr(g, seed=0, max_rounds=25).rounds == \
            GOLDEN["kron|0.01|avg|serial"]["rounds"]

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_failed_bitmap_allocation_raises_memory_error(self, path):
        """A star in one partition needs an n x n bitmap (~2 GB here);
        under a small address-space limit the allocation must fail as
        a ``MemoryError``, not crash the process."""
        if path == "compiled":
            _require_c()
        script = textwrap.dedent(f"""
            import resource, sys
            import numpy as np
            from repro.coloring.dec_adg_itr import itr_color_partitions
            from repro.graphs.generators import star
            from repro.runtime import ExecutionContext
            mod = sys.modules["repro.coloring.dec_adg_itr"]
            if {path!r} == "numpy":
                mod._CITR.load = lambda: None
            assert (mod._CITR.load() is None) == ({path!r} == "numpy")
            g = star(45000)
            levels = np.ones(g.n, dtype=np.int64)
            priority = np.arange(g.n, dtype=np.int64)
            with open("/proc/self/statm") as fh:
                vm = int(fh.read().split()[0]) * resource.getpagesize()
            limit = vm + (512 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            try:
                itr_color_partitions(g, levels, 1, priority,
                                     ExecutionContext(backend="serial"))
            except MemoryError:
                print("MemoryError")
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "MemoryError"


class TestFallback:
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

    def test_no_compiler_on_path(self, monkeypatch, tmp_path, numpy_calls):
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
        monkeypatch.setattr(itr_mod, "_CITR", cbuild.CLibrary(
            "itrlevels", itr_mod._C_SOURCE, itr_mod._bind))
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        assert itr_mod._CITR.load() is None
        self._check(numpy_calls)

    def test_library_load_returns_none(self, monkeypatch, numpy_calls):
        monkeypatch.setattr(cbuild.CLibrary, "load", lambda self: None)
        self._check(numpy_calls)

    def test_source_that_does_not_compile(self, monkeypatch, tmp_path,
                                          numpy_calls):
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
        monkeypatch.setattr(itr_mod, "_CITR", cbuild.CLibrary(
            "itrlevels", "this is not C;\n", itr_mod._bind))
        assert itr_mod._CITR.load() is None
        self._check(numpy_calls)
