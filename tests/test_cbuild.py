"""The one compiled library: its binding table, build, cache and fallback.

:mod:`repro.primitives.cbuild` compiles every ``csrc/*.c`` into one
shared object in one compiler call.  A build that fails -- any way --
leaves every pass on its Python/NumPy fallback, which must give the
compiled passes' outputs and books.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.sweep import rank_sweep
from repro.coloring.verify import conflicting_edges, is_valid_coloring
from repro.graphs.generators import kronecker
from repro.graphs.ingest import ingest_report
from repro.graphs.io import write_edge_list
from repro.graphs.properties import peel_degeneracy
from repro.ordering.adg import adg_ordering
from repro.primitives import cbuild

from .conftest import BUILD_FAILURES, both_paths, concurrently, require_c

SOURCES = {"edgeparse.c", "peel.c", "ranksweep.c", "itrlevels.c", "adg.c",
           "verify.c"}


def _objects(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.glob("*.so"))


class TestLayout:
    def test_csrc_holds_the_six_passes_and_one_header(self):
        assert set(os.listdir(cbuild.CSRC)) == SOURCES | {"repro.h"}

    def test_binding_table_matches_the_header(self):
        with open(os.path.join(cbuild.CSRC, "repro.h")) as fh:
            header = fh.read()
        protos = dict(re.findall(
            r"^(?:long long|void) (repro_\w+)\(([^;]*)\);", header, re.M))
        assert len(protos) == 10
        assert set(protos) == set(cbuild.SIGNATURES)
        for name, args in protos.items():
            restype, argtypes = cbuild.SIGNATURES[name]
            assert len(argtypes) == args.count(",") + 1, name
            assert (restype is None) == (name == "repro_peel"), name

    def test_sources_ship_as_package_data(self):
        root = Path(cbuild.__file__).resolve().parents[3]
        text = (root / "pyproject.toml").read_text()
        assert re.search(r'repro = \["csrc/\*\.c", "csrc/\*\.h"\]', text)


class TestBuild:
    @pytest.mark.parametrize("how", BUILD_FAILURES)
    def test_failed_build_leaves_every_pass_unbuilt(self, how, broken_build,
                                                    tmp_path):
        broken_build(how)
        assert cbuild.load() is None
        assert all(cbuild.entry(name) is None for name in cbuild.SIGNATURES)
        assert not _objects(tmp_path / "cc")

    def test_one_compiler_call_builds_one_object(self, fresh_build, tmp_path,
                                                 monkeypatch):
        calls = []
        real = subprocess.run
        monkeypatch.setattr(cbuild.subprocess, "run",
                            lambda cmd, **kw: calls.append(cmd)
                            or real(cmd, **kw))
        require_c()
        assert sorted(cbuild.load()) == sorted(cbuild.SIGNATURES)
        [cmd] = calls
        assert tuple(cmd[1:4]) == cbuild.CFLAGS == ("-O3", "-fPIC", "-shared")
        assert {os.path.basename(a) for a in cmd if a.endswith(".c")} \
            == SOURCES
        assert len(_objects(tmp_path / "cc")) == 1

    def test_concurrent_loaders_build_once(self, fresh_build):
        got = concurrently(cbuild.load)
        assert fresh_build == [1]
        assert all(b is got[0] for b in got)
        assert cbuild.load() is got[0]
        assert fresh_build == [1]

    @pytest.mark.parametrize("edit", ["source", "header", "flags"])
    def test_edited_source_rebuilds(self, edit, fresh_build, tmp_path,
                                    monkeypatch):
        require_c()
        cache = tmp_path / "cc"
        assert cbuild.load() is not None
        [first] = _objects(cache)
        # Unchanged sources reload the cached object.
        monkeypatch.setattr(cbuild, "_tried", False)
        assert cbuild.load() is not None and _objects(cache) == [first]
        if edit == "flags":
            monkeypatch.setattr(cbuild, "CFLAGS",
                                cbuild.CFLAGS + ("-DREPRO_EDITED",))
        else:
            name = "peel.c" if edit == "source" else "repro.h"
            with open(os.path.join(cbuild.CSRC, name), "a") as fh:
                fh.write("/* edited */\n")
        monkeypatch.setattr(cbuild, "_tried", False)
        assert cbuild.load() is not None
        assert len(_objects(cache)) == 2 and first in _objects(cache)
        g = kronecker(scale=8, edge_factor=8, seed=1)
        assert peel_degeneracy(g).degeneracy > 0

    def test_each_compiler_builds_its_own_object(self, fresh_build,
                                                 tmp_path, monkeypatch):
        """Two compiler scripts that ``exec`` the same compiler (as a
        sanitizing wrapper does) build two objects in one cache; the
        first, found on ``PATH`` again, reloads its object uncompiled."""
        require_c()
        real_cc = shutil.which("cc") or shutil.which("gcc") \
            or shutil.which("clang")
        bins = {}
        for name in ("a", "b"):
            bins[name] = tmp_path / f"bin-{name}"
            bins[name].mkdir()
            script = bins[name] / "cc"
            script.write_text(f'#!/bin/sh\n# compiler {name}\n'
                              f'exec "{real_cc}" "$@"\n')
            script.chmod(0o755)
        compiles = []
        real_run = subprocess.run
        monkeypatch.setattr(cbuild.subprocess, "run",
                            lambda cmd, **kw: compiles.append(cmd[0])
                            or real_run(cmd, **kw))
        cache = tmp_path / "cc"
        path = os.environ["PATH"]
        counts = []
        for name in ("a", "b", "a"):
            monkeypatch.setenv("PATH", f"{bins[name]}{os.pathsep}{path}")
            monkeypatch.setattr(cbuild, "_tried", False)
            monkeypatch.setattr(cbuild, "_bound", None)
            assert cbuild.load() is not None
            counts.append(len(_objects(cache)))
        # require_c's object (built by the real compiler), then a's and b's.
        assert compiles == [str(bins["a"] / "cc"), str(bins["b"] / "cc")]
        assert counts == [2, 3, 3]

    def test_every_pass_runs_from_one_object(self, tmp_path):
        """A fresh process running all six passes against an empty
        ``$REPRO_CC_CACHE`` leaves exactly one object there."""
        require_c()
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.coloring.dec_adg_itr import dec_adg_itr
            from repro.coloring.sweep import rank_sweep
            from repro.coloring.verify import is_valid_coloring
            from repro.graphs.generators import gnm_random
            from repro.graphs.ingest import ingest_report
            from repro.graphs.io import write_edge_list
            from repro.graphs.properties import peel_degeneracy
            from repro.ordering.adg import adg_ordering
            from repro.primitives import cbuild

            path = {str(tmp_path / "g.el")!r}
            write_edge_list(gnm_random(300, 1200, seed=1), path)
            g, report = ingest_report(path, cache=False)
            assert report["parser_used"] == "c", report
            peel_degeneracy(g)
            rank_sweep(g, np.arange(g.n))
            adg_ordering(g)
            assert is_valid_coloring(g, dec_adg_itr(g, seed=0).colors)
            assert cbuild.load() is not None
        """)
        cache = tmp_path / "cc"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, env={**os.environ, "REPRO_CC_CACHE": str(cache)})
        assert proc.returncode == 0, proc.stderr
        assert len(_objects(cache)) == 1, _objects(cache)


# -- every pass's fallback gives its compiled output -------------------------

def _edgeparse(g, tmp_path):
    path = str(tmp_path / "g.el")
    write_edge_list(g, path)
    got, _ = ingest_report(path, cache=False)
    return got.content_digest, got.indptr.tolist(), got.indices.tolist()


def _peel(g, tmp_path):
    res = peel_degeneracy(g)
    return res.order.tolist(), res.coreness.tolist(), res.degeneracy


def _ranksweep(g, tmp_path):
    ranks = np.random.default_rng(2).permutation(g.n)
    return [a.tolist() for a in rank_sweep(g, ranks)]


def _itrlevels(g, tmp_path):
    res = dec_adg_itr(g, seed=3)
    return (res.colors.tolist(), res.rounds, res.cost.snapshot(),
            res.cost.round_log)


def _adg(g, tmp_path):
    order = adg_ordering(g, eps=0.1, seed=0, sort_batches=True,
                         compute_ranks=True)
    return (order.levels.tolist(), order.ranks.tolist(),
            order.pred_counts.tolist(), order.num_levels,
            order.cost.snapshot(), order.cost.round_log)


def _verify(g, tmp_path):
    colors = np.random.default_rng(5).integers(1, 4, g.n)
    bu, bv = conflicting_edges(g, colors)
    return (is_valid_coloring(g, colors),
            is_valid_coloring(g, np.arange(1, g.n + 1)),
            bu.tolist(), bv.tolist())


PASSES = {"edgeparse": _edgeparse, "peel": _peel, "ranksweep": _ranksweep,
          "itrlevels": _itrlevels, "adg": _adg, "verify": _verify}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_fallback_gives_the_compiled_output(name, tmp_path):
    """Every entry point hidden, as a failed build leaves them."""
    assert set(PASSES) == {s[:-2] for s in SOURCES}
    g = kronecker(scale=10, edge_factor=8, seed=2)
    compiled, fallback = both_paths(lambda: PASSES[name](g, tmp_path))
    assert compiled == fallback
