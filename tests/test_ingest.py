"""Tests for the streaming ingestion pipeline (repro.graphs.ingest).

The load-bearing property throughout: for every input the legacy
reader accepts, ``ingest`` produces a digest-identical CSR — on every
tokenizer tier, every backend, every block size, cold or from the
binary cache — and for every input the legacy reader rejects,
``ingest`` raises the same exception type.
"""

import gzip
import importlib
import json
import os
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import gnm_random, kronecker
from repro.graphs.ingest import (
    file_digest,
    ingest,
    ingest_report,
    parse_edge_bytes,
    resolve_cache_dir,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.obs import Tracer
from repro.primitives import cbuild
from repro.runtime import ExecutionContext

from .conftest import require_c

# repro.graphs re-exports the ingest() function under the module's name.
ingest_mod = importlib.import_module("repro.graphs.ingest")

#: "auto" is the tokenizer chain ingest runs (C, then Python, which
#: takes the blocks C cannot prove clean); the others name one tier.
TIERS = ["auto", "c", "python"]
TIER_FNS = {"auto": parse_edge_bytes, "c": ingest_mod._parse_c,
            "python": ingest_mod._parse_python}


def _on_tier(tier, data):
    """One tier called directly: ``(u, v)`` lists, or None where the
    tier declines the chunk."""
    if tier == "c":
        require_c()
    out = TIER_FNS[tier](data, "#")
    return None if out is None else (out[0].tolist(), out[1].tolist())


@pytest.fixture
def forced_tier(request, hide_c):
    """Start ingest's tokenizer chain at one tier: an unbuilt library
    skips C (and builds through ``from_edges``).  "auto" leaves the
    chain as built."""
    tier = request.param
    if tier == "c":
        require_c()
    if tier == "python":
        hide_c()
    return tier


def _write(tmp_path, text, name="g.el", binary=False):
    p = tmp_path / name
    if binary:
        p.write_bytes(text)
    else:
        p.write_text(text)
    return str(p)


def _ingest(path, **kw):
    kw.setdefault("cache", False)
    return ingest(path, **kw)


# -- tokenizer tiers ----------------------------------------------------------

class TestParseEdgeBytes:
    @pytest.mark.parametrize("tier", TIERS)
    def test_plain(self, tier):
        assert _on_tier(tier, b"0 1\n1 2\n2 0\n") == ([0, 1, 2], [1, 2, 0])

    @pytest.mark.parametrize("tier", TIERS)
    def test_crlf_and_tabs(self, tier):
        assert _on_tier(tier, b"0\t1\r\n1\t2\r\n") == ([0, 1], [1, 2])

    @pytest.mark.parametrize("tier", TIERS)
    def test_trailing_columns_ignored(self, tier):
        data = b"0 1 1970-01-01 0.5\n1 2 weight\n"
        assert _on_tier(tier, data) == ([0, 1], [1, 2])

    @pytest.mark.parametrize("tier", TIERS)
    def test_comments_and_blank_lines(self, tier):
        data = b"# header\n\n0 1\n# mid\n1 2\n\n"
        assert _on_tier(tier, data) == ([0, 1], [1, 2])

    @pytest.mark.parametrize("tier", TIERS)
    def test_single_token_line_raises(self, tier):
        # C declines; Python (and so the chain) raises.
        data = b"0 1\n7\n"
        if tier == "c":
            assert _on_tier(tier, data) is None
        else:
            with pytest.raises(ValueError, match="malformed edge line"):
                _on_tier(tier, data)

    @pytest.mark.parametrize("tier", TIERS)
    def test_oversized_id_raises_overflow(self, tier):
        data = b"0 " + str(2 ** 64).encode() + b"\n"
        if tier == "c":
            assert _on_tier(tier, data) is None
        else:
            with pytest.raises(OverflowError):
                _on_tier(tier, data)

    @pytest.mark.parametrize("tier", TIERS)
    def test_int64_max_survives(self, tier):
        big = 2 ** 63 - 1
        assert _on_tier(tier, b"0 " + str(big).encode() + b"\n") \
            == ([0], [big])

    def test_unknown_tier_rejected(self):
        # No tier can be chosen: the keyword is gone.
        with pytest.raises(TypeError, match="parser"):
            parse_edge_bytes(b"0 1\n", parser="fortran")

    def test_env_tier(self, tmp_path, monkeypatch):
        # $REPRO_INGEST_PARSER is not read: the chain alone decides.
        path = _write(tmp_path, "0 1\n1 2\n")
        _, want = ingest_report(path, cache=False)
        monkeypatch.setenv("REPRO_INGEST_PARSER", "python")
        _, got = ingest_report(path, cache=False)
        assert got["parser_used"] == want["parser_used"]
        assert "parser" not in got

    def test_chain_order(self, hide_c):
        data = b"0 1\n1 2\n"
        if cbuild.load() is not None:
            assert ingest_mod._parse_block(data, "#")[2] == "c"
        # Signed ids: C declines, Python parses.
        assert ingest_mod._parse_block(b"-1 2\n", "#")[2] == "python"
        hide_c()
        assert ingest_mod._parse_block(data, "#")[2] == "python"


# -- digest identity with the legacy reader -----------------------------------

FIXTURES = {
    "plain": "0 1\n1 2\n2 3\n",
    "crlf": "0 1\r\n1 2\r\n",
    "cr": "0 1\r1 2\r2 3\r",
    "junk_columns": "0 1 1299283200 x\n1 2 1299283201 y\n",
    "dups_self_loops": "0 0\n0 1\n0 1\n1 0\n5 5\n",
    "comments": "# SNAP header\n# n=3 m=2\n10 20\n20 30\n",
    "noncontiguous_ids": "1000 7\n7 999983\n1000 999983\n",
}


class TestDigestIdentity:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("forced_tier", TIERS, indirect=True)
    def test_fixture(self, tmp_path, name, forced_tier):
        path = _write(tmp_path, FIXTURES[name])
        ref = read_edge_list(path)
        got, rep = ingest_report(path, cache=False)
        assert got.content_digest == ref.content_digest
        assert (got.n, got.m) == (ref.n, ref.m)
        if forced_tier != "auto":
            # The chain starts at the forced tier or hands on from it.
            assert rep["parser_used"] in TIERS[TIERS.index(forced_tier):]

    @pytest.mark.parametrize("forced_tier", TIERS, indirect=True)
    def test_empty_file(self, tmp_path, forced_tier):
        path = _write(tmp_path, "")
        g, rep = ingest_report(path, cache=False)
        assert (g.n, g.m) == (0, 0)
        assert g.content_digest == read_edge_list(path).content_digest
        if forced_tier != "auto":
            assert rep["parser_used"] == forced_tier

    @pytest.mark.parametrize("forced_tier", TIERS, indirect=True)
    def test_every_tier_cold_and_cached(self, tmp_path, forced_tier,
                                        monkeypatch):
        g0 = gnm_random(200, 1500, seed=4)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        ref = read_edge_list(path).content_digest
        cdir = str(tmp_path / "cache")
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 1 << 12)
        cold, r1 = ingest_report(path, cache_dir=cdir)
        warm, r2 = ingest_report(path, cache_dir=cdir)
        assert (r1["cached"], r2["cached"]) == (False, "stat")
        assert cold.content_digest == warm.content_digest == ref
        if forced_tier != "auto":
            assert r1["parser_used"] == forced_tier

    def test_gzip(self, tmp_path):
        text = "".join(f"{i} {i + 1}\n" for i in range(500))
        raw = _write(tmp_path, text)
        gz = str(tmp_path / "g.el.gz")
        with gzip.open(gz, "wt") as fh:
            fh.write(text)
        assert _ingest(gz).content_digest == \
            read_edge_list(raw).content_digest

    def test_many_chunks(self, tmp_path, monkeypatch):
        # Force several blocks so cross-block vocab merging and the
        # per-block build loops actually run.
        g0 = gnm_random(300, 2400, seed=5)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 1 << 12)
        got, rep = ingest_report(path, cache=False)
        assert rep["ranges"] > 1
        ref = read_edge_list(path)
        assert got.content_digest == ref.content_digest

    @pytest.mark.parametrize("forced_tier", TIERS, indirect=True)
    def test_lone_cr_ends_a_line(self, tmp_path, forced_tier):
        # Universal newlines, as read_edge_list reads the file.
        path = _write(tmp_path, b"0 1\r1 2\r2 3\r", binary=True)
        got = _ingest(path)
        ref = read_edge_list(path)
        assert (got.n, got.m) == (ref.n, ref.m) == (4, 3)
        assert got.content_digest == ref.content_digest

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("forced_tier", TIERS, indirect=True)
    def test_every_line_end_cuts_blocks(self, tmp_path, monkeypatch, eol,
                                        forced_tier):
        # A CR-only file is read in blocks like an LF file (not held
        # whole as one block), and 37-byte reads split some CRLF pairs
        # between two blocks.
        g0 = gnm_random(300, 2400, seed=5)
        u, v = g0.undirected_edges()
        text = "".join(f"{a} {b}{eol}" for a, b in zip(u.tolist(),
                                                       v.tolist()))
        path = _write(tmp_path, text.encode(), binary=True)
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 37)
        got, rep = ingest_report(path, cache=False)
        assert rep["ranges"] > 1
        assert got.content_digest == read_edge_list(path).content_digest

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("block", [37, 1 << 12])
    def test_both_ways_across_blocks(self, tmp_path, monkeypatch, gz,
                                     block):
        # Every edge listed in both directions, grouped by source like
        # a SNAP export, read in blocks that cut lines (37 bytes) or
        # span many (4 KiB): the two directions of an edge land in
        # different blocks and must merge into one.
        g0 = gnm_random(400, 3000, seed=12)
        src, dst = g0.edge_array()
        text = "# both ways\n" + "".join(
            f"{a * 7 + 3} {b * 7 + 3}\n"
            for a, b in zip(src.tolist(), dst.tolist()))
        path = _write(tmp_path, text)
        ref = read_edge_list(path)
        if gz:
            with gzip.open(path + ".gz", "wt") as fh:
                fh.write(text)
            path += ".gz"
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", block)
        got, rep = ingest_report(path, cache=False)
        assert rep["ranges"] > 1
        assert rep["raw_bytes"] == len(text)
        assert got.content_digest == ref.content_digest
        assert (got.n, got.m) == (g0.n, g0.m)

    @pytest.mark.parametrize("backend", ["threaded"])
    def test_backend_parity(self, tmp_path, backend, monkeypatch):
        g0 = gnm_random(200, 1500, seed=9)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        ref = read_edge_list(path)
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 1 << 12)
        got = _ingest(path, backend=backend, workers=2)
        assert got.content_digest == ref.content_digest

    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
                    max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_legacy(self, tmp_path_factory, edges):
        tmp = tmp_path_factory.mktemp("prop")
        text = "".join(f"{a} {b}\n" for a, b in edges)
        path = _write(tmp, text)
        assert _ingest(path).content_digest == \
            read_edge_list(path).content_digest

    def test_malformed_line_same_error(self, tmp_path):
        path = _write(tmp_path, "0 1\nbroken\n")
        with pytest.raises(ValueError, match="malformed edge line"):
            read_edge_list(path)
        with pytest.raises(ValueError, match="malformed edge line"):
            _ingest(path)

    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("threaded", 4)])
    def test_malformed_range_parsed_once(self, tmp_path, monkeypatch,
                                         backend, workers):
        # A parse error is deterministic: it must surface on the first
        # parse, unwrapped, with no retry.
        path = _write(tmp_path, "1 2\n3 x\n")
        calls = []
        real = ingest_mod._parse_block

        def spy(data, comments):
            calls.append(data)
            return real(data, comments)

        monkeypatch.setattr(ingest_mod, "_parse_block", spy)
        with pytest.raises(ValueError, match="invalid literal") as ei:
            _ingest(path, backend=backend, workers=workers)
        assert ei.value.__cause__ is None
        assert calls == [b"1 2\n3 x\n"]


# -- the binary cache ---------------------------------------------------------

class TestCache:
    def _file(self, tmp_path, seed=3):
        g = gnm_random(120, 800, seed=seed)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        return path

    def test_cold_then_stat_hit(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        g1, r1 = ingest_report(path, cache_dir=cdir)
        g2, r2 = ingest_report(path, cache_dir=cdir)
        assert r1["cached"] is False
        assert r2["cached"] == "stat"
        assert g1.content_digest == g2.content_digest

    def test_mtime_touch_falls_back_to_digest(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        ingest_report(path, cache_dir=cdir)
        st_ = os.stat(path)
        os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns + 10 ** 9))
        g, r = ingest_report(path, cache_dir=cdir)
        assert r["cached"] == "digest"  # content unchanged: one rehash
        # ... and the manifest was refreshed: next load is a stat hit.
        _, r2 = ingest_report(path, cache_dir=cdir)
        assert r2["cached"] == "stat"

    def test_content_change_reparses(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        g1, _ = ingest_report(path, cache_dir=cdir)
        with open(path, "a") as fh:
            fh.write("100000 100001\n")
        g2, r2 = ingest_report(path, cache_dir=cdir)
        assert r2["cached"] is False
        assert g2.m == g1.m + 1

    def test_force_reparses(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        ingest_report(path, cache_dir=cdir)
        _, r = ingest_report(path, cache_dir=cdir, force=True)
        assert r["cached"] is False

    def test_cache_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_CACHE", "off")
        assert resolve_cache_dir("/nowhere/g.el") is None
        path = self._file(tmp_path)
        _, r = ingest_report(path)
        assert r["cached"] is False

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        cdir = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_INGEST_CACHE", str(cdir))
        path = self._file(tmp_path)
        ingest_report(path)
        assert sorted(p.suffix for p in cdir.iterdir()) == [".json", ".npy",
                                                             ".npy"]

    def test_same_content_different_path_digest_hit(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        ingest_report(path, cache_dir=cdir)
        copy = str(tmp_path / "copy.el")
        shutil.copy(path, copy)
        _, r = ingest_report(copy, cache_dir=cdir)
        assert r["cached"] == "digest"

    def test_warm_members_mapped_aligned(self, tmp_path):
        # A warm load maps the entry's two .npy files read-only; np.save
        # pads each header so the data starts 64-byte aligned, and the
        # compiled passes take the mapped arrays with no copy.
        g = gnm_random(20000, 80000, seed=9)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        cdir = str(tmp_path / "cache")
        cold, _ = ingest_report(path, cache_dir=cdir)
        warm, r = ingest_report(path, cache_dir=cdir)
        assert r["cached"] == "stat"
        for key in ("indptr", "indices"):
            arr = getattr(warm, key)
            assert isinstance(arr.base, np.memmap)
            assert not arr.flags.writeable
            assert arr.ctypes.data % np.lib.format.ARRAY_ALIGN == 0
            np.testing.assert_array_equal(arr, getattr(cold, key))
        indptr, indices = warm.checked_arrays
        assert isinstance(indptr.base, np.memmap)
        assert isinstance(indices.base, np.memmap)

    def _stem(self, cdir, path):
        """The path of ``path``'s cache entry minus its suffixes."""
        for man in cdir.glob("*.json"):
            if json.loads(man.read_text())["source"] == path:
                return str(man)[:-len(".json")]
        raise AssertionError(f"no cache entry for {path}")

    def test_arrays_disagreeing_with_the_manifest_miss(self, tmp_path):
        # An entry holding another graph's arrays is a miss, not a hit
        # under its manifest's digest (which the service keys on): the
        # file is re-parsed and the entry rewritten.
        cdir = tmp_path / "cache"
        paths = {}
        for key, g in (("small", gnm_random(100, 300, seed=1)),
                       ("big", gnm_random(20000, 80000, seed=9))):
            paths[key] = str(tmp_path / f"{key}.el")
            write_edge_list(g, paths[key])
        _, cold = ingest_report(paths["big"], cache_dir=str(cdir))
        ingest_report(paths["small"], cache_dir=str(cdir))
        src = self._stem(cdir, paths["small"])
        dst = self._stem(cdir, paths["big"])
        for f in cdir.glob(os.path.basename(src) + ".*"):
            if f.suffix != ".json":
                shutil.copy(f, dst + str(f)[len(src):])
        g, r = ingest_report(paths["big"], cache_dir=str(cdir))
        assert r["cached"] is False
        assert (g.n, r["digest"]) == (cold["n"], cold["digest"])
        g, r = ingest_report(paths["big"], cache_dir=str(cdir))
        assert r["cached"] == "stat"
        assert (g.n, r["digest"]) == (cold["n"], cold["digest"])

    def test_truncated_entry_misses(self, tmp_path):
        # A short array file is a miss, not a crash; the re-parse
        # rewrites it.  No graph maps the file while it is truncated
        # (truncating a live mapping in place is a SIGBUS).
        path = self._file(tmp_path)
        cdir = tmp_path / "cache"
        _, cold = ingest_report(path, cache_dir=str(cdir))
        (arr,) = cdir.glob("*.indices.npy")
        with open(arr, "r+b") as fh:
            fh.truncate(arr.stat().st_size // 2)
        _, r = ingest_report(path, cache_dir=str(cdir))
        assert r["cached"] is False
        assert r["digest"] == cold["digest"]
        _, r = ingest_report(path, cache_dir=str(cdir))
        assert r["cached"] == "stat"
        assert r["digest"] == cold["digest"]

    def test_v1_entry_is_a_miss_and_replaced(self, tmp_path):
        # A v1 entry (one npz, schema v1) is not read: the file is
        # re-parsed, and the v2 store overwrites the manifest, whose
        # stem is the same.  The old npz is left behind.
        path = self._file(tmp_path)
        cdir = tmp_path / "cache"
        g, cold = ingest_report(path, cache_dir=str(cdir))
        (man,) = cdir.glob("*.json")
        fields = json.loads(man.read_text())
        fields["schema"] = "repro.ingest-cache/v1"
        man.write_text(json.dumps(fields))
        for f in cdir.glob("*.npy"):
            f.unlink()
        npz = man.with_suffix(".npz")
        np.savez(npz, indptr=g.indptr, indices=g.indices,
                 name=np.asarray(g.name))
        _, r = ingest_report(path, cache_dir=str(cdir))
        assert r["cached"] is False
        assert r["digest"] == cold["digest"]
        assert json.loads(man.read_text())["schema"] \
            == ingest_mod.CACHE_SCHEMA
        _, r = ingest_report(path, cache_dir=str(cdir))
        assert r["cached"] == "stat"
        assert npz.exists()

    @pytest.mark.parametrize("gz", [False, True])
    def test_cold_parse_hashes_while_reading(self, tmp_path, monkeypatch,
                                             gz):
        # The cache key is hashed in the block reader's loop (for gzip,
        # over the compressed bytes): file_digest never re-reads the
        # file, yet the manifest holds the file's sha256 and a moved
        # copy still hits on it.
        path = self._file(tmp_path)
        if gz:
            with open(path, "rb") as src, gzip.open(path + ".gz",
                                                    "wb") as dst:
                dst.write(src.read())
            path += ".gz"
        want = file_digest(path)
        cdir = tmp_path / "cache"
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 1 << 12)
        with mock.patch.object(ingest_mod, "file_digest",
                               side_effect=AssertionError("re-read")):
            ingest_report(path, cache_dir=str(cdir))
        (man,) = cdir.glob("*.json")
        assert json.loads(man.read_text())["file_sha256"] == want
        copy = str(tmp_path / ("copy.el.gz" if gz else "copy.el"))
        shutil.copy(path, copy)
        _, r = ingest_report(copy, cache_dir=str(cdir))
        assert r["cached"] == "digest"

    def test_traced_gzip_hash_opens_a_phase_per_block(self, tmp_path,
                                                      monkeypatch):
        # GzipFile pulls 8 KiB at a time; the hash sits under a
        # BLOCK_BYTES buffer, so ingest.cache opens once per block of
        # compressed bytes (plus the EOF read and the store), not once
        # per 8 KiB.
        rng = np.random.default_rng(9)
        u = rng.integers(0, 10**9, 40_000)
        v = rng.integers(0, 10**9, 40_000)
        path = str(tmp_path / "g.el.gz")
        with gzip.open(path, "wt") as fh:
            fh.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(),
                                                          v.tolist())))
        block = 1 << 16
        size = os.path.getsize(path)
        assert size > 4 * block  # dozens of 8 KiB reads
        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", block)
        with ExecutionContext(backend="serial", trace=Tracer()) as ctx:
            ingest_report(path, cache_dir=str(tmp_path / "cache"), ctx=ctx)
            spans = [e for e in ctx.tracer.events
                     if e.name == "ingest.cache"]
        assert len(spans) <= size // block + 3, len(spans)

    @pytest.mark.parametrize("gz", [False, True])
    def test_cold_ingest_writes_only_the_cache(self, tmp_path, monkeypatch,
                                               gz):
        # No spill or scratch file: the temp dir stays empty and the
        # only new files are the cache entry's two arrays and manifest.
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setenv("TMPDIR", str(tmp))
        src = tmp_path / "src"
        src.mkdir()
        path = self._file(src)
        if gz:
            with open(path, "rb") as fin, gzip.open(path + ".gz",
                                                    "wb") as dst:
                dst.write(fin.read())
            path += ".gz"
        cdir = tmp_path / "cache"
        before = sorted(p.name for p in src.iterdir())
        ingest_report(path, cache_dir=str(cdir), force=True)
        assert list(tmp.iterdir()) == []
        assert sorted(p.name for p in src.iterdir()) == before
        assert sorted(p.suffix for p in cdir.iterdir()) == [".json", ".npy",
                                                             ".npy"]

    def test_file_digest_matches_hashlib(self, tmp_path):
        import hashlib
        path = self._file(tmp_path)
        with open(path, "rb") as fh:
            ref = hashlib.sha256(fh.read()).hexdigest()
        assert file_digest(path) == ref


# -- the compiled CSR build ---------------------------------------------------

def _assert_builds_agree(path, block=None):
    """The compiled build's CSR equals the ``from_edges`` build's (the
    no-compiler path); returns it.  ``block`` sets the block size."""
    with mock.patch.object(ingest_mod, "BLOCK_BYTES",
                           block or ingest_mod.BLOCK_BYTES):
        got = _ingest(path)
        with mock.patch.object(cbuild, "entry", lambda name: None):
            ref = _ingest(path)
    assert got.content_digest == ref.content_digest
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    return got


def _row_lengths_text(rng):
    """Edges whose canonical rows have 0, 1, 16, 17 and ~3000 entries,
    with repeats, in shuffled order."""
    lines = ["7000 7000"]                                  # a row of 0
    lines += ["8000 8001"]                                 # rows of 1
    # Rows of 16 and 17 entries, distinct and with repeats.
    lines += [f"5000 {6000 + i}" for i in range(16)]
    lines += [f"5001 {6100 + i}" for i in range(17)]
    lines += [f"5002 {6200 + i}" for i in range(15)] + ["5002 6200"]
    lines += [f"5003 {6300 + i}" for i in range(15)] + ["5003 6300"] * 2
    # A hub row of 3000 entries, 100 of them repeats.
    lines += [f"0 {1 + i}" for i in range(2900)]
    lines += [f"{1 + i} 0" for i in range(0, 2900, 29)]
    rng.shuffle(lines)
    return "".join(f"{x}\n" for x in lines)


class TestCompiledBuild:
    """The C count/scatter/sort/symmetrize passes against the
    ``from_edges`` oracle."""

    def test_row_lengths_both_sort_branches(self, tmp_path):
        require_c()
        path = _write(tmp_path, _row_lengths_text(np.random.default_rng(3)))
        g = _assert_builds_agree(path)
        assert sorted(set(np.diff(g.indptr).tolist()) & {0, 1, 16, 17}) \
            == [0, 1, 16, 17]
        assert int(g.degrees.max()) == 2900
        assert g.content_digest == read_edge_list(path).content_digest

    def test_three_byte_ids(self, tmp_path):
        # n > 65536: the radix sort needs its third byte pass.
        require_c()
        rng = np.random.default_rng(4)
        n = 70_000
        hub = rng.choice(np.arange(1, n), 3000, replace=False)
        lines = [f"{i} {i + 1}" for i in range(1, n - 1)]
        lines += [f"0 {h}" for h in hub.tolist()]
        path = _write(tmp_path, "".join(f"{x}\n" for x in lines))
        g = _assert_builds_agree(path, block=1 << 16)
        assert g.n == n

    def test_duplicates_and_self_loop_lines(self, tmp_path):
        require_c()
        text = "3 3\n3 3\n1 2\n2 1\n1 2\n9 9\n2 4\n4 2\n4 4\n"
        path = _write(tmp_path, text)
        g = _assert_builds_agree(path)
        assert (g.n, g.m) == (5, 2)

    def test_self_loops_only(self, tmp_path):
        require_c()
        path = _write(tmp_path, "1 1\n2 2\n")
        g = _assert_builds_agree(path)
        assert (g.n, g.m) == (2, 0)

    def test_negative_ids_from_python_tier(self, tmp_path):
        require_c()
        path = _write(tmp_path, "-5 3\n3 -5\n-7 -5\n-7 -7\n12 -5\n")
        got, rep = ingest_report(path, cache=False)
        assert rep["parser_used"] == "python"
        _assert_builds_agree(path)
        assert got.content_digest == read_edge_list(path).content_digest

    def test_small_chunks_threaded(self, tmp_path):
        require_c()
        g0 = kronecker(scale=9, edge_factor=8, seed=6)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        with mock.patch.object(ingest_mod, "BLOCK_BYTES", 4096):
            got = _ingest(path, backend="threaded", workers=2)
        assert got.content_digest == _assert_builds_agree(
            path, block=4096).content_digest
        assert got.content_digest == read_edge_list(path).content_digest

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                    max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_property_c_matches_numpy(self, tmp_path_factory, edges):
        # The oracle is from_edges, the NumPy build.
        require_c()
        tmp = tmp_path_factory.mktemp("cbuild")
        path = _write(tmp, "".join(f"{a} {b}\n" for a, b in edges))
        _assert_builds_agree(path, block=4096)

    def test_numpy_build_without_library(self, tmp_path):
        # No compiled library: the blocks go through from_edges (the
        # NumPy build the legacy reader uses), and no C pass runs.
        g0 = gnm_random(150, 900, seed=8)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        calls = []

        def spy(name, fn):
            def wrapped(*a, **kw):
                calls.append(name)
                return fn(*a, **kw)
            return wrapped

        with mock.patch.object(cbuild, "entry", lambda name: None), \
                mock.patch.object(ingest_mod, "BLOCK_BYTES", 4096), \
                mock.patch.object(ingest_mod, "from_edges",
                                  spy("from_edges", ingest_mod.from_edges)), \
                mock.patch.object(ingest_mod, "_canon_rows_c",
                                  spy("c", ingest_mod._canon_rows_c)):
            got, rep = ingest_report(path, cache=False)
        assert calls == ["from_edges"]
        assert rep["ranges"] > 1 and rep["parser_used"] == "python"
        assert set(rep["phase_walls"]) == {"ingest.parse", "ingest.scatter",
                                           "ingest.compact"}
        assert got.content_digest == read_edge_list(path).content_digest


    def test_past_max_codes_hands_off_to_from_edges(self, tmp_path,
                                                     monkeypatch):
        # Once the distinct ids could pass the int32 code space, the
        # blocks coded so far are decoded and the file finishes through
        # from_edges, with the same CSR.
        require_c()
        g0 = gnm_random(300, 1500, seed=12)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        calls = []
        real = ingest_mod.from_edges

        def spy(*a, **kw):
            calls.append("from_edges")
            return real(*a, **kw)

        monkeypatch.setattr(ingest_mod, "BLOCK_BYTES", 1 << 10)
        monkeypatch.setattr(ingest_mod, "MAX_CODES", 400)
        monkeypatch.setattr(ingest_mod, "from_edges", spy)
        got, rep = ingest_report(path, cache=False)
        assert calls == ["from_edges"] and rep["ranges"] > 3
        assert got.content_digest == read_edge_list(path).content_digest

    def test_encoder_keeps_codes_across_table_growth(self):
        # One running id space: a repeated id keeps its first code
        # after the table and vocabulary have grown, and the ranks map
        # codes to np.unique's inverse.
        require_c()
        enc = ingest_mod._Encoder(cbuild.entry("repro_encode"))
        rng = np.random.default_rng(5)
        ids = rng.choice(10**12, 20_000, replace=False).astype(np.int64)
        first = enc.encode(ids[:10], ids[:3])
        assert first.tolist() == list(range(10)) + [0, 1, 2]
        later = enc.encode(ids, ids[::-1])
        assert enc.d == ids.size
        np.testing.assert_array_equal(later[:ids.size],
                                      np.arange(ids.size))
        np.testing.assert_array_equal(enc.vocab, ids)
        vocab, inv = np.unique(ids, return_inverse=True)
        np.testing.assert_array_equal(
            ingest_mod._ranks(np.argsort(enc.vocab)), inv)

def _blocks(*codes):
    """Hand-made parsed blocks: each a block's codes, its u codes then
    its v codes."""
    return [(np.asarray(c, np.int32), len(c) // 2) for c in codes]


class _Ranked:
    """Stands in for the encoder: hands the build fixed ranks."""

    def __init__(self, rank):
        self._rank = np.asarray(rank, np.int32)

    def release_ranks(self):
        return self._rank


def _build(blocks, rank):
    with ExecutionContext(backend="serial") as ctx:
        return ingest_mod._build_csr(blocks, _Ranked(rank), ctx, "blocks")


class TestCompiledBuildGuards:
    """Inconsistent in-memory blocks raise on the C path, never build a
    CSR."""

    def test_consistent_spill_builds(self):
        require_c()
        # Ids 20, 10, 30 in first-seen order (codes 0, 1, 2; ranks 1,
        # 0, 2): edges 20-10 (listed both ways), 10-30 and 30-30 (a
        # self-loop), in two blocks.
        blocks = _blocks([0, 1, 1, 0], [1, 2, 2, 2])
        g = _build(blocks, [1, 0, 2])
        assert blocks == []
        assert g.indptr.tolist() == [0, 2, 3, 4]
        assert g.indices.tolist() == [1, 2, 0, 0]

    @pytest.mark.parametrize("bad", [2, -1])
    def test_code_outside_chunk_vocab(self, bad):
        require_c()
        blocks = _blocks([0, bad, 1, 0])
        with pytest.raises(RuntimeError, match="outside its vocabulary"):
            _build(blocks, [0, 1])

    def test_chunk_id_beyond_global_vocab(self):
        # A code whose rank names no vertex.
        require_c()
        blocks = _blocks([0, 1])
        with pytest.raises(RuntimeError, match="outside its vocabulary"):
            _build(blocks, [0, 2])

    def test_truncated_spill(self):
        # A block claiming five edges with one edge's codes never
        # reaches the C.
        require_c()
        blocks = [(np.array([0, 1], np.int32), 5)]
        with pytest.raises(RuntimeError, match="truncated"):
            _build(blocks, [0, 1])

    def test_row_cursor_cannot_pass_its_end(self):
        require_c()
        fn = cbuild.entry("repro_canon_rows")
        rank = np.arange(3, dtype=np.int32)
        codes = np.array([0, 0, 1, 2], np.int32)  # edges 0-1, 0-2
        cursor = np.array([0, 1, 2], np.int64)
        end = np.array([1, 2, 3], np.int64)       # row 0 holds one entry
        adj = np.full(3, -1, np.int32)
        with pytest.raises(RuntimeError, match="more entries"):
            ingest_mod._canon_rows_c(fn, rank, codes, 2, cursor, end, adj)
        assert adj.tolist() == [1, -1, -1]

    def _shifting_blocks(self, corrupt):
        """Blocks whose codes change between the degree pass and the
        scatter."""
        real = ingest_mod._canon_rows_c

        def rows(fn, rank, codes, ne, cur, end=None, adj=None):
            if adj is not None:
                codes = corrupt(codes.copy(), ne)
            return real(fn, rank, codes, ne, cur, end, adj)
        return mock.patch.object(ingest_mod, "_canon_rows_c", rows)

    def test_scatter_overflow_raises_from_ingest(self, tmp_path):
        require_c()
        path = _write(tmp_path, "0 1\n1 2\n2 3\n3 4\n")

        def all_from_row0(codes, ne):
            codes[:ne] = 0
            return codes
        with self._shifting_blocks(all_from_row0), \
                pytest.raises(RuntimeError, match="more entries"):
            _ingest(path)

    def test_kept_totals_must_match(self, tmp_path):
        require_c()
        path = _write(tmp_path, "0 1\n1 2\n2 3\n3 4\n")

        def self_loop(codes, ne):
            codes[ne] = codes[0]  # the first edge becomes a self-loop
            return codes
        with self._shifting_blocks(self_loop), \
                pytest.raises(RuntimeError, match="the scatter kept"):
            _ingest(path)

    @pytest.mark.parametrize("bad", ["not_above_row", "beyond_n",
                                     "counts_overrun"])
    def test_symmetrize_rejects_bad_rows(self, bad):
        require_c()
        fn = cbuild.entry("repro_symmetrize")
        up = np.array([1, 2, 2], np.int32)        # 0: {1, 2}, 1: {2}
        updeg = np.array([2, 1, 0], np.int64)
        if bad == "not_above_row":
            up[2] = 1
        elif bad == "beyond_n":
            up[1] = 3
        else:
            updeg[2] = 1
        indptr = np.empty(4, np.int64)
        indices = np.empty(6, np.int64)
        assert fn(up.ctypes.data, 3, updeg.ctypes.data, 3,
                  indptr.ctypes.data, indices.ctypes.data) == -1
        up[:] = [1, 2, 2]
        updeg[:] = [2, 1, 0]
        assert fn(up.ctypes.data, 3, updeg.ctypes.data, 3,
                  indptr.ctypes.data, indices.ctypes.data) == 0
        assert indptr.tolist() == [0, 2, 4, 6]
        assert indices.tolist() == [1, 2, 0, 2, 0, 1]


# -- report plumbing ----------------------------------------------------------

class TestReport:
    def test_report_fields(self, tmp_path):
        g = gnm_random(80, 400, seed=11)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        got, rep = ingest_report(path, cache=False)
        assert rep["n"] == got.n and rep["m"] == got.m
        assert rep["digest"] == got.content_digest
        assert rep["parser_used"] in ("c", "python")
        assert set(rep["phase_walls"]) >= {"ingest.parse", "ingest.scatter",
                                           "ingest.compact"}
        assert rep["wall_s"] > 0 and rep["ranges"] >= 1

    @pytest.mark.parametrize("gz", [False, True])
    def test_warm_report_has_cold_keys(self, tmp_path, gz):
        g = gnm_random(40, 120, seed=3)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        if gz:
            with open(path, "rb") as src, gzip.open(path + ".gz", "wb") as dst:
                dst.write(src.read())
            path += ".gz"
        cdir = str(tmp_path / "cache")
        _, cold = ingest_report(path, cache_dir=cdir)
        _, warm = ingest_report(path, cache_dir=cdir)
        assert (cold["cached"], warm["cached"]) == (False, "stat")
        assert set(warm) == set(cold)
        assert warm["gz"] is cold["gz"] is gz
        assert warm["phase_walls"] == {}
        for key in ("parser_used", "edges_in", "edges_per_s", "ranges",
                    "raw_bytes"):
            assert warm[key] is None, key

    def test_missing_file_raises(self):
        with pytest.raises(OSError):
            ingest("/nonexistent/edges.el")


# -- legacy io satellites -----------------------------------------------------

class TestWriteEdgeListVectorized:
    def test_byte_identity_with_per_edge_loop(self, tmp_path):
        g = kronecker(scale=7, edge_factor=4, seed=13)
        fast = tmp_path / "fast.el"
        slow = tmp_path / "slow.el"
        write_edge_list(g, fast)
        u, v = g.undirected_edges()
        with open(slow, "w", encoding="utf-8") as fh:
            fh.write(f"# {g.name}: n={g.n} m={g.m}\n")
            for a, b in zip(u.tolist(), v.tolist()):
                fh.write(f"{a} {b}\n")
        assert fast.read_bytes() == slow.read_bytes()

    def test_tiny_blocks(self, tmp_path):
        g = gnm_random(30, 90, seed=2)
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        write_edge_list(g, a)
        write_edge_list(g, b, block=7)
        assert a.read_bytes() == b.read_bytes()
