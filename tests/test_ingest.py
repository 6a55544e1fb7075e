"""Tests for the streaming ingestion pipeline (repro.graphs.ingest).

The load-bearing property throughout: for every input the legacy
reader accepts, ``ingest`` produces a digest-identical CSR — on every
tokenizer tier, every backend, cold or from the binary cache — and for
every input the legacy reader rejects, ``ingest`` raises the same
exception type.
"""

import gzip
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import gnm_random, kronecker
from repro.graphs.ingest import (
    compact_ids,
    file_digest,
    ingest,
    ingest_report,
    parse_edge_bytes,
    resolve_cache_dir,
    resolve_parser,
)
from repro.graphs.io import read_edge_list, write_edge_list

TIERS = ["auto", "c", "numpy", "python"]


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
        u, v = parse_edge_bytes(b"0 1\n1 2\n2 0\n", parser=tier)
        assert u.tolist() == [0, 1, 2]
        assert v.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("tier", TIERS)
    def test_crlf_and_tabs(self, tier):
        u, v = parse_edge_bytes(b"0\t1\r\n1\t2\r\n", parser=tier)
        assert u.tolist() == [0, 1]
        assert v.tolist() == [1, 2]

    @pytest.mark.parametrize("tier", TIERS)
    def test_trailing_columns_ignored(self, tier):
        data = b"0 1 1970-01-01 0.5\n1 2 weight\n"
        u, v = parse_edge_bytes(data, parser=tier)
        assert u.tolist() == [0, 1]
        assert v.tolist() == [1, 2]

    @pytest.mark.parametrize("tier", TIERS)
    def test_comments_and_blank_lines(self, tier):
        data = b"# header\n\n0 1\n# mid\n1 2\n\n"
        u, v = parse_edge_bytes(data, parser=tier)
        assert u.tolist() == [0, 1]

    @pytest.mark.parametrize("tier", TIERS)
    def test_single_token_line_raises(self, tier):
        with pytest.raises(ValueError, match="malformed edge line"):
            parse_edge_bytes(b"0 1\n7\n", parser=tier)

    @pytest.mark.parametrize("tier", TIERS)
    def test_oversized_id_raises_overflow(self, tier):
        too_big = str(2 ** 64).encode()
        with pytest.raises(OverflowError):
            parse_edge_bytes(b"0 " + too_big + b"\n", parser=tier)

    @pytest.mark.parametrize("tier", TIERS)
    def test_int64_max_survives(self, tier):
        # The numpy tier's saturation sentinel must not eat a genuine
        # INT64_MAX id.
        big = str(2 ** 63 - 1).encode()
        u, v = parse_edge_bytes(b"0 " + big + b"\n", parser=tier)
        assert v.tolist() == [2 ** 63 - 1]

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown ingest parser"):
            parse_edge_bytes(b"0 1\n", parser="fortran")

    def test_env_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_PARSER", "python")
        assert resolve_parser(None) == "python"
        assert resolve_parser("numpy") == "numpy"  # arg wins


class TestCompactIds:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(7)
        for vals in [rng.integers(0, 50, 1000),
                     rng.integers(0, 2 ** 40, 1000),  # sparse universe
                     np.array([], np.int64)]:
            vals = vals.astype(np.int64)
            vocab, inv = compact_ids(vals)
            ids, ref = np.unique(vals, return_inverse=True)
            assert np.array_equal(vocab, ids)
            assert np.array_equal(inv, ref)


# -- digest identity with the legacy reader -----------------------------------

FIXTURES = {
    "plain": "0 1\n1 2\n2 3\n",
    "crlf": "0 1\r\n1 2\r\n",
    "junk_columns": "0 1 1299283200 x\n1 2 1299283201 y\n",
    "dups_self_loops": "0 0\n0 1\n0 1\n1 0\n5 5\n",
    "comments": "# SNAP header\n# n=3 m=2\n10 20\n20 30\n",
    "noncontiguous_ids": "1000 7\n7 999983\n1000 999983\n",
}


class TestDigestIdentity:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("tier", TIERS)
    def test_fixture(self, tmp_path, name, tier):
        path = _write(tmp_path, FIXTURES[name])
        ref = read_edge_list(path)
        got = _ingest(path, parser=tier)
        assert got.content_digest == ref.content_digest
        assert (got.n, got.m) == (ref.n, ref.m)

    @pytest.mark.parametrize("tier", TIERS)
    def test_empty_file(self, tmp_path, tier):
        path = _write(tmp_path, "")
        g = _ingest(path, parser=tier)
        assert (g.n, g.m) == (0, 0)
        assert g.content_digest == read_edge_list(path).content_digest

    def test_gzip(self, tmp_path):
        text = "".join(f"{i} {i + 1}\n" for i in range(500))
        raw = _write(tmp_path, text)
        gz = str(tmp_path / "g.el.gz")
        with gzip.open(gz, "wt") as fh:
            fh.write(text)
        assert _ingest(gz).content_digest == \
            read_edge_list(raw).content_digest

    def test_many_chunks(self, tmp_path):
        # Force several byte ranges so cross-chunk vocab merging and
        # the out-of-core build loop actually run.
        g0 = gnm_random(300, 2400, seed=5)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        got = _ingest(path, chunk_bytes=1 << 12)
        ref = read_edge_list(path)
        assert got.content_digest == ref.content_digest

    @pytest.mark.parametrize("backend", ["threaded"])
    def test_backend_parity(self, tmp_path, backend):
        g0 = gnm_random(200, 1500, seed=9)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        ref = read_edge_list(path)
        got = _ingest(path, backend=backend, workers=2,
                      chunk_bytes=1 << 12)
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
        assert any(p.suffix == ".npz" for p in cdir.iterdir())

    def test_same_content_different_path_digest_hit(self, tmp_path):
        path = self._file(tmp_path)
        cdir = str(tmp_path / "cache")
        ingest_report(path, cache_dir=cdir)
        import shutil
        copy = str(tmp_path / "copy.el")
        shutil.copy(path, copy)
        _, r = ingest_report(copy, cache_dir=cdir)
        assert r["cached"] == "digest"

    def test_file_digest_matches_hashlib(self, tmp_path):
        import hashlib
        path = self._file(tmp_path)
        with open(path, "rb") as fh:
            ref = hashlib.sha256(fh.read()).hexdigest()
        assert file_digest(path) == ref


# -- report plumbing ----------------------------------------------------------

class TestReport:
    def test_report_fields(self, tmp_path):
        g = gnm_random(80, 400, seed=11)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        got, rep = ingest_report(path, cache=False)
        assert rep["n"] == got.n and rep["m"] == got.m
        assert rep["digest"] == got.content_digest
        assert rep["parser_used"] in ("c", "numpy", "python")
        assert set(rep["phase_walls"]) >= {"ingest.scan", "ingest.parse"}
        assert rep["wall_s"] > 0 and rep["ranges"] >= 1

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
