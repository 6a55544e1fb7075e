"""Tests for the streaming ingestion pipeline (repro.graphs.ingest).

The load-bearing property throughout: for every input the legacy
reader accepts, ``ingest`` produces a digest-identical CSR — on every
tokenizer tier, every backend, cold or from the binary cache — and for
every input the legacy reader rejects, ``ingest`` raises the same
exception type.
"""

import gzip
import importlib
import os
from unittest import mock

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
from repro.runtime import ExecutionContext

# repro.graphs re-exports the ingest() function under the module's name.
ingest_mod = importlib.import_module("repro.graphs.ingest")

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

    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("threaded", 4)])
    def test_malformed_range_parsed_once(self, tmp_path, monkeypatch,
                                         backend, workers):
        # A parse error is deterministic: it must surface on the first
        # parse, unwrapped, with no retry.
        path = _write(tmp_path, "1 2\n3 x\n")
        calls = []
        real = ingest_mod.parse_ranges

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(ingest_mod, "parse_ranges", spy)
        with pytest.raises(ValueError, match="invalid literal") as ei:
            _ingest(path, backend=backend, workers=workers)
        assert ei.value.__cause__ is None
        assert calls == [(0, 1)]


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

    def test_warm_members_mapped_aligned(self, tmp_path):
        # indices (1.3 MB) is mapped in place: its payload must start
        # NPZ_ALIGN-aligned in the file, so the warm CSR is aligned
        # int64 with no copy.
        g = gnm_random(20000, 80000, seed=9)
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        cdir = tmp_path / "cache"
        ingest_report(path, cache_dir=str(cdir))
        warm, r = ingest_report(path, cache_dir=str(cdir))
        assert r["cached"] == "stat"
        assert isinstance(warm.indices.base, np.memmap)
        assert warm.indices.flags.aligned and warm.indptr.flags.aligned
        (npz,) = cdir.glob("*.npz")
        members = ingest_mod._npz_member_arrays(str(npz))
        mapped = [a for a in members.values() if isinstance(a, np.memmap)]
        assert mapped
        assert all(a.offset % ingest_mod.NPZ_ALIGN == 0 for a in mapped)
        with np.load(npz) as data:
            np.testing.assert_array_equal(data["indices"], warm.indices)

    def test_unpadded_cache_still_loads(self, tmp_path):
        # A cache written before members were padded maps indices at an
        # odd offset; it loads, and colors like the source graph.
        import zipfile

        from numpy.lib import format as npf

        from repro.coloring.registry import color
        g = gnm_random(20000, 80000, seed=9)
        npz = str(tmp_path / "old.npz")
        with zipfile.ZipFile(npz, "w", zipfile.ZIP_STORED,
                             allowZip64=True) as zf:
            for key, arr in (("indptr", g.indptr), ("indices", g.indices),
                             ("name", np.asarray("old"))):
                with zf.open(key + ".npy", "w", force_zip64=True) as out:
                    npf.write_array(out, arr)
        old = ingest_mod._load_cached(npz, None)
        assert isinstance(old.indices.base, np.memmap)
        assert not old.indices.flags.aligned
        assert old.name == "old"
        # The sweep, the peel (SL) and the ITR level pass each take it.
        for algorithm in ("JP-ADG", "JP-SL", "DEC-ADG-ITR"):
            np.testing.assert_array_equal(color(algorithm, old).colors,
                                          color(algorithm, g).colors)

    def test_file_digest_matches_hashlib(self, tmp_path):
        import hashlib
        path = self._file(tmp_path)
        with open(path, "rb") as fh:
            ref = hashlib.sha256(fh.read()).hexdigest()
        assert file_digest(path) == ref


# -- the compiled CSR build ---------------------------------------------------

class _NoBuild:
    """Stands in for the edgeparse library when it cannot be built."""

    def load(self):
        return None


def _require_c():
    if ingest_mod._CPARSER.load() is None:
        pytest.skip("no C compiler: the compiled build is unavailable")


def _assert_builds_agree(path, **kw):
    """The compiled build's CSR equals the NumPy build's; returns it."""
    got = _ingest(path, **kw)
    with mock.patch.object(ingest_mod, "_CPARSER", _NoBuild()):
        ref = _ingest(path, **kw)
    assert got.content_digest == ref.content_digest
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    return got


def _row_lengths_text(rng):
    """Edges whose duplicate-adjacency rows have 0, 1, 16, 17 and ~3000
    entries, with repeats, in shuffled order."""
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
    """The C count/scatter/compact passes against the NumPy oracle."""

    def test_row_lengths_both_sort_branches(self, tmp_path):
        _require_c()
        path = _write(tmp_path, _row_lengths_text(np.random.default_rng(3)))
        g = _assert_builds_agree(path)
        assert sorted(set(np.diff(g.indptr).tolist()) & {0, 1, 16, 17}) \
            == [0, 1, 16, 17]
        assert int(g.degrees.max()) == 2900
        assert g.content_digest == read_edge_list(path).content_digest

    def test_three_byte_ids(self, tmp_path):
        # n > 65536: the radix sort needs its third byte pass.
        _require_c()
        rng = np.random.default_rng(4)
        n = 70_000
        hub = rng.choice(np.arange(1, n), 3000, replace=False)
        lines = [f"{i} {i + 1}" for i in range(1, n - 1)]
        lines += [f"0 {h}" for h in hub.tolist()]
        path = _write(tmp_path, "".join(f"{x}\n" for x in lines))
        g = _assert_builds_agree(path, chunk_bytes=1 << 16)
        assert g.n == n

    def test_duplicates_and_self_loop_lines(self, tmp_path):
        _require_c()
        text = "3 3\n3 3\n1 2\n2 1\n1 2\n9 9\n2 4\n4 2\n4 4\n"
        path = _write(tmp_path, text)
        g = _assert_builds_agree(path)
        assert (g.n, g.m) == (5, 2)

    def test_self_loops_only(self, tmp_path):
        _require_c()
        path = _write(tmp_path, "1 1\n2 2\n")
        g = _assert_builds_agree(path)
        assert (g.n, g.m) == (2, 0)

    def test_negative_ids_from_python_tier(self, tmp_path):
        _require_c()
        path = _write(tmp_path, "-5 3\n3 -5\n-7 -5\n-7 -7\n12 -5\n")
        got, rep = ingest_report(path, cache=False)
        assert rep["parser_used"] == "python"
        _assert_builds_agree(path)
        assert got.content_digest == read_edge_list(path).content_digest

    def test_small_chunks_threaded(self, tmp_path):
        _require_c()
        g0 = kronecker(scale=9, edge_factor=8, seed=6)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        got = _assert_builds_agree(path, chunk_bytes=4096,
                                   backend="threaded", workers=2)
        assert got.content_digest == read_edge_list(path).content_digest

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                    max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_property_c_matches_numpy(self, tmp_path_factory, edges):
        _require_c()
        tmp = tmp_path_factory.mktemp("cbuild")
        path = _write(tmp, "".join(f"{a} {b}\n" for a, b in edges))
        _assert_builds_agree(path, chunk_bytes=4096)

    def test_numpy_build_without_library(self, tmp_path):
        g0 = gnm_random(150, 900, seed=8)
        path = str(tmp_path / "g.el")
        write_edge_list(g0, path)
        calls = []

        def spy(name, fn):
            def wrapped(*a, **kw):
                calls.append(name)
                return fn(*a, **kw)
            return wrapped

        with mock.patch.object(ingest_mod, "_CPARSER", _NoBuild()), \
                mock.patch.object(ingest_mod, "_scatter_numpy",
                                  spy("scatter", ingest_mod._scatter_numpy)), \
                mock.patch.object(ingest_mod, "_compact_numpy",
                                  spy("compact", ingest_mod._compact_numpy)), \
                mock.patch.object(ingest_mod, "_spill_rows_c",
                                  spy("c", ingest_mod._spill_rows_c)):
            got = _ingest(path, chunk_bytes=4096)
        assert "scatter" in calls and "compact" in calls
        assert "c" not in calls
        assert got.content_digest == read_edge_list(path).content_digest


def _spill(tmp_path, chunks, vocab_global):
    """Write a hand-made spill: chunks are (chunk vocab, codes) pairs."""
    vocab_path = str(tmp_path / "vocab.bin")
    codes_path = str(tmp_path / "codes.bin")
    metas = []
    with open(vocab_path, "wb") as vf, open(codes_path, "wb") as cf:
        for vocab, codes in chunks:
            np.asarray(vocab, np.int64).tofile(vf)
            np.asarray(codes, np.int32).tofile(cf)
            metas.append((len(vocab), len(codes) // 2))
    return vocab_path, codes_path, metas, np.asarray(vocab_global, np.int64)


def _build(tmp_path, spilled):
    with ExecutionContext(backend="serial") as ctx:
        return ingest_mod._build_csr_from_spill(
            str(tmp_path), *spilled, ctx, 4096, "spill")


class TestCompiledBuildGuards:
    """An inconsistent spill raises on the C path, never builds a CSR."""

    def test_consistent_spill_builds(self, tmp_path):
        _require_c()
        # Edges 10-20, 20-30, 30-30 (a self-loop), in two chunks.
        spilled = _spill(tmp_path, [([10, 20], [0, 1, 1, 0]),
                                    ([20, 30], [0, 1, 1, 1])],
                         [10, 20, 30])
        g = _build(tmp_path, spilled)
        assert g.indptr.tolist() == [0, 1, 3, 4]
        assert g.indices.tolist() == [1, 0, 2, 1]

    @pytest.mark.parametrize("bad", [2, -1])
    def test_code_outside_chunk_vocab(self, tmp_path, bad):
        _require_c()
        spilled = _spill(tmp_path, [([10, 20], [0, bad, 1, 0])],
                         [10, 20])
        with pytest.raises(RuntimeError, match="outside its vocabulary"):
            _build(tmp_path, spilled)

    def test_chunk_id_beyond_global_vocab(self, tmp_path):
        _require_c()
        spilled = _spill(tmp_path, [([10, 99], [0, 1])], [10, 20])
        with pytest.raises(RuntimeError, match="outside its vocabulary"):
            _build(tmp_path, spilled)

    def test_truncated_spill(self, tmp_path):
        vocab_path, codes_path, metas, vg = _spill(
            tmp_path, [([10, 20], [0, 1])], [10, 20])
        metas = [(2, 5)]  # claims five edges, the file holds one
        with pytest.raises(RuntimeError, match="truncated"):
            _build(tmp_path, (vocab_path, codes_path, metas, vg))

    def test_row_cursor_cannot_pass_its_end(self):
        _require_c()
        fn = ingest_mod._cfunc("spill_rows")
        remap = np.arange(3, dtype=np.int64)
        codes = np.array([0, 0, 1, 2], np.int32)  # edges 0-1, 0-2
        cursor = np.array([0, 1, 2], np.int64)
        end = np.array([1, 2, 3], np.int64)       # row 0 holds one entry
        adj = np.full(3, -1, np.int64)
        with pytest.raises(RuntimeError, match="more entries"):
            ingest_mod._spill_rows_c(fn, remap, codes, 2, cursor, end, adj)

    def _shifting_spill(self, corrupt):
        """A spill whose second read (the scatter) differs from the first."""
        real = ingest_mod._spill_chunks
        reads = []

        def chunks(*a):
            reads.append(1)
            for remap, codes, ne in real(*a):
                if len(reads) > 1:
                    codes = corrupt(codes.copy(), ne)
                yield remap, codes, ne
        return mock.patch.object(ingest_mod, "_spill_chunks", chunks)

    def test_scatter_overflow_raises_from_ingest(self, tmp_path):
        _require_c()
        path = _write(tmp_path, "0 1\n1 2\n2 3\n3 4\n")

        def all_from_row0(codes, ne):
            codes[:ne] = 0
            return codes
        with self._shifting_spill(all_from_row0), \
                pytest.raises(RuntimeError, match="more entries"):
            _ingest(path)

    def test_kept_totals_must_match(self, tmp_path):
        _require_c()
        path = _write(tmp_path, "0 1\n1 2\n2 3\n3 4\n")

        def self_loop(codes, ne):
            codes[ne] = codes[0]  # the first edge becomes a self-loop
            return codes
        with self._shifting_spill(self_loop), \
                pytest.raises(RuntimeError, match="the scatter kept"):
            _ingest(path)


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
