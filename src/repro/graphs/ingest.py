"""Streaming edge-list ingestion: block parse + in-memory CSR build.

The paper's corpus is real SNAP/KONECT edge-list downloads; reading one
through :func:`repro.graphs.io.read_edge_list`'s per-line Python loop
takes minutes and many GB of interpreter objects.  This module is the
scale path (DESIGN.md "Ingestion at scale"):

1. the (optionally gzipped) file is read once, sequentially, in blocks
   of whole lines (:data:`BLOCK_BYTES` per read, the partial last line
   carried into the next block), and each block is parsed by a
   compiled tokenizer with no per-line Python, inside the
   ``ingest.parse`` phase.  A malformed block raises on its first
   parse.  With a cache directory the same loop hashes the raw bytes
   for the cache key.  ``backend``/``workers`` are recorded in the
   report and do not change how blocks are parsed;
2. each block's ids are coded against one running first-seen id
   space (a compiled hash table: O(n) state, never a Python dict), so
   a block is kept as its int32 codes alone; sorting the distinct ids
   once at the end gives ``np.unique`` semantics (ids numbered in
   sorted order);
3. the CSR is built in memory by three compiled passes: a degree count
   (which also rewrites each code as its vertex) and a scatter of each
   kept edge once, in its canonical min->max direction, into an int32
   adjacency; a per-row sort + dedupe in place; and a symmetrization
   into the final int64 CSR.  Over the interpreter, peak RSS is a few
   MiB of block transients plus at most 8 bytes per edge line + 24 per
   vertex while parsing, 12 + 16 while scattering, against the CSR's
   8 per line (16 when each edge is listed once) + 8 per vertex: under
   twice the CSR whenever the file has more lines than vertices,
   1.2-1.6x measured (``bench_ingest.py``).
   Without a compiler (or past 2**31 - 1 distinct ids) the blocks go
   through ``from_edges``, the legacy reader's builder and the compiled
   build's test oracle, which holds every id as int64 at once and has
   no such bound;
4. the result is stored in a digest-keyed binary cache: the CSR's
   ``indptr`` and ``indices`` as two ``.npy`` files, plus a JSON
   manifest carrying mtime/size, the parse options, the graph's name,
   ``n``, ``m`` and digest.  A repeat load memory-maps the two arrays,
   so it is near-instant and the service ``load`` op can open a cached
   graph without re-parsing.

The output is bit-identical to ``read_edge_list`` (same CSR digest) on
every input both accept: same comment/blank-line skipping, arbitrary
non-negative ids compacted to ``0..n-1`` in sorted order, self-loops
dropped, duplicates merged, edges symmetrized.

Tokenizer tiers
---------------
Each block takes the first tier that built and can prove the block
clean, in this order; no option pins one (the report's
``parser_used`` names the tiers that ran):

- ``c`` — a ~60-line C scanner (``csrc/edgeparse.c``) in the library
  :mod:`repro.primitives.cbuild` builds with the system C compiler (about
  GB/s; skipped silently when no compiler is present);
- ``python`` — the legacy per-line loop, kept as the semantic ground
  truth and the no-compiler path.  Blocks the C scanner cannot prove
  clean (stray bytes, ragged lines, oversized ids) re-parse on this
  tier, so malformed input raises exactly like ``read_edge_list``.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import io
import json
import os
import time
import warnings

import numpy as np

from ..primitives import cbuild
from ..runtime.context import resolve_context
from .builders import from_edges
from .csr import CSRGraph

#: Bytes per read of the block reader.  A block's parse transients
#: (its bytes, the tokenizer's id arrays, its codes) come to a few
#: times its size on top of the codes kept so far: 1 MiB keeps them a
#: few MiB, and is big enough that the per-block fixed costs vanish.
BLOCK_BYTES = 1 << 20
CACHE_SCHEMA = "repro.ingest-cache/v2"
CACHE_ENV = "REPRO_INGEST_CACHE"

# -- tier 1: compiled C scanner (csrc/edgeparse.c) ---------------------------

def _parse_c(data: bytes, comments: str):
    """C-tier parse, or None when unavailable / the chunk is not clean."""
    if len(comments) != 1 or not comments.isascii():
        return None
    fn = cbuild.entry("repro_parse_edges")
    if fn is None:
        return None
    # Each line is >= 4 bytes ("a b\n") and yields at most one edge.
    # np.empty never touches the pages, so the slack costs address
    # space, not RSS, and skips a newline-counting pass over the data.
    cap = len(data) // 4 + 2
    u = np.empty(cap, np.int64)
    v = np.empty(cap, np.int64)
    ptr = ctypes.POINTER(ctypes.c_longlong)
    # 8 pad spaces license the scanner's unconditional 8-byte loads.
    m = fn(data + b" " * 8, len(data), ord(comments),
           u.ctypes.data_as(ptr), v.ctypes.data_as(ptr))
    if m < 0:
        return None  # python tier re-parses and raises the real error
    # cap tracks the newline count, so these views waste ~2 slots of
    # their buffers; no copy needed.
    return u[:m], v[:m]


# -- tier 2: per-line Python (ground truth) -----------------------------------

def _parse_python(data: bytes, comments: str):
    """The legacy reader's loop, byte-for-byte semantics included."""
    text = data.decode("utf-8")
    # Universal-newline translation, matching open(path, "r").
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    us: list[int] = []
    vs: list[int] = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith(comments):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {line!r}")
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
    return (np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))


def _parse_block(data: bytes, comments: str):
    """``(u, v, tier)`` of one block of whole lines: C if it built and
    the block scans clean, else Python."""
    out = _parse_c(data, comments)
    if out is not None:
        return out[0], out[1], "c"
    u, v = _parse_python(data, comments)
    return u, v, "python"


def parse_edge_bytes(data: bytes,
                     comments: str = "#") -> tuple[np.ndarray, np.ndarray]:
    """Parse raw edge-list bytes into (u, v) int64 arrays.

    Same line grammar as ``read_edge_list``; the fastest available
    tokenizer tier is used and unclean input transparently re-parses
    on the Python tier (which raises the legacy errors).
    """
    u, v, _ = _parse_block(data, comments)
    return u, v


# -- id compaction -------------------------------------------------------------

#: The most distinct ids the compiled build codes (its codes are int32).
#: A file with more goes through ``from_edges`` instead; tests lower it
#: to reach that hand-off.
MAX_CODES = int(np.iinfo(np.int32).max)


class _Encoder:
    """Every parsed id's first-seen int32 code, in one running space.

    ``repro_encode``'s table (int32 codes, -1 empty, kept under 2/3
    full) and ``vocab`` (the distinct ids in code order) are O(n) state
    however many blocks a file has, so a parsed block is kept as its
    int32 codes alone.
    """

    def __init__(self, fn) -> None:
        self._fn = fn
        self._slots = np.full(1 << 12, -1, np.int32)
        self._vocab = np.empty(1 << 11, np.int64)
        self.d = 0

    @property
    def vocab(self) -> np.ndarray:
        """The distinct ids so far, in first-seen (code) order."""
        return self._vocab[:self.d]

    def _insert(self, vals: np.ndarray, codes) -> None:
        vals = np.ascontiguousarray(vals, dtype=np.int64)
        self.d = self._fn(vals.ctypes.data, vals.size,
                          self._slots.ctypes.data, self._slots.size,
                          self._vocab.ctypes.data, self.d,
                          None if codes is None else codes.ctypes.data)

    def encode(self, *parts: np.ndarray):
        """The codes of ``parts``' ids, back to back as int32, or None
        when the distinct ids could pass :data:`MAX_CODES`."""
        k = sum(int(p.size) for p in parts)
        need = self.d + k
        if need > MAX_CODES:
            return None
        if need > self._vocab.size:
            vocab = np.empty(max(need, self._vocab.size * 3 // 2), np.int64)
            vocab[:self.d] = self.vocab
            self._vocab = vocab
        if 3 * need > 2 * self._slots.size:
            # Re-inserting the distinct ids in code order gives every
            # one its old code in the larger table.
            self._slots = np.full(1 << (3 * need // 2).bit_length(), -1,
                                  np.int32)
            old, self.d = self.vocab, 0
            self._insert(old, None)
        codes = np.empty(k, np.int32)
        off = 0
        for p in parts:
            self._insert(p, codes[off:off + p.size])
            off += p.size
        return codes

    def release_ranks(self) -> np.ndarray:
        """Every code's vertex (:func:`_ranks` of the ids' order); drops
        the table and the ids, which nothing needs after this."""
        self._slots = None
        order = np.argsort(self.vocab)
        self._vocab = None
        self.d = 0
        rank = _ranks(order)
        del order
        _malloc_trim()
        return rank


def _ranks(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``order`` as int32: with ``order``
    the argsort of the distinct ids, each first-seen code's place in
    sorted order, i.e. the map to ``np.unique``'s inverse codes."""
    rank = np.empty(order.size, np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return rank


# -- the sequential block reader ----------------------------------------------

def _is_gzip(path: str) -> bool:
    if os.fspath(path).endswith(".gz"):
        return True
    with open(path, "rb") as fh:
        return fh.read(2) == b"\x1f\x8b"


class _HashingReader(io.RawIOBase):
    """A raw binary file whose every read also feeds a hash, booked to
    the ``ingest.cache`` phase (it is the cache key's work, wherever
    the read happens).  :func:`_read_blocks` reads it through a
    ``BLOCK_BYTES`` buffer, so the phase opens once per block read
    however small the reads above the buffer are (``GzipFile`` pulls
    8 KiB at a time)."""

    def __init__(self, fh, h, ctx) -> None:
        super().__init__()
        self._fh = fh
        self._h = h
        self._ctx = ctx

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(buf)
        if n:
            with self._ctx.phase("ingest.cache"):
                self._h.update(memoryview(buf)[:n])
        return n


def _read_blocks(path: str, gz: bool, h=None, ctx=None):
    """The file's (decompressed) text as blocks of whole lines.

    One sequential pass, ``BLOCK_BYTES`` at a time, for plain and gzip
    files alike: the partial last line of each read carries into the
    next block.  With a hash ``h`` (and the ``ctx`` that books it),
    every raw byte read (for gzip, the compressed bytes) also feeds
    ``h``, so the cache key needs no second read of the file.
    """
    with open(path, "rb") as raw:
        src = raw if h is None else io.BufferedReader(
            _HashingReader(raw, h, ctx), BLOCK_BYTES)
        stream = gzip.GzipFile(fileobj=src, mode="rb") if gz else src
        carry = b""
        blocks = 0
        while True:
            data = stream.read(BLOCK_BYTES)
            if not data:
                break
            # A line ends at LF, CR or CRLF; a CRLF split between two
            # reads leaves the next block a blank first line.
            nl = data.rfind(b"\n")
            cut = max(nl, data.rfind(b"\r", nl + 1)) + 1
            if not cut:
                carry += data
                continue
            block = b"".join((carry, memoryview(data)[:cut]))
            carry = data[cut:]
            del data  # only the block stays alive while it is parsed
            blocks += 1
            yield block
        # An unterminated last line, or an empty file's one empty block.
        if carry or not blocks:
            yield carry


# -- digest-keyed binary cache -------------------------------------------------

def file_digest(path: str) -> str:
    """sha256 of the file's raw bytes (compressed bytes for .gz)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(BLOCK_BYTES)
            if not chunk:
                return h.hexdigest()
            h.update(chunk)


def resolve_cache_dir(path: str, cache_dir=None, cache: bool = True):
    """The cache directory for ``path``, or None when caching is off.

    Precedence: ``cache=False`` > explicit ``cache_dir`` >
    ``$REPRO_INGEST_CACHE`` (a directory, or 0/off/none to disable) >
    ``<file's directory>/.repro_ingest``.
    """
    if not cache:
        return None
    if cache_dir:
        return os.fspath(cache_dir)
    env = os.environ.get(CACHE_ENV, "").strip()
    if env.lower() in ("0", "off", "none", "false"):
        return None
    if env:
        return env
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    return os.path.join(parent, ".repro_ingest")


def _options_tag(comments: str) -> str:
    return hashlib.sha256(f"comments={comments}".encode()).hexdigest()[:8]


def _cache_stem(cdir: str, sha: str, comments: str) -> str:
    """An entry's path minus its suffixes: the manifest is
    ``<stem>.json``, the arrays ``<stem>.indptr.npy`` and
    ``<stem>.indices.npy``."""
    return os.path.join(cdir, f"{sha[:24]}-{_options_tag(comments)}")


#: The CSR arrays a cache entry holds, one ``.npy`` file each.
_CACHE_ARRAYS = ("indptr", "indices")


def _load_cached(stem: str, man: dict, name: str | None) -> CSRGraph | None:
    """The entry's CSR, its arrays memory-mapped read-only, or None (a
    miss) when an array file is missing or short, or the arrays' ``n``
    and ``m`` are not the manifest's.

    ``np.save`` pads each header so the array data starts 64-byte
    aligned, so the mapped arrays reach the compiled passes uncopied.
    """
    try:
        indptr, indices = (
            np.asarray(np.load(f"{stem}.{key}.npy", mmap_mode="r",
                               allow_pickle=False))
            for key in _CACHE_ARRAYS)
    except (OSError, ValueError, EOFError):
        return None
    g = CSRGraph(indptr=indptr, indices=indices,
                 name=name or str(man.get("name", "graph")))
    if (g.n, g.m) != (man.get("n"), man.get("m")):
        return None
    _seed_digest(g, man)
    return g


def _seed_digest(g: CSRGraph, man: dict) -> None:
    """Pre-fill ``content_digest`` from the manifest on a cache hit.

    The manifest recorded the digest when the arrays were written, so a
    warm load need not re-hash 2m+n words — that hash would otherwise
    dominate the warm path.  ``cached_property`` stores through the
    instance ``__dict__``, which works on the frozen dataclass too.
    """
    d = man.get("graph_digest")
    if isinstance(d, str) and d:
        g.__dict__["content_digest"] = d


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def cache_lookup(cdir: str, apath: str, comments: str,
                 name: str | None = None):
    """Find a cached CSR for ``apath``: ``(graph, mode, file_sha)``.

    ``mode`` is ``"stat"`` (manifest matched on path+size+mtime — no
    bytes hashed), ``"digest"`` (stat changed but the content hash
    still matches a stored entry; the manifest's stat fields are
    refreshed), or ``None`` on a miss.  ``file_sha`` is returned when
    it had to be computed, so a following store can reuse it.
    """
    if not os.path.isdir(cdir):
        return None, None, None
    try:
        st = os.stat(apath)
    except OSError:
        return None, None, None
    manifests = []
    for mpath in sorted(glob.glob(os.path.join(cdir, "*.json"))):
        try:
            with open(mpath, "r", encoding="utf-8") as fh:
                man = json.load(fh)
        except (OSError, ValueError):
            continue
        if man.get("schema") != CACHE_SCHEMA \
                or man.get("comments") != comments:
            continue
        manifests.append((mpath, man))
        if man.get("source") == apath and man.get("size") == st.st_size \
                and man.get("mtime_ns") == st.st_mtime_ns:
            g = _load_cached(mpath[:-5], man, name)
            if g is not None:
                return g, "stat", None
    # Stat mismatch (moved/touched file): one content hash decides.
    sha = file_digest(apath)
    for mpath, man in manifests:
        if man.get("file_sha256") != sha:
            continue
        g = _load_cached(mpath[:-5], man, name)
        if g is not None:
            man.update(source=apath, size=st.st_size,
                       mtime_ns=st.st_mtime_ns)
            try:
                _write_json(mpath, man)
            except OSError:
                pass
            return g, "digest", sha
    return None, None, sha


def _malloc_trim() -> None:
    """Hand freed heap back to the kernel (glibc only; no-op elsewhere).

    glibc's dynamic mmap threshold keeps multi-MiB numpy scratch
    buffers on the main heap once a few have been freed, so the
    build passes' high-water mark would otherwise stay in RSS under
    the final CSR arrays.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def cache_store(cdir: str, apath: str, comments: str, g: CSRGraph,
                sha: str) -> bool:
    """Write the entry's two ``.npy`` files, then its manifest; False
    on IO error.

    Each file is written to a temp name and renamed into place, so a
    live mapping of the old file is never truncated.  ``np.save``
    writes a C-contiguous array straight from its buffer (no copy on
    top of the resident CSR) and uncompressed, which is what lets a
    warm load map it.  The manifest is written last — its presence
    implies complete arrays.
    """
    try:
        st = os.stat(apath)
        os.makedirs(cdir, exist_ok=True)
        stem = _cache_stem(cdir, sha, comments)
        for key in _CACHE_ARRAYS:
            path = f"{stem}.{key}.npy"
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                np.save(fh, getattr(g, key), allow_pickle=False)
            os.replace(tmp, path)
        _write_json(f"{stem}.json", {
            "schema": CACHE_SCHEMA, "source": apath,
            "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "comments": comments, "file_sha256": sha, "name": g.name,
            "n": int(g.n), "m": int(g.m),
            "graph_digest": g.content_digest,
            "created": time.time(),
        })
        return True
    except OSError as exc:
        warnings.warn(f"ingest cache write failed ({exc}); continuing "
                      "without a cache entry", RuntimeWarning,
                      stacklevel=2)
        return False


# -- the in-memory CSR build --------------------------------------------------

def _canon_rows_c(fn, rank, codes, ne: int, cur, end=None,
                  adj=None) -> int:
    """One block through ``repro_canon_rows``; its kept edge count.

    With ``rank`` the block's codes are rewritten in place as their
    rows (``rank=None``: they are rows already).  Counts into ``cur``
    when ``adj`` is None, else scatters into the int32 ``adj``.  Python
    checks the codes' length, the C every code, row and cursor before
    indexing with it; a violation means the blocks contradict
    themselves, and raises ``RuntimeError`` instead of building a wrong
    CSR.
    """
    if codes.dtype != np.int32 or not codes.flags.c_contiguous \
            or not codes.flags.writeable:
        raise TypeError("block codes must be a writeable C-contiguous "
                        "int32 array")
    if codes.size != 2 * ne:
        raise RuntimeError("ingest block is truncated: its codes do not "
                           "hold two per edge")
    if rank is not None:
        rank = np.ascontiguousarray(rank, dtype=np.int32)
    kept = fn(codes.ctypes.data, ne,
              None if rank is None else rank.ctypes.data,
              cur.size if rank is None else rank.size, cur.size,
              cur.ctypes.data, None if end is None else end.ctypes.data,
              None if adj is None else adj.ctypes.data)
    if kept == -1:
        raise RuntimeError("ingest blocks are inconsistent: a code or row "
                           "lies outside its vocabulary")
    if kept == -2:
        raise RuntimeError("ingest blocks are inconsistent: a row got more "
                           "entries than the degree pass counted")
    return kept


def _build_from_edges(blocks: list, ctx, name: str) -> CSRGraph:
    """The build without the compiled library (or past
    :data:`MAX_CODES`): the blocks' ``(u, v)`` ids compacted to
    0..n-1, then ``from_edges``, the legacy reader's own builder.
    Unlike the compiled build, it holds every id as int64 at once."""
    with ctx.phase("ingest.scatter"):
        # Every block's u ids, then every block's v ids.
        uv = np.concatenate([np.empty(0, np.int64)]
                            + [b[0] for b in blocks] + [b[1] for b in blocks])
        blocks.clear()
        vocab, inv = np.unique(uv, return_inverse=True)
        del uv
    with ctx.phase("ingest.compact"):
        m = inv.size // 2
        return from_edges(inv[:m], inv[m:], n=int(vocab.size), name=name)


def _build_csr(blocks: list, enc, ctx, name: str) -> CSRGraph:
    """The CSR of the parsed blocks, built in memory; empties ``blocks``
    and releases ``enc``.

    ``blocks`` holds each block's ``(codes, n_edges)``: int32 codes,
    the block's u codes then its v codes, from the encoder ``enc``,
    whose ranks (each id's place in sorted order) map every code to its
    vertex.  Each kept edge is counted, then scattered once, in the
    canonical min->max direction, into an int32 adjacency; each row is
    sorted and deduped in place; the final int64 CSR is then written
    symmetrized, row r being every s with r in up(s), ascending, then
    up(r).  Storing one direction in int32 keeps the transient
    adjacency at a quarter of the final indices (half when the file
    lists every edge both ways).
    """
    canon_rows = cbuild.entry("repro_canon_rows")
    with ctx.phase("ingest.count"):
        rank = enc.release_ranks()
        n = int(rank.size)
        rows = np.zeros(n + 1, np.int64)
        kept = 0
        # The degree pass also rewrites every code as its row.
        for codes, ne in blocks:
            kept += _canon_rows_c(canon_rows, rank, codes, ne, rows[1:])
        del rank
        np.cumsum(rows, out=rows)

    with ctx.phase("ingest.scatter"):
        adj = np.empty(kept, np.int32)
        cursor = rows[:-1].copy()
        scattered = 0
        while blocks:
            codes, ne = blocks.pop(0)
            scattered += _canon_rows_c(canon_rows, None, codes, ne,
                                       cursor, rows[1:], adj)
            del codes
        del cursor
        # No row overflowed, so equal totals mean every row was filled
        # exactly.
        if scattered != kept:
            raise RuntimeError(
                "ingest blocks are inconsistent: the scatter kept "
                f"{scattered} edges, the degree pass {kept}")
        _malloc_trim()

    with ctx.phase("ingest.compact"):
        # updeg holds the row lengths until sort_rows overwrites it
        # with the deduped ones.
        updeg = np.empty(n, np.int64)
        np.subtract(rows[1:], rows[:-1], out=updeg)
        tmp = np.empty(int(updeg.max()) if n else 0, np.int32)
        nbytes = max(1, ((n - 1).bit_length() + 7) // 8)
        total = cbuild.entry("repro_sort_rows")(
            adj.ctypes.data, rows.ctypes.data, n, nbytes, tmp.ctypes.data,
            updeg.ctypes.data)
        del tmp, rows
        # The deduped rows sit at the front; realloc hands the tail
        # back (half of adj when the file lists every edge both ways),
        # and the trim returns it and the row offsets to the kernel
        # before the final CSR is written.
        adj.resize(total, refcheck=False)
        _malloc_trim()
        indptr = np.empty(n + 1, np.int64)
        indices = np.empty(2 * total, np.int64)
        if cbuild.entry("repro_symmetrize")(
                adj.ctypes.data, total, updeg.ctypes.data, n,
                indptr.ctypes.data, indices.ctypes.data):
            raise RuntimeError("ingest build is inconsistent: a deduped "
                               "row holds an entry outside its range")
        del adj, updeg
        _malloc_trim()
    return CSRGraph(indptr=indptr, indices=indices, name=name)


# -- the public entry points ---------------------------------------------------

def ingest_report(path, *, comments: str = "#", name: str | None = None,
                  ctx=None, backend: str | None = None,
                  workers: int | None = None, cache: bool = True,
                  cache_dir=None, force: bool = False
                  ) -> tuple[CSRGraph, dict]:
    """:func:`ingest`, plus a report dict (timings, tiers, cache mode)."""
    apath = os.path.abspath(os.fspath(path))
    st = os.stat(apath)  # missing file raises here, like open() would
    t0 = time.perf_counter()
    report: dict = {"path": apath, "file_bytes": int(st.st_size),
                    "cached": False,
                    "backend": None, "workers": None}
    gz = _is_gzip(apath)
    cdir = resolve_cache_dir(apath, cache_dir, cache)
    sha = None
    if cdir and not force:
        g, mode, sha = cache_lookup(cdir, apath, comments, name)
        if g is not None:
            # Same keys as a cold parse; those describing the parse
            # that did not run read None (phase_walls {}).
            wall = time.perf_counter() - t0
            report.update(cached=mode, n=int(g.n), m=int(g.m),
                          digest=g.content_digest, gz=gz,
                          raw_bytes=None, edges_in=None, ranges=None,
                          wall_s=wall, phase_walls={}, parser_used=None,
                          mb_per_s=st.st_size / 1e6 / max(wall, 1e-9),
                          edges_per_s=None)
            return g, report

    gname = name or os.path.basename(os.fspath(path))
    # The cache key is hashed from the bytes the parse reads anyway.
    hasher = hashlib.sha256() if cdir and sha is None else None
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers)
    try:
        # Compiled: each block's (codes, n_edges) against one running
        # id space; otherwise (or past MAX_CODES) its (u, v) ids.
        encode = cbuild.entry("repro_encode")
        enc = _Encoder(encode) if encode else None
        blocks: list = []
        tiers: set[str] = set()
        edges_in = raw_bytes = 0
        with ctx.phase("ingest.parse"):
            for i, data in enumerate(_read_blocks(apath, gz, hasher, ctx)):
                raw_bytes += len(data)
                u, v, tier = _parse_block(data, comments)
                del data
                tiers.add(tier)
                edges_in += int(u.size)
                codes = None if enc is None else enc.encode(u, v)
                if codes is not None:
                    blocks.append((codes, int(u.size)))
                else:
                    if enc is not None:  # past MAX_CODES: decode all
                        blocks = [(enc.vocab[c[:ne]], enc.vocab[c[ne:]])
                                  for c, ne in blocks]
                        enc = None
                    blocks.append((u, v))
                del u, v, codes
                # Trimming every block costs ~0.7 ms a pop; the heap
                # high-water only creeps across many blocks, so an
                # occasional trim bounds it just as well.
                if i % 8 == 7:
                    _malloc_trim()
        nblocks = len(blocks)
        if enc is None:
            g = _build_from_edges(blocks, ctx, gname)
        else:
            g = _build_csr(blocks, enc, ctx, gname)
        if cdir:
            with ctx.phase("ingest.cache"):
                sha = sha or hasher.hexdigest()
                cache_store(cdir, apath, comments, g, sha)
        phases = {k: round(v, 6) for k, v in ctx.wall_by_phase.items()
                  if k.startswith("ingest.")}
        backend_used, workers_used = ctx.backend, ctx.workers
    finally:
        if owns:
            ctx.close()

    wall = time.perf_counter() - t0
    report.update(n=int(g.n), m=int(g.m), digest=g.content_digest,
                  gz=gz, raw_bytes=int(raw_bytes), edges_in=edges_in,
                  ranges=nblocks, wall_s=wall, phase_walls=phases,
                  parser_used="+".join(sorted(tiers)),
                  backend=backend_used, workers=workers_used,
                  mb_per_s=raw_bytes / 1e6 / max(wall, 1e-9),
                  edges_per_s=edges_in / max(wall, 1e-9))
    return g, report


def ingest(path, *, comments: str = "#", name: str | None = None,
           ctx=None, backend: str | None = None, workers: int | None = None,
           cache: bool = True, cache_dir=None,
           force: bool = False) -> CSRGraph:
    """Stream an edge-list file (optionally gzipped) into a CSRGraph.

    Digest-identical to ``read_edge_list(path, comments)`` on every
    input both accept, but parses the file in blocks with a compiled
    tokenizer, builds the CSR in memory with compiled passes, and
    memoizes the result in a digest-keyed binary cache (see
    :func:`resolve_cache_dir`).  ``force=True`` re-parses even on a
    cache hit; ``cache=False`` bypasses the cache entirely.
    """
    g, _ = ingest_report(path, comments=comments, name=name, ctx=ctx,
                         backend=backend, workers=workers, cache=cache,
                         cache_dir=cache_dir, force=force)
    return g
