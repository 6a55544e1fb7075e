"""Streaming edge-list ingestion: parallel parse + out-of-core CSR build.

The paper's corpus is real SNAP/KONECT edge-list downloads; reading one
through :func:`repro.graphs.io.read_edge_list`'s per-line Python loop
takes minutes and many GB of interpreter objects.  This module is the
scale path (DESIGN.md "Ingestion at scale"):

1. the (optionally gzipped) file is split into newline-aligned byte
   ranges, and each range is parsed by a vectorized tokenizer with no
   per-line Python — one range per
   :meth:`ExecutionContext.map_chunks` round, so tracer spans
   (``ingest.*`` phases) apply unchanged.  A malformed range raises on
   its first parse.  ``backend``/``workers`` are recorded in the report
   and do not change how ranges are parsed;
2. vertex ids are compacted chunk-locally (``np.unique`` semantics:
   sorted distinct ids + inverse codes, never a Python dict) and each
   chunk vocabulary is merged as it arrives, so coordinator memory
   stays O(n) while the parsed edges spill to disk as compact codes;
3. the CSR is built out-of-core with the classic two-pass counting
   sort — degree histogram, then scatter into an ``np.memmap``-backed
   duplicate-adjacency array under a spill directory, then a per-row
   sort + dedupe — so peak RSS is bounded by a parse range plus the
   final CSR, not 3-4x the edge list.  The three passes run as C in
   the same compiled library as the scanner (one call per spilled
   chunk, one per row batch); without a compiler the NumPy passes,
   which are also the C's test oracle, build the identical CSR;
4. the result is stored in a digest-keyed binary cache
   (``<file-digest>.npz`` + a JSON manifest carrying mtime/size and the
   parse options), so repeat loads are near-instant and the service
   ``load`` op can open a cached graph without re-parsing.

The output is bit-identical to ``read_edge_list`` (same CSR digest) on
every input both accept: same comment/blank-line skipping, arbitrary
non-negative ids compacted to ``0..n-1`` in sorted order, self-loops
dropped, duplicates merged, edges symmetrized.

Tokenizer tiers
---------------
``auto`` (default) picks the fastest available tier per chunk and falls
back transparently; ``$REPRO_INGEST_PARSER`` or ``parser=`` pins one:

- ``c`` — a ~60-line C scanner compiled once with the system C compiler
  and loaded via ctypes through :mod:`repro.primitives.cbuild` (about
  GB/s; skipped silently when no compiler is present);
- ``numpy`` — ``np.fromstring`` over comment-stripped bytes after a
  vectorized digits/whitespace structure check (hundreds of MB/s);
- ``python`` — the legacy per-line loop, kept as the semantic ground
  truth.  Chunks the fast tiers cannot prove clean (stray bytes,
  ragged lines, oversized ids) re-parse on this tier, so malformed
  input raises exactly like ``read_edge_list`` on every tier.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import json
import mmap
import os
import shutil
import tempfile
import time
import warnings

import numpy as np

from ..primitives.cbuild import CLibrary
from ..runtime.context import resolve_context
from .csr import CSRGraph

# 2 MiB keeps a parse chunk's arrays and the build passes' transients
# well under the final CSR while staying big enough that the per-chunk
# fixed costs vanish; it also measured faster than 4 MiB single-core
# (smaller working sets are kinder to the caches).  The compiled build
# holds one chunk's codes and remap plus a row batch's sort buffers
# (2 MiB, or the longest row); the NumPy fallback's sorts hold ~5-6x a
# chunk's edges.
DEFAULT_CHUNK_BYTES = 2 << 20
CACHE_SCHEMA = "repro.ingest-cache/v1"
CACHE_ENV = "REPRO_INGEST_CACHE"
PARSER_ENV = "REPRO_INGEST_PARSER"
_PARSERS = ("auto", "c", "numpy", "python")
_INT64_MAX = np.iinfo(np.int64).max

# -- tier 1: compiled C scanner ------------------------------------------------

# One forward scan per chunk.  Bytes <= 0x20 are separators (space,
# tab, CR, LF — matching str.split()); a line's first token starting
# with the comment byte skips the line; each kept line must open with
# two decimal tokens, anything after them is ignored (SNAP files carry
# timestamps/weights).  Errors return -(offset+1) and the caller
# re-parses the chunk on the Python tier so diagnostics (and the rare
# inputs int() accepts but this scanner does not, e.g. signed ids)
# match the legacy reader exactly.
#
# Tokens are converted eight digits at a time with the classic SWAR
# multiply-mask reduction (the per-digit x = x*10 + d chain is a serial
# multiply dependency and dominates a byte-at-a-time scanner).  The
# Python caller pads every buffer with 8 trailing spaces so the 8-byte
# loads below never run off the chunk.  Overflow checking is deferred:
# a token of <= 18 digits cannot overflow int64, so only 19+-digit
# tokens (after skipping leading zeros) pay a decimal string compare
# against INT64_MAX.
#
# repro_compact64 is the id-compaction sibling: one linear-probe pass
# over the parsed ids that assigns first-seen codes, against which the
# caller then applies a sorted-rank permutation to land on np.unique
# semantics without the O(k log k) argsort of the full value array.
#
# repro_spill_rows and repro_sort_rows are the out-of-core CSR build:
# the first counts (degree pass) or scatters (into the memmap duplicate
# adjacency) one spilled chunk, the second sorts and dedupes one batch
# of rows.  Unlike the scanner they trust no input: every code, row and
# row cursor is checked before it indexes, and a violation returns an
# error code that the caller raises as RuntimeError.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define DIE(pos) (-((long long)(pos) + 1))

/* INT64_MAX in decimal, for the deferred overflow check. */
static const unsigned char MAXDEC[19] = "9223372036854775807";

#if defined(__GNUC__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define REPRO_SWAR 1
#endif

#ifdef REPRO_SWAR
static inline uint64_t load8(const unsigned char *p)
{
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
}

/* 8 ASCII digits (first digit at the lowest address) -> value. */
static inline uint32_t parse8(uint64_t w)
{
    w = (w & 0x0F0F0F0F0F0F0F0FULL) * 2561 >> 8;
    w = (w & 0x00FF00FF00FF00FFULL) * 6553601 >> 16;
    return (uint32_t)((w & 0x0000FFFF0000FFFFULL) * 42949672960001ULL >> 32);
}

/* Per-byte high bit set where the byte is NOT an ASCII digit. */
static inline uint64_t nondigits(uint64_t w)
{
    uint64_t t = w ^ 0x3030303030303030ULL;
    uint64_t hi = t & 0x8080808080808080ULL;
    uint64_t gt = ((t & 0x7F7F7F7F7F7F7F7FULL) + 0x7676767676767676ULL)
                  & 0x8080808080808080ULL;
    return hi | gt;
}
#endif

/* Parse one decimal token at *ip (8 readable pad bytes past n).
   0 = ok (*out set, *ip past the token); -1 = no digits; -2 = overflow. */
static inline int token(const unsigned char *b, long long n, long long *ip,
                        int64_t *out)
{
    long long i = *ip, s = i, nd;
    uint64_t x = 0;
#ifdef REPRO_SWAR
    {
        uint64_t w = load8(b + i);
        uint64_t bad = nondigits(w);
        int len = bad ? (int)(__builtin_ctzll(bad) >> 3) : 8;
        if (len == 0)
            return -1;
        if (len < 8) {          /* whole token in one load: the hot path */
            w = (w << (8 * (8 - len))) | (0x3030303030303030ULL >> (8 * len));
            *out = (int64_t)parse8(w);
            *ip = i + len;
            return 0;
        }
        x = parse8(w);
        i += 8;
    }
#endif
    while (i < n) {
        unsigned c = (unsigned)b[i] - '0';
        if (c > 9)
            break;
        x = x * 10 + c;         /* uint64: wraps, checked below */
        i++;
    }
    nd = i - s;
    if (nd == 0)
        return -1;
    if (nd >= 19) {
        while (nd > 1 && b[s] == '0') { s++; nd--; }
        if (nd > 19 || (nd == 19 && memcmp(b + s, MAXDEC, 19) > 0))
            return -2;
    }
    *out = (int64_t)x;
    *ip = i;
    return 0;
}

long long repro_parse_edges(const unsigned char *b, long long n,
                            unsigned char comment,
                            int64_t *u, int64_t *v)
{
    long long i = 0, m = 0;
    while (i < n) {
        while (i < n && b[i] <= ' ') i++;        /* blank lines too */
        if (i >= n) break;
        if (b[i] == comment) {                   /* comment line */
            while (i < n && b[i] != '\n') i++;
            continue;
        }
        int64_t x, y;
        if (token(b, n, &i, &x)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);  /* junk glued to token */
        while (i < n && b[i] <= ' ' && b[i] != '\n') i++;
        if (i >= n || b[i] == '\n') return DIE(i);   /* one token only */
        if (token(b, n, &i, &y)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);
        u[m] = x; v[m] = y; m++;
        while (i < n && b[i] != '\n') i++;       /* trailing columns */
    }
    return m;
}

/* First-seen-order compaction of k non-negative ids.  keys (size tsize,
   a power of two, pre-filled with -1) and kcode are the caller's probe
   table; distinct values land in vocab in first-seen order, codes[j]
   gets vals[j]'s slot.  Returns the distinct count. */
long long repro_compact64(const int64_t *vals, long long k,
                          int64_t *keys, int32_t *kcode, long long tsize,
                          int64_t *vocab, int32_t *codes)
{
    const uint64_t mask = (uint64_t)tsize - 1;
    long long d = 0, j;
    for (j = 0; j < k; j++) {
        int64_t xv = vals[j];
        uint64_t h = (uint64_t)xv;
        h ^= h >> 33; h *= 0xff51afd7ed558ccdULL; h ^= h >> 33;
        h &= mask;
        while (keys[h] != -1 && keys[h] != xv)
            h = (h + 1) & mask;
        if (keys[h] == -1) {
            keys[h] = xv;
            kcode[h] = (int32_t)d;
            vocab[d] = xv;
            d++;
        }
        codes[j] = kcode[h];
    }
    return d;
}

/* One spilled chunk of the CSR build: codes holds the chunk's ne u
   codes, then its ne v codes, each an index into remap (the chunk
   vocabulary's nv global rows, all < n).  Self-loops are dropped.
   With adj == NULL every kept edge counts both endpoints into cur
   (the degree pass); otherwise both directions are written at
   adj[cur[row]++], never past end[row] (the scatter pass).  Returns
   the kept edge count, -1 when a code or a row is out of range, -2
   when a row cursor would pass its end. */
long long repro_spill_rows(const int32_t *codes, long long ne,
                           const int64_t *remap, long long nv, long long n,
                           int64_t *cur, const int64_t *end, int64_t *adj)
{
    long long j, kept = 0;
    for (j = 0; j < nv; j++)
        if (remap[j] < 0 || remap[j] >= n) return -1;
    for (j = 0; j < ne; j++) {
        const int32_t a = codes[j], b = codes[ne + j];
        int64_t u, v;
        if (a < 0 || a >= nv || b < 0 || b >= nv) return -1;
        u = remap[a];
        v = remap[b];
        if (u == v) continue;
        kept++;
        if (!adj) {
            cur[u]++;
            cur[v]++;
            continue;
        }
        if (cur[u] >= end[u] || cur[v] >= end[v]) return -2;
        adj[cur[u]++] = v;
        adj[cur[v]++] = u;
    }
    return kept;
}

/* LSD radix sort of a[0..len) through tmp, one pass per byte of the
   ids (nbytes covers any id < n); a pass whose byte is the same for
   every entry is skipped. */
static void radix_sort(int64_t *a, int64_t *tmp, long long len, int nbytes)
{
    long long cnt[256], i;
    int64_t *src = a, *dst = tmp, *t;
    int b, d;
    for (b = 0; b < nbytes; b++) {
        const int sh = 8 * b;
        long long s = 0;
        memset(cnt, 0, sizeof cnt);
        for (i = 0; i < len; i++) cnt[(src[i] >> sh) & 255]++;
        if (cnt[(src[0] >> sh) & 255] == len) continue;
        for (d = 0; d < 256; d++) {
            const long long c = cnt[d];
            cnt[d] = s;
            s += c;
        }
        for (i = 0; i < len; i++) dst[cnt[(src[i] >> sh) & 255]++] = src[i];
        t = src; src = dst; dst = t;
    }
    if (src != a) memcpy(a, src, (size_t)len * sizeof *a);
}

/* Sort and dedupe nrows consecutive rows of the duplicate adjacency.
   Row r is adj[rows[r] - rows[0] .. rows[r+1] - rows[0]); its sorted
   distinct entries go to out, rows back to back, and their count to
   deg[r].  Rows of <= 16 entries are insertion-sorted, longer ones
   radix-sorted through tmp (>= the longest row).  Returns the number
   of entries written. */
long long repro_sort_rows(const int64_t *adj, const int64_t *rows,
                          long long nrows, int nbytes, int64_t *out,
                          int64_t *tmp, int64_t *deg)
{
    long long r, w = 0;
    for (r = 0; r < nrows; r++) {
        const long long len = rows[r + 1] - rows[r];
        int64_t *row = out + w;
        long long i, k;
        if (len == 0) {
            deg[r] = 0;
            continue;
        }
        memcpy(row, adj + (rows[r] - rows[0]), (size_t)len * sizeof *row);
        if (len <= 16) {
            for (i = 1; i < len; i++) {
                const int64_t x = row[i];
                long long p = i;
                while (p > 0 && row[p - 1] > x) {
                    row[p] = row[p - 1];
                    p--;
                }
                row[p] = x;
            }
        } else {
            radix_sort(row, tmp, len, nbytes);
        }
        for (k = 1, i = 1; i < len; i++)
            if (row[i] != row[k - 1]) row[k++] = row[i];
        deg[r] = k;
        w += k;
    }
    return w;
}
"""

def _bind_cparser(lib):
    p64 = ctypes.POINTER(ctypes.c_longlong)
    p32 = ctypes.POINTER(ctypes.c_int)
    fn = lib.repro_parse_edges
    fn.restype = ctypes.c_longlong
    fn.argtypes = [ctypes.c_char_p, ctypes.c_longlong, ctypes.c_ubyte,
                   p64, p64]
    cp = lib.repro_compact64
    cp.restype = ctypes.c_longlong
    cp.argtypes = [p64, ctypes.c_longlong, p64, p32, ctypes.c_longlong,
                   p64, p32]
    ptr = ctypes.c_void_p
    sr = lib.repro_spill_rows
    sr.restype = ctypes.c_longlong
    sr.argtypes = [ptr, ctypes.c_longlong, ptr, ctypes.c_longlong,
                   ctypes.c_longlong, ptr, ptr, ptr]
    so = lib.repro_sort_rows
    so.restype = ctypes.c_longlong
    so.argtypes = [ptr, ptr, ctypes.c_longlong, ctypes.c_int, ptr, ptr, ptr]
    return {"parse": fn, "compact": cp, "spill_rows": sr, "sort_rows": so}


_CPARSER = CLibrary("edgeparse", _C_SOURCE, _bind_cparser)


def _cfunc(name: str):
    """One bound function of the edgeparse library, or None unbuilt."""
    funcs = _CPARSER.load()
    return funcs[name] if funcs else None


def _parse_c(data: bytes, comments: str):
    """C-tier parse, or None when unavailable / the chunk is not clean."""
    if len(comments) != 1 or not comments.isascii():
        return None
    fn = _cfunc("parse")
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


# -- tier 2: vectorized NumPy tokenizer ---------------------------------------

def _blank_comment_lines(buf: np.ndarray, cbyte: int) -> np.ndarray | None:
    """Overwrite comment lines with spaces; None when too hairy."""
    pos = np.flatnonzero(buf == cbyte)
    if pos.size == 0:
        return buf
    if pos.size > 4096:  # comment-dense file: not worth vectorizing
        return None
    nl = np.flatnonzero(buf == 10)
    out = buf.copy()
    for p in pos.tolist():
        j = int(np.searchsorted(nl, p))
        start = 0 if j == 0 else int(nl[j - 1]) + 1
        end = int(nl[j]) if j < nl.size else buf.size - 1
        if bool(np.all(out[start:p] <= 32)):  # '#' is the first token
            out[start:end + 1] = 32
    return out


def _parse_numpy(data: bytes, comments: str):
    """Vectorized parse of a provably clean chunk, else None.

    Clean means: after comment lines are blanked, every byte is a
    decimal digit or whitespace and every non-blank line holds exactly
    two tokens.  ``np.fromstring``'s C loop then yields the token
    stream directly; saturated values (ids near 2**63) punt to the
    Python tier, which raises ``OverflowError`` exactly like the
    legacy reader's ``np.asarray``.
    """
    if len(comments) != 1 or not comments.isascii():
        return None
    if not data:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    buf = _blank_comment_lines(buf, ord(comments))
    if buf is None:
        return None
    digit = (buf - np.uint8(48)) < 10  # uint8 wraparound: '0'..'9' only
    ws = buf <= 32
    if int(np.count_nonzero(digit)) + int(np.count_nonzero(ws)) != buf.size:
        return None
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    cum = np.cumsum(starts, dtype=np.int64)
    nl = np.flatnonzero(buf == 10)
    bounds = np.concatenate([[0], cum[nl], [cum[-1]]]) if buf.size \
        else np.zeros(2, np.int64)
    per_line = np.diff(bounds)
    if not bool(np.all((per_line == 0) | (per_line == 2))):
        return None
    text = buf.tobytes().decode("latin-1")  # bytes validated ascii above
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        arr = np.fromstring(text, dtype=np.int64, sep=" ")
    if arr.size and bool(np.any(arr == _INT64_MAX)):
        return None  # saturation is indistinguishable from the real max
    return arr[0::2].copy(), arr[1::2].copy()


# -- tier 3: per-line Python (ground truth) -----------------------------------

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


def resolve_parser(parser: str | None = None) -> str:
    """Tier choice: explicit argument > $REPRO_INGEST_PARSER > auto."""
    p = (parser or os.environ.get(PARSER_ENV, "").strip().lower() or "auto")
    if p not in _PARSERS:
        raise ValueError(f"unknown ingest parser {p!r}; options: {_PARSERS}")
    return p


def _parse_dispatch(data: bytes, comments: str, parser: str):
    if parser in ("auto", "c"):
        out = _parse_c(data, comments)
        if out is not None:
            return out[0], out[1], "c"
    if parser in ("auto", "numpy"):
        out = _parse_numpy(data, comments)
        if out is not None:
            return out[0], out[1], "numpy"
    u, v = _parse_python(data, comments)
    return u, v, "python"


def parse_edge_bytes(data: bytes, comments: str = "#",
                     parser: str | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Parse raw edge-list bytes into (u, v) int64 arrays.

    Same line grammar as ``read_edge_list``; the fastest available
    tokenizer tier is used and unclean input transparently re-parses
    on the Python tier (which raises the legacy errors).
    """
    u, v, _ = _parse_dispatch(data, comments, resolve_parser(parser))
    return u, v


# -- id compaction -------------------------------------------------------------

def _compact_c(vals: np.ndarray):
    """C hash-table compaction, or None when unavailable.

    One linear-probe pass assigns first-seen codes; sorting only the
    distinct values (k log k on the vocabulary, not the full array)
    then yields the np.unique-identical (sorted vocab, inverse) pair
    via a rank permutation.  Requires non-negative ids (-1 is the
    table's empty sentinel), which the tokenizer grammar guarantees.
    """
    fn = _cfunc("compact")
    k = int(vals.size)
    if fn is None or k >= (1 << 31):
        return None
    v64 = np.ascontiguousarray(vals, dtype=np.int64)
    # Load factor <= 2/3: probe chains stay short while the table
    # (the per-chunk transient that dominates this path's footprint)
    # stays as small as possible.
    tsize = 1 << max(12, (k + (k >> 1) - 1).bit_length())
    keys = np.full(tsize, -1, dtype=np.int64)
    kcode = np.empty(tsize, dtype=np.int32)
    vocab = np.empty(k, dtype=np.int64)
    codes = np.empty(k, dtype=np.int32)
    p64 = ctypes.POINTER(ctypes.c_longlong)
    p32 = ctypes.POINTER(ctypes.c_int)
    d = int(fn(v64.ctypes.data_as(p64), k, keys.ctypes.data_as(p64),
               kcode.ctypes.data_as(p32), tsize,
               vocab.ctypes.data_as(p64), codes.ctypes.data_as(p32)))
    vocab = vocab[:d]
    order = np.argsort(vocab, kind="stable")
    rank = np.empty(d, dtype=np.int64)
    rank[order] = np.arange(d, dtype=np.int64)
    return vocab[order], rank[codes]


def compact_ids(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values + inverse codes (np.unique semantics).

    For the bounded-universe common case (SNAP ids are dense-ish) a
    presence bitmap + rank prefix sum produces the identical
    (vocab, inverse) pair in O(span) without the sort; sparse
    non-negative ids go through the compiled hash compactor when the
    toolchain built one; the general case is
    ``np.unique(return_inverse=True)`` exactly as specified.
    """
    if vals.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lo = int(vals.min())
    hi = int(vals.max())
    span = hi - lo + 1
    if span <= max(1 << 16, 2 * vals.size):
        seen = np.zeros(span, dtype=bool)
        seen[vals - lo] = True
        rank = np.cumsum(seen, dtype=np.int64)
        rank -= 1
        vocab = np.flatnonzero(seen).astype(np.int64)
        vocab += lo
        return vocab, rank[vals - lo]
    if lo >= 0:
        out = _compact_c(vals)
        if out is not None:
            return out
    vocab, inv = np.unique(vals, return_inverse=True)
    return vocab.astype(np.int64, copy=False), inv.astype(np.int64,
                                                          copy=False)


# -- the parse round -----------------------------------------------------------

def parse_ranges(lo: int, hi: int, offs: np.ndarray, path: str,
                 comments: str, parser: str):
    """Parse byte ranges [offs[lo], offs[hi]) of ``path``.

    Pure over [lo, hi): re-reading the same ranges reproduces the same
    result.

    Returns ``(vocab, codes, n_edges, tier)``: the chunk-local sorted
    id vocabulary, int32 inverse codes laid out as [u codes | v codes],
    the edge count, and the tokenizer tier that ran.
    """
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    tier = "none"
    with open(path, "rb") as fh:
        for i in range(lo, hi):
            fh.seek(int(offs[i]))
            data = fh.read(int(offs[i + 1]) - int(offs[i]))
            u, v, t = _parse_dispatch(data, comments, parser)
            tier = t if tier in ("none", t) else "mixed"
            us.append(u)
            vs.append(v)
    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    vocab, inv = compact_ids(np.concatenate([u, v]))
    if vocab.size > np.iinfo(np.int32).max:
        raise ValueError("chunk vocabulary exceeds int32 code space")
    return vocab, inv.astype(np.int32, copy=False), int(u.size), tier


# -- byte-range planning / gzip spill -----------------------------------------

def _scan_ranges(path: str, chunk_bytes: int) -> np.ndarray:
    """Newline-aligned range offsets: int64 [0, b1, ..., size]."""
    size = os.path.getsize(path)
    if size == 0 or chunk_bytes >= size:
        return np.array([0, size], dtype=np.int64)
    offs = [0]
    with open(path, "rb") as fh:
        pos = chunk_bytes
        while pos < size:
            fh.seek(pos)
            cut = None
            while True:  # advance to just past the next newline
                window = fh.read(1 << 16)
                if not window:
                    break
                j = window.find(b"\n")
                if j >= 0:
                    cut = pos + j + 1
                    break
                pos += len(window)
            if cut is None or cut >= size:
                break
            offs.append(cut)
            pos = cut + chunk_bytes
    offs.append(size)
    return np.array(offs, dtype=np.int64)


def _is_gzip(path: str) -> bool:
    if os.fspath(path).endswith(".gz"):
        return True
    with open(path, "rb") as fh:
        return fh.read(2) == b"\x1f\x8b"


def _spill_decompress(path: str, spill: str) -> str:
    """Stream-decompress a gzip file into the spill dir once; the
    plain copy is then range-seekable for the parallel parse."""
    out = os.path.join(spill, "plain.el")
    with gzip.open(path, "rb") as src, open(out, "wb") as dst:
        shutil.copyfileobj(src, dst, DEFAULT_CHUNK_BYTES)
    return out


# -- digest-keyed binary cache -------------------------------------------------

def file_digest(path: str, block: int = 1 << 20) -> str:
    """sha256 of the file's raw bytes (compressed bytes for .gz)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(block)
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


def _cache_paths(cdir: str, sha: str, comments: str) -> tuple[str, str]:
    stem = f"{sha[:24]}-{_options_tag(comments)}"
    return (os.path.join(cdir, f"{stem}.npz"),
            os.path.join(cdir, f"{stem}.json"))


def _npz_member_arrays(npz_path: str) -> dict:
    """Map each uncompressed npz member to a read-only memmap array.

    The cache npz is ZIP_STORED, so every member's .npy payload sits
    contiguously in the file; mapping it skips the two whole-array
    copies ``np.load`` makes (zip read + frombuffer) and the warm path
    becomes a handful of page-table operations.  Raises on anything
    unexpected (compressed member, odd npy version); the caller falls
    back to ``np.load``.
    """
    import zipfile

    from numpy.lib import format as npf

    out = {}
    with zipfile.ZipFile(npz_path) as zf, open(npz_path, "rb") as fh:
        for zi in zf.infolist():
            if zi.compress_type != zipfile.ZIP_STORED:
                raise ValueError("compressed npz member")
            # Local file header: 30 fixed bytes, then name and extra
            # fields (their lengths at offsets 26 and 28).
            fh.seek(zi.header_offset)
            head = fh.read(30)
            if len(head) != 30 or head[:4] != b"PK\x03\x04":
                raise ValueError("bad local header")
            name_len = int.from_bytes(head[26:28], "little")
            extra_len = int.from_bytes(head[28:30], "little")
            fh.seek(zi.header_offset + 30 + name_len + extra_len)
            version = npf.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"npy format {version}")
            shape, fortran, dtype = npf.read_array_header_1_0(fh)
            if fortran or dtype.hasobject:
                raise ValueError("unsupported npy layout")
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if nbytes < (1 << 20):  # small members: plain read
                arr = np.frombuffer(fh.read(nbytes),
                                    dtype=dtype).reshape(shape)
            else:
                arr = np.memmap(npz_path, dtype=dtype, mode="r",
                                offset=fh.tell(), shape=shape)
            out[zi.filename[:-4] if zi.filename.endswith(".npy")
                else zi.filename] = arr
    return out


def _load_cached(npz_path: str, name: str | None) -> CSRGraph | None:
    try:
        data = _npz_member_arrays(npz_path)
        return CSRGraph(indptr=np.asarray(data["indptr"]),
                        indices=np.asarray(data["indices"]),
                        name=name or str(data["name"][()]))
    except (OSError, KeyError, ValueError):
        pass
    try:
        with np.load(npz_path, allow_pickle=False) as data:
            return CSRGraph(indptr=data["indptr"].astype(np.int64),
                            indices=data["indices"].astype(np.int64),
                            name=name or str(data["name"]))
    except (OSError, KeyError, ValueError):
        return None


def _seed_digest(g: CSRGraph, man: dict) -> None:
    """Pre-fill ``content_digest`` from the manifest on a cache hit.

    The manifest recorded the digest when the npz was written, so a
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
            g = _load_cached(mpath[:-5] + ".npz", name)
            if g is not None:
                _seed_digest(g, man)
                return g, "stat", None
    # Stat mismatch (moved/touched file): one content hash decides.
    sha = file_digest(apath)
    for mpath, man in manifests:
        if man.get("file_sha256") != sha:
            continue
        g = _load_cached(mpath[:-5] + ".npz", name)
        if g is not None:
            _seed_digest(g, man)
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


#: Payload alignment of cache npz members, bytes.  The npy header pads
#: itself to a multiple of 64, so a member whose local zip header ends
#: 64-aligned has 64-aligned array data, which :func:`_npz_member_arrays`
#: maps in place.
NPZ_ALIGN = 64

#: Zip extra-field id of the alignment padding (the id zipalign uses).
_PAD_EXTRA_ID = 0xD935


def _aligned_zipinfo(name: str, offset: int):
    """A ZIP_STORED ``ZipInfo`` for ``name`` whose local header, written
    at ``offset`` with a forced zip64 field, ends ``NPZ_ALIGN``-aligned.

    The padding is one extra field (4 header bytes plus zeros), so a
    pad of 1-3 bytes grows by ``NPZ_ALIGN``.
    """
    import zipfile

    zi = zipfile.ZipInfo(name, time.localtime()[:6])
    zi.compress_type = zipfile.ZIP_STORED
    zi.CRC = zi.compress_size = 0  # set for real when the member closes
    pad = -(offset + len(zi.FileHeader(zip64=True))) % NPZ_ALIGN
    if 0 < pad < 4:
        pad += NPZ_ALIGN
    if pad:
        zi.extra = (_PAD_EXTRA_ID.to_bytes(2, "little")
                    + (pad - 4).to_bytes(2, "little") + bytes(pad - 4))
    return zi


def _stream_npz(fh, arrays: dict) -> None:
    """``np.savez`` (uncompressed), streamed in ~1 MiB slices.

    ``np.savez`` copies each array into multi-MiB write buffers; at the
    moment the cache is written the final CSR is already resident, so
    those copies are exactly the peak-RSS overshoot the resource bench
    guards against.  Each member's array data starts ``NPZ_ALIGN``-
    aligned in the file (:func:`_aligned_zipinfo`), so a warm load maps
    it as aligned int64 with no copy.  ``np.load`` reads the result
    like any other npz.
    """
    import zipfile

    from numpy.lib import format as npf

    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as zf:
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            # Each member's local header is written where the previous
            # one left the file position.
            zi = _aligned_zipinfo(key + ".npy", fh.tell())
            with zf.open(zi, "w", force_zip64=True) as out:
                npf.write_array_header_1_0(
                    out, npf.header_data_from_array_1_0(arr))
                mv = memoryview(arr.reshape(-1)).cast("B")
                step = 1 << 20
                for off in range(0, len(mv), step):
                    out.write(mv[off:off + step])


def cache_store(cdir: str, apath: str, comments: str, g: CSRGraph,
                sha: str) -> bool:
    """Write ``<digest>.npz`` + manifest atomically; False on IO error.

    The npz is uncompressed on purpose: a warm load is then a single
    sequential read of the raw CSR arrays, which is what makes repeat
    loads ~100x cheaper than a parse.  The manifest is written last —
    its presence implies a complete npz.
    """
    try:
        st = os.stat(apath)
        os.makedirs(cdir, exist_ok=True)
        npz_path, man_path = _cache_paths(cdir, sha, comments)
        tmp = f"{npz_path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            _stream_npz(fh, {"indptr": g.indptr, "indices": g.indices,
                             "name": np.asarray(g.name)})
        os.replace(tmp, npz_path)
        _write_json(man_path, {
            "schema": CACHE_SCHEMA, "source": apath,
            "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "comments": comments, "file_sha256": sha,
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


# -- out-of-core CSR build -----------------------------------------------------

def _spill_chunks(vocab_path: str, codes_path: str, metas, vocab_global):
    """Each spilled chunk as ``(remap, codes, ne)``, in order.

    ``remap`` maps the chunk's vocabulary codes to global rows;
    ``codes`` holds the chunk's ``ne`` u codes, then its ``ne`` v codes.
    """
    with open(vocab_path, "rb") as vf, open(codes_path, "rb") as cf:
        for nv, ne in metas:
            vocab_c = np.fromfile(vf, np.int64, nv)
            codes = np.fromfile(cf, np.int32, 2 * ne)
            if vocab_c.size != nv or codes.size != 2 * ne:
                raise RuntimeError("ingest spill is truncated")
            yield np.searchsorted(vocab_global, vocab_c), codes, ne


def _iter_spill(vocab_path: str, codes_path: str, metas, vocab_global):
    """Decode spilled chunks back to global-id edge arrays, in order."""
    for remap, codes, ne in _spill_chunks(vocab_path, codes_path, metas,
                                          vocab_global):
        cu = remap[codes[:ne]]
        cv = remap[codes[ne:]]
        keep = cu != cv  # self-loops dropped, exactly like from_edges
        yield cu[keep], cv[keep]


def _spill_rows_c(fn, remap, codes, ne: int, cur, end=None,
                  adj=None) -> int:
    """One chunk through ``repro_spill_rows``; its kept edge count.

    Counts into ``cur`` when ``adj`` is None, else scatters into
    ``adj``.  The C checks every code, row and cursor before indexing
    with it; a violation means the spill contradicts itself, and
    raises ``RuntimeError`` instead of building a wrong CSR.
    """
    remap = np.ascontiguousarray(remap, dtype=np.int64)
    kept = fn(codes.ctypes.data, ne, remap.ctypes.data, remap.size,
              cur.size, cur.ctypes.data,
              None if end is None else end.ctypes.data,
              None if adj is None else adj.ctypes.data)
    if kept == -1:
        raise RuntimeError("ingest spill is inconsistent: a code or row "
                           "lies outside its vocabulary")
    if kept == -2:
        raise RuntimeError("ingest spill is inconsistent: a row got more "
                           "entries than the degree pass counted")
    return kept


def _release_pages(mm, lo_e: int | None = None,
                   hi_e: int | None = None) -> None:
    """Drop a memmap's pages (entries [lo_e, hi_e) only, if given).

    Keeps the duplicate adjacency from accumulating in RSS.  No flush
    needed: for a shared file mapping MADV_DONTNEED only unmaps the
    PTEs — dirty pages stay in the page cache and later reads see them.
    """
    try:
        if lo_e is None:
            mm._mmap.madvise(mmap.MADV_DONTNEED)
            return
        page = mmap.PAGESIZE  # the range, page-aligned outward
        start = (lo_e * mm.itemsize) // page * page
        stop = min(mm.nbytes, -(-(hi_e * mm.itemsize) // page) * page)
        if stop > start:
            mm._mmap.madvise(mmap.MADV_DONTNEED, start, stop - start)
    except (AttributeError, OSError, ValueError):
        pass


def _scatter_numpy(chunks, cursor, adj, key_dtype) -> None:
    """The NumPy scatter: per chunk and direction, a stable sort by row,
    then windowed writes at the row cursors."""
    for cu, cv in chunks:
        # One direction at a time keeps the transient arrays at half a
        # chunk's edges.
        for src, dst in ((cu, cv), (cv, cu)):
            if not src.size:
                continue
            order = np.argsort(src.astype(key_dtype, copy=False),
                               kind="stable")
            src = src[order]
            dst = dst[order]
            run_start = np.concatenate(
                [[0], np.flatnonzero(src[1:] != src[:-1]) + 1])
            uniq = src[run_start]
            counts = np.diff(np.concatenate([run_start, [src.size]]))
            within = np.arange(src.size, dtype=np.int64) \
                - np.repeat(run_start, counts)
            pos = cursor[src] + within
            cursor[uniq] += counts
            del src, within
            # pos ascends with the sorted rows, so windowed writes
            # cover disjoint ranges we can hand straight back to the
            # kernel — the duplicate adjacency never holds more than
            # one window's pages in RSS.
            win = 1 << 16
            for wlo in range(0, pos.size, win):
                whi = min(pos.size, wlo + win)
                adj[pos[wlo:whi]] = dst[wlo:whi]
                _release_pages(adj, int(pos[wlo]), int(pos[whi - 1]) + 1)
            del order, dst, pos
        _malloc_trim()


def _compact_numpy(block, rows, key_dtype):
    """The NumPy compaction of one row batch: a lexsort by (row, id),
    then an adjacent dedupe.  Returns (entries, per-row counts)."""
    nrows = rows.size - 1
    seg = np.repeat(np.arange(nrows, dtype=key_dtype), np.diff(rows))
    order = np.lexsort((block.astype(key_dtype, copy=False), seg))
    s2 = seg[order]
    b2 = block[order]
    if b2.size:
        keep = np.empty(b2.size, bool)
        keep[0] = True
        keep[1:] = (s2[1:] != s2[:-1]) | (b2[1:] != b2[:-1])
        s2 = s2[keep]
        b2 = b2[keep]
    return b2, np.bincount(s2, minlength=nrows)


def _build_csr_from_spill(spill: str, vocab_path: str, codes_path: str,
                          metas, vocab_global: np.ndarray, ctx,
                          chunk_bytes: int, name: str) -> CSRGraph:
    """Two-pass counting sort into a memmap, then per-row compaction.

    Pass 1 streams the spilled chunks to a degree histogram; pass 2
    scatters both edge directions into an ``np.memmap`` duplicate
    adjacency under the spill dir; pass 3 walks contiguous row batches,
    sorts + dedupes each, and appends the final indices to disk.  The
    coordinator never holds more than one chunk of edges plus O(n)
    arrays, so peak RSS ~ final CSR + a parse chunk.

    The passes run as C (``repro_spill_rows`` / ``repro_sort_rows``)
    when the edgeparse library builds, else as NumPy; both give the
    same CSR.
    """
    n = int(vocab_global.size)
    spilled = (vocab_path, codes_path, metas, vocab_global)
    funcs = _CPARSER.load()
    with ctx.phase("ingest.count"):
        deg = np.zeros(n, np.int64)
        kept = 0
        if funcs:
            for remap, codes, ne in _spill_chunks(*spilled):
                kept += _spill_rows_c(funcs["spill_rows"], remap, codes,
                                      ne, deg)
        else:
            for cu, cv in _iter_spill(*spilled):
                deg += np.bincount(cu, minlength=n)
                deg += np.bincount(cv, minlength=n)
        indptr_dup = np.zeros(n + 1, np.int64)
        np.cumsum(deg, out=indptr_dup[1:])
        total = int(indptr_dup[-1])

    # Sort keys are row ids < n; int32 halves the radix-sort passes
    # whenever the graph fits (it always does for real SNAP files).
    key_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64

    adj = None
    adj_path = os.path.join(spill, "adj.bin")
    with ctx.phase("ingest.scatter"):
        if total:
            adj = np.memmap(adj_path, dtype=np.int64, mode="w+",
                            shape=(total,))
            cursor = indptr_dup[:-1].copy()
            if funcs:
                scattered = 0
                for remap, codes, ne in _spill_chunks(*spilled):
                    scattered += _spill_rows_c(
                        funcs["spill_rows"], remap, codes, ne, cursor,
                        indptr_dup[1:], adj)
                    # Rows land all over the mapping, so one chunk
                    # touches most of its pages: dropping them after
                    # every chunk costs re-faults but holds the
                    # resident duplicate adjacency to what one chunk
                    # writes (measured in DESIGN.md, "Ingestion at
                    # scale").
                    _release_pages(adj)
                # No row overflowed, so equal totals mean every row
                # was filled exactly.
                if scattered != kept:
                    raise RuntimeError(
                        "ingest spill is inconsistent: the scatter kept "
                        f"{scattered} edges, the degree pass {kept}")
            else:
                _scatter_numpy(_iter_spill(*spilled), cursor, adj,
                               key_dtype)

    with ctx.phase("ingest.compact"):
        deg_final = np.zeros(n, np.int64)
        ind_path = os.path.join(spill, "indices.bin")
        with open(ind_path, "wb") as outf:
            if total:
                budget = max(1 << 16, chunk_bytes // 8)  # entries/batch
                if funcs:
                    longest = int(deg.max())
                    out = np.empty(max(budget, longest), np.int64)
                    tmp = np.empty(longest, np.int64)
                    nbytes = max(1, ((n - 1).bit_length() + 7) // 8)
                r0 = 0
                while r0 < n:
                    target = int(indptr_dup[r0]) + budget
                    r1 = int(np.searchsorted(indptr_dup, target,
                                             side="right")) - 1
                    r1 = min(n, max(r1, r0 + 1))
                    block = adj[int(indptr_dup[r0]):int(indptr_dup[r1])]
                    if funcs:
                        k = funcs["sort_rows"](
                            block.ctypes.data, indptr_dup[r0:].ctypes.data,
                            r1 - r0, nbytes, out.ctypes.data,
                            tmp.ctypes.data, deg_final[r0:].ctypes.data)
                        out[:k].tofile(outf)
                    else:
                        b2, deg_final[r0:r1] = _compact_numpy(
                            np.asarray(block), indptr_dup[r0:r1 + 1],
                            key_dtype)
                        b2.tofile(outf)
                        del b2
                    del block
                    _release_pages(adj)
                    r0 = r1
        if adj is not None:
            # Return the duplicate adjacency's pages before the final
            # arrays materialize — this is what keeps peak RSS at
            # "final CSR + a chunk", not "CSR + 2m duplicates".
            _release_pages(adj)
            del adj
        _malloc_trim()
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(deg_final, out=indptr[1:])
        indices = np.fromfile(ind_path, np.int64) if total \
            else np.empty(0, np.int64)
    return CSRGraph(indptr=indptr, indices=indices, name=name)


# -- the public entry points ---------------------------------------------------

def ingest_report(path, *, comments: str = "#", name: str | None = None,
                  ctx=None, backend: str | None = None,
                  workers: int | None = None,
                  chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                  cache: bool = True, cache_dir=None, spill_dir=None,
                  force: bool = False, parser: str | None = None
                  ) -> tuple[CSRGraph, dict]:
    """:func:`ingest`, plus a report dict (timings, tiers, cache mode)."""
    apath = os.path.abspath(os.fspath(path))
    st = os.stat(apath)  # missing file raises here, like open() would
    p = resolve_parser(parser)
    if chunk_bytes < 1 << 12:
        chunk_bytes = 1 << 12
    t0 = time.perf_counter()
    report: dict = {"path": apath, "file_bytes": int(st.st_size),
                    "cached": False, "parser": p,
                    "backend": None, "workers": None}
    cdir = resolve_cache_dir(apath, cache_dir, cache)
    sha = None
    if cdir and not force:
        g, mode, sha = cache_lookup(cdir, apath, comments, name)
        if g is not None:
            wall = time.perf_counter() - t0
            report.update(cached=mode, n=int(g.n), m=int(g.m),
                          digest=g.content_digest, wall_s=wall,
                          mb_per_s=st.st_size / 1e6 / max(wall, 1e-9))
            return g, report

    gname = name or os.path.basename(os.fspath(path))
    ctx, owns = resolve_context(ctx, backend=backend, workers=workers)
    spill = tempfile.mkdtemp(prefix="repro-ingest-",
                             dir=os.fspath(spill_dir) if spill_dir else None)
    try:
        with ctx.phase("ingest.scan"):
            gz = _is_gzip(apath)
            plain = _spill_decompress(apath, spill) if gz else apath
            raw_bytes = os.path.getsize(plain)
            offs = _scan_ranges(plain, chunk_bytes)
        nr = offs.size - 1
        vocab_path = os.path.join(spill, "vocab.bin")
        codes_path = os.path.join(spill, "codes.bin")
        metas: list[tuple[int, int]] = []
        tiers: set[str] = set()
        vocab_global = np.empty(0, np.int64)
        edges_in = 0
        with ctx.phase("ingest.parse"), \
                open(vocab_path, "wb") as vf, open(codes_path, "wb") as cf:
            for i in range(nr):
                vocab, codes, ne, tier = ctx.map_chunks(
                    lambda lo, hi: parse_ranges(lo, hi, offs[i:i + 2],
                                                plain, comments, p), 1)
                vocab.tofile(vf)
                codes.tofile(cf)
                metas.append((int(vocab.size), int(ne)))
                tiers.add(tier)
                edges_in += int(ne)
                # Both vocabs are already sorted; a radix sort + adjacent
                # dedupe of the concatenation is several times cheaper
                # than np.unique's hash path here.
                cat = np.concatenate([vocab_global, vocab])
                cat.sort(kind="stable")
                if cat.size:
                    keep = np.empty(cat.size, bool)
                    keep[0] = True
                    np.not_equal(cat[1:], cat[:-1], out=keep[1:])
                    cat = cat[keep]
                vocab_global = cat
                # Trimming every range costs ~0.7 ms a pop; the heap
                # high-water only creeps across many ranges, so an
                # occasional trim bounds it just as well.
                if i % 8 == 7:
                    _malloc_trim()
            _malloc_trim()
        g = _build_csr_from_spill(spill, vocab_path, codes_path, metas,
                                  vocab_global, ctx, chunk_bytes, gname)
        if cdir:
            with ctx.phase("ingest.cache"):
                sha = sha or file_digest(apath)
                cache_store(cdir, apath, comments, g, sha)
        phases = {k: round(v, 6) for k, v in ctx.wall_by_phase.items()
                  if k.startswith("ingest.")}
        backend_used, workers_used = ctx.backend, ctx.workers
    finally:
        if owns:
            ctx.close()
        shutil.rmtree(spill, ignore_errors=True)

    wall = time.perf_counter() - t0
    tiers.discard("none")
    report.update(n=int(g.n), m=int(g.m), digest=g.content_digest,
                  gz=gz, raw_bytes=int(raw_bytes), edges_in=edges_in,
                  ranges=int(nr), wall_s=wall, phase_walls=phases,
                  parser_used="+".join(sorted(tiers)) or "none",
                  backend=backend_used, workers=workers_used,
                  mb_per_s=raw_bytes / 1e6 / max(wall, 1e-9),
                  edges_per_s=edges_in / max(wall, 1e-9))
    return g, report


def ingest(path, *, comments: str = "#", name: str | None = None,
           ctx=None, backend: str | None = None, workers: int | None = None,
           chunk_bytes: int = DEFAULT_CHUNK_BYTES, cache: bool = True,
           cache_dir=None, spill_dir=None, force: bool = False,
           parser: str | None = None) -> CSRGraph:
    """Stream an edge-list file (optionally gzipped) into a CSRGraph.

    Digest-identical to ``read_edge_list(path, comments)`` on every
    input both accept, but parses in parallel chunks with a vectorized
    tokenizer, builds the CSR out-of-core under a spill directory, and
    memoizes the result in a digest-keyed binary cache (see
    :func:`resolve_cache_dir`).  ``force=True`` re-parses even on a
    cache hit; ``cache=False`` bypasses the cache entirely.
    """
    g, _ = ingest_report(path, comments=comments, name=name, ctx=ctx,
                         backend=backend, workers=workers,
                         chunk_bytes=chunk_bytes, cache=cache,
                         cache_dir=cache_dir, spill_dir=spill_dir,
                         force=force, parser=parser)
    return g
