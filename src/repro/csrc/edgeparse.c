/* The ingest scanner, id encoder and CSR build
   (repro/graphs/ingest.py). */

/* One forward scan per chunk.  Bytes <= 0x20 are separators (space,
   tab, CR, LF — matching str.split()), and LF, CR and CRLF each end a
   line (universal newlines); a line's first token starting
   with the comment byte skips the line; each kept line must open with
   two decimal tokens, anything after them is ignored (SNAP files carry
   timestamps/weights).  Errors return -(offset+1) and the caller
   re-parses the chunk on the Python tier so diagnostics (and the rare
   inputs int() accepts but this scanner does not, e.g. signed ids)
   match the legacy reader exactly.

   Tokens are converted eight digits at a time with the classic SWAR
   multiply-mask reduction (the per-digit x = x*10 + d chain is a serial
   multiply dependency and dominates a byte-at-a-time scanner).  The
   Python caller pads every buffer with 8 trailing spaces so the 8-byte
   loads below never run off the chunk.  Overflow checking is deferred:
   a token of <= 18 digits cannot overflow int64, so only 19+-digit
   tokens (after skipping leading zeros) pay a decimal string compare
   against INT64_MAX.

   repro_encode is the id-compaction sibling: one linear-probe pass over
   the parsed ids that assigns first-seen codes against a running table,
   so a whole file's ids share one code space held in O(n) memory; the
   caller then applies a sorted-rank permutation to land on np.unique
   semantics, sorting only the distinct ids.

   repro_canon_rows, repro_sort_rows and repro_symmetrize are the CSR
   build: the first counts (degree pass) or scatters (into the int32
   canonical adjacency) one parsed block's edges, each once, in the row
   of its smaller endpoint; the second sorts and dedupes every row in
   place; the third writes the final symmetric int64 CSR.  Unlike the
   scanner, canon_rows and symmetrize trust no input: every code, row,
   entry and row cursor is checked before it indexes, and a violation
   returns an error code that the caller raises as RuntimeError. */

#include "repro.h"

#define DIE(pos) (-((long long)(pos) + 1))
/* A lone CR ends a line too: universal newlines, as read_edge_list. */
#define EOL(c) ((c) == '\n' || (c) == '\r')

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
            while (i < n && !EOL(b[i])) i++;
            continue;
        }
        int64_t x, y;
        if (token(b, n, &i, &x)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);  /* junk glued to token */
        while (i < n && b[i] <= ' ' && !EOL(b[i])) i++;
        if (i >= n || EOL(b[i])) return DIE(i);  /* one token only */
        if (token(b, n, &i, &y)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);
        u[m] = x; v[m] = y; m++;
        while (i < n && !EOL(b[i])) i++;         /* trailing columns */
    }
    return m;
}

/* First-seen-order encoding of k ids against a running table.  slot
   (tsize entries, a power of two, -1 = empty) holds codes into vocab,
   whose first d entries are the distinct ids seen so far; an unseen id
   is appended to vocab and gets the next code.  The caller keeps the
   table under 2/3 full and vocab room for d + k ids.  codes[j], when
   codes is not NULL, gets vals[j]'s code.  Returns the new distinct
   count. */
long long repro_encode(const int64_t *vals, long long k, int32_t *slot,
                       long long tsize, int64_t *vocab, long long d,
                       int32_t *codes)
{
    const uint64_t mask = (uint64_t)tsize - 1;
    long long j;
    for (j = 0; j < k; j++) {
        const int64_t x = vals[j];
        uint64_t h = (uint64_t)x;
        h ^= h >> 33; h *= 0xff51afd7ed558ccdULL; h ^= h >> 33;
        h &= mask;
        while (slot[h] >= 0 && vocab[slot[h]] != x)
            h = (h + 1) & mask;
        if (slot[h] < 0) {
            slot[h] = (int32_t)d;
            vocab[d++] = x;
        }
        if (codes)
            codes[j] = slot[h];
    }
    return d;
}

/* One parsed block's share of the CSR build, in the canonical
   direction: codes holds the block's ne u codes, then its ne v codes.
   With rank, a code is an index into rank (the nv codes' rows, all
   < n < 2^31) and is rewritten in place as its row; without, it is a
   row already (nv == n).  Self-loops are dropped; every kept edge
   belongs to the row of its smaller endpoint.  With adj == NULL it
   counts into cur (the degree pass); otherwise the larger endpoint is
   written at adj[cur[row]++], never past end[row] (the scatter pass).
   Returns the kept edge count, -1 when n, a code or a row is out of
   range, -2 when a row cursor would pass its end. */
long long repro_canon_rows(int32_t *codes, long long ne,
                           const int32_t *rank, long long nv, long long n,
                           int64_t *cur, const int64_t *end, int32_t *adj)
{
    long long j, kept = 0;
    if (n > 2147483647LL || (!rank && nv != n)) return -1;
    for (j = 0; rank && j < nv; j++)
        if (rank[j] < 0 || rank[j] >= n) return -1;
    for (j = 0; j < ne; j++) {
        int32_t lo = codes[j], hi = codes[ne + j];
        if (lo < 0 || lo >= nv || hi < 0 || hi >= nv) return -1;
        if (rank) {
            lo = codes[j] = rank[lo];
            hi = codes[ne + j] = rank[hi];
        }
        if (lo == hi) continue;
        if (lo > hi) { const int32_t t = lo; lo = hi; hi = t; }
        kept++;
        if (!adj) {
            cur[lo]++;
            continue;
        }
        if (cur[lo] >= end[lo]) return -2;
        adj[cur[lo]++] = hi;
    }
    return kept;
}

/* LSD radix sort of a[0..len) through tmp, one pass per byte of the
   ids (nbytes covers any id < n); a pass whose byte is the same for
   every entry is skipped. */
static void radix_sort(int32_t *a, int32_t *tmp, long long len, int nbytes)
{
    long long cnt[256], i;
    int32_t *src = a, *dst = tmp, *t;
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

/* Sort and dedupe the n rows of the canonical adjacency in place.  Row
   r is adj[rows[r] .. rows[r+1]); its sorted distinct entries move to
   the front of adj, rows back to back, and their count goes to deg[r].
   A row never moves right, so each write lands at or before the entry
   it copies.  Rows of <= 16 entries are insertion-sorted, longer ones
   radix-sorted through tmp (>= the longest row).  Returns the entries
   kept. */
long long repro_sort_rows(int32_t *adj, const int64_t *rows, long long n,
                          int nbytes, int32_t *tmp, int64_t *deg)
{
    long long r, w = 0;
    for (r = 0; r < n; r++) {
        const long long len = rows[r + 1] - rows[r];
        int32_t *row = adj + rows[r];
        long long i, k = 0;
        if (len <= 16) {
            for (i = 1; i < len; i++) {
                const int32_t x = row[i];
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
        for (i = 0; i < len; i++)
            if (k == 0 || row[i] != adj[w + k - 1]) adj[w + k++] = row[i];
        deg[r] = k;
        w += k;
    }
    return w;
}

/* The final CSR from the deduped canonical rows: up holds total
   entries, each row r's sorted entries (all above r) back to back, and
   updeg[r] counts them.  Row r of the result is every s with r in
   up(s), ascending, then up(r): sorted, since the first part lies below
   r and the second above.  indptr gets n + 1 offsets (indptr[r] is row
   r's fill cursor until the final shift) and indices 2 * total ids.
   Returns 0, or -1 when the counts overrun total or an entry is not
   above its row and below n. */
long long repro_symmetrize(const int32_t *up, long long total,
                           const int64_t *updeg, long long n,
                           int64_t *indptr, int64_t *indices)
{
    long long r, j, w = 0;
    memset(indptr, 0, (size_t)(n + 1) * sizeof *indptr);
    for (r = 0; r < n; r++) {
        if (updeg[r] < 0 || updeg[r] > total - w) return -1;
        for (j = w; j < w + updeg[r]; j++) {
            if (up[j] <= r || up[j] >= n) return -1;
            indptr[up[j] + 1]++;
        }
        w += updeg[r];
    }
    if (w != total) return -1;
    for (r = 0; r < n; r++)
        indptr[r + 1] += indptr[r] + updeg[r];
    /* indptr[r] now starts row r: advance it as the row fills. */
    for (r = 0, w = 0; r < n; r++) {
        const int32_t *row = up + w;
        for (j = 0; j < updeg[r]; j++) indices[indptr[row[j]]++] = r;
        for (j = 0; j < updeg[r]; j++) indices[indptr[r] + j] = row[j];
        indptr[r] += updeg[r];
        w += updeg[r];
    }
    /* Each indptr[r] now ends row r, which is where row r + 1 starts. */
    for (r = n; r > 0; r--) indptr[r] = indptr[r - 1];
    indptr[0] = 0;
    return 0;
}
