/* DEC-ADG-ITR's level pass (repro/coloring/dec_adg_itr.py); ITR and
   ITR-ASL run it with every vertex on one level. */

#include "repro.h"

/* ITR over the ADG level partitions, top level first.  Partition L is
   order[bounds[L-1]:bounds[L]], and order lists every vertex once;
   colors starts at 0.  The per-partition scratch lptr and boff
   (largest partition + 1), lidx and hbuf (largest partition degree
   sum), lcol, lprio, stamp and active (largest partition) need no
   initialization.  pb (5 x levels: vertices, degree sum, width, kept
   bits, rounds) and rb (5 x cap: active, neighbor sum, max degree,
   losers, committed pairs) start at 0.  Returns the number of rounds,
   -1 when a partition exceeds its round limit, -2 when a bitmap calloc
   fails. */
long long repro_itr_levels(const int64_t *indptr, const int64_t *indices,
                           const int64_t *priority, const int64_t *order,
                           const int64_t *bounds, long long num_levels,
                           long long max_rounds, long long cap,
                           int64_t *colors, int64_t *lptr, int64_t *lidx,
                           int64_t *hbuf, int64_t *lcol, int64_t *lprio,
                           int64_t *stamp, int64_t *active, int64_t *boff,
                           int64_t *pb, int64_t *rb)
{
    long long L, k = 0;
    for (L = num_levels; L >= 1; L--) {
        const int64_t *verts = order + bounds[L - 1];
        const int64_t nv = bounds[L] - bounds[L - 1];
        const int64_t limit = max_rounds >= 0 ? max_rounds : 4 * nv + 64;
        int64_t i, j, r, nact = nv, width, kept = 0, dsum = 0, top = 0;
        int64_t e = 0, h = 0;
        unsigned char *bm;
        if (nv == 0)
            continue;
        /* colors tells a neighbor's partition apart in one read: 0
           below L (not colored yet), -(local id + 1) in L, > 0 above L
           (a partition's smallest free color is >= 1, as B_v never
           fills a row; see boff). */
        for (i = 0; i < nv; i++)
            colors[verts[i]] = -i - 1;
        /* One walk per row: deg_l (ge), the in-partition CSR in local
           ids (lidx) and the higher partitions' colors (hbuf).  Both
           cursors store at every neighbor and advance only on a match,
           so a store never passes the partition's degree sum; lcol
           holds each row's end in hbuf until round 1 overwrites it.
           Row B_v spans colors 0..deg_l(v) + 1: deg_l bounds its set
           colors, so one of 1..deg_l(v) + 1 is always free, and the
           bitmap holds at most the degree sum plus 2 bytes a vertex. */
        lptr[0] = 0;
        boff[0] = 0;
        for (i = 0; i < nv; i++) {
            const int64_t v = verts[i];
            int64_t ge = 0;
            for (j = indptr[v]; j < indptr[v + 1]; j++) {
                const int64_t x = colors[indices[j]];
                lidx[e] = -x - 1;
                hbuf[h] = x;
                e += x < 0;
                h += x > 0;
                ge += x != 0;
            }
            dsum += indptr[v + 1] - indptr[v];
            lptr[i + 1] = e;
            boff[i + 1] = boff[i] + ge + 2;
            lcol[i] = h;
            if (ge > top)
                top = ge;
            lprio[i] = priority[v];
            stamp[i] = 0;
            active[i] = i;
        }
        /* The books count kept colors against the partition-wide
           palette width, as if every row were max deg_l + 3 wide. */
        width = top + 3;
        bm = calloc((size_t)boff[nv], 1);
        if (bm == NULL)
            return -2;
        /* B_v: colors already taken by higher-partition neighbors.  A
           color past the row marks column 0, which no round reads. */
        for (i = 0, h = 0; i < nv; i++) {
            unsigned char *row = bm + boff[i];
            const int64_t len = boff[i + 1] - boff[i];
            for (; h < lcol[i]; h++) {
                const int64_t c = hbuf[h];
                row[c * (c < len)] = 1;
                kept += c < width;
            }
        }
        for (r = 1; nact > 0; r++) {
            int64_t a, nsum = 0, md = 0, nlost = 0, committed = 0;
            if (r > limit || k >= cap) {
                free(bm);
                return -1;
            }
            for (a = 0; a < nact; a++) {        /* first free bit */
                const int64_t v = active[a];
                const unsigned char *row = bm + boff[v];
                const unsigned char *p = memchr(row + 1, 0,
                                                boff[v + 1] - boff[v] - 1);
                lcol[v] = p ? p - row : 0;
                stamp[v] = r;
            }
            for (a = 0; a < nact; a++) {        /* losers: stamp -r */
                const int64_t v = active[a], d = lptr[v + 1] - lptr[v];
                nsum += d;
                if (d > md)
                    md = d;
                for (j = lptr[v]; j < lptr[v + 1]; j++) {
                    const int64_t u = lidx[j];
                    if (lcol[u] == lcol[v] && (stamp[u] == r || stamp[u] == -r)
                            && lprio[u] > lprio[v]) {
                        stamp[v] = -r;
                        break;
                    }
                }
            }
            /* Each winner commits its color into its active neighbors'
               rows.  Rows are symmetric, so these are the (loser,
               winner) pairs a walk of the losers' rows would find.  A
               loser's stale color is overwritten when it chooses again;
               a color past the loser's row cannot be its first free. */
            for (a = 0; a < nact; a++) {
                const int64_t u = active[a], c = lcol[u];
                if (stamp[u] != r || c <= 0)
                    continue;
                for (j = lptr[u]; j < lptr[u + 1]; j++) {
                    const int64_t v = lidx[j], s = stamp[v];
                    if (s == r || s == -r) {
                        committed++;
                        if (s == -r && c < boff[v + 1] - boff[v])
                            bm[boff[v] + c] = 1;
                    }
                }
            }
            for (a = 0; a < nact; a++) {        /* losers, in order */
                const int64_t v = active[a];
                active[nlost] = v;
                nlost += stamp[v] == -r;
            }
            rb[k] = nact;
            rb[cap + k] = nsum;
            rb[2 * cap + k] = md;
            rb[3 * cap + k] = nlost;
            rb[4 * cap + k] = committed;
            k++;
            nact = nlost;
        }
        free(bm);
        for (i = 0; i < nv; i++)
            colors[verts[i]] = lcol[i];
        pb[L - 1] = nv;
        pb[num_levels + L - 1] = dsum;
        pb[2 * num_levels + L - 1] = width;
        pb[3 * num_levels + L - 1] = kept;
        pb[4 * num_levels + L - 1] = r - 1;
    }
    return k;
}
