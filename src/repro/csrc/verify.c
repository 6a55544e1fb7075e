/* The coloring-verify neighbor scan (repro/coloring/verify.py). */

#include "repro.h"

/* One pass over the rows of a bounds-checked CSR.  Sets *uncolored to
   the number of vertices whose color is <= 0 and returns the number of
   arcs (v, u) with u > v whose endpoints share a positive color; the
   first cap of them are written to bu/bv in row order. */
long long repro_verify(long long n, const int64_t *indptr,
                       const int64_t *indices, const int64_t *colors,
                       long long cap, int64_t *bu, int64_t *bv,
                       long long *uncolored)
{
    long long v, bad = 0, none = 0;
    for (v = 0; v < n; v++) {
        const int64_t c = colors[v];
        int64_t j;
        if (c <= 0) {
            none++;
            continue;
        }
        for (j = indptr[v]; j < indptr[v + 1]; j++) {
            const int64_t u = indices[j];
            if (u > v && colors[u] == c) {
                if (bad < cap) {
                    bu[bad] = v;
                    bv[bad] = u;
                }
                bad++;
            }
        }
    }
    *uncolored = none;
    return bad;
}
