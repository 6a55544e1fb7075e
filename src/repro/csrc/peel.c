/* The degeneracy peel (repro/graphs/properties.py). */

#include "repro.h"

/* Batagelj-Zaversnik peel.  deg (n slots) holds the degrees and ends
   holding the coreness; vert (n) ends holding the removal order; pos
   (n) and bins (max degree + 1, zeroed) are scratch. */
void repro_peel(long long n, long long maxdeg, const int64_t *indptr,
                const int64_t *indices, int64_t *deg, int64_t *vert,
                int64_t *pos, int64_t *bins)
{
    long long i, d, start = 0;
    for (i = 0; i < n; i++)             /* bucket sizes ... */
        bins[deg[i]]++;
    for (d = 0; d <= maxdeg; d++) {     /* ... to bucket starts */
        const int64_t size = bins[d];
        bins[d] = start;
        start += size;
    }
    for (i = 0; i < n; i++) {           /* vertices sorted by degree */
        pos[i] = bins[deg[i]]++;
        vert[pos[i]] = i;
    }
    for (d = maxdeg; d > 0; d--)        /* restore the bucket starts */
        bins[d] = bins[d - 1];
    bins[0] = 0;
    for (i = 0; i < n; i++) {
        const int64_t v = vert[i], dv = deg[v];
        int64_t j;
        for (j = indptr[v]; j < indptr[v + 1]; j++) {
            const int64_t u = indices[j], du = deg[u];
            if (du > dv) {              /* swap u to its bucket head */
                const int64_t pu = pos[u], pw = bins[du], w = vert[pw];
                if (u != w) {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du]++;
                deg[u] = du - 1;
            }
        }
    }
}
