/* The JP/Greedy rank sweep (repro/coloring/sweep.py). */

#include "repro.h"

/* One pass over the vertices in descending rank (order[]).  colors and
   wave start at 0; seen (>= max degree + 1 slots), wseen, wcnt and the
   five per-wave books (n + 1 slots, indexed by wave) start at 0.
   Returns the number of waves. */
long long repro_rank_sweep(long long n, const int64_t *indptr,
                           const int64_t *indices, const int64_t *ranks,
                           const int64_t *order, int64_t *colors,
                           int64_t *wave, int64_t *seen, int64_t *wseen,
                           int64_t *wcnt, int64_t *front, int64_t *nbrs,
                           int64_t *succ, int64_t *maxdeg, int64_t *coll)
{
    long long i, waves = 0;
    for (i = 0; i < n; i++) {
        const int64_t v = order[i], rv = ranks[v], epoch = i + 1;
        const int64_t lo = indptr[v], hi = indptr[v + 1], deg = hi - lo;
        int64_t j, c, w = 0, npred = 0;
        for (j = lo; j < hi; j++) {
            const int64_t u = indices[j];
            int64_t wu;
            if (ranks[u] <= rv)
                continue;               /* a successor: colored later */
            npred++;
            c = colors[u];
            if (c <= deg)               /* larger colors never block the mex */
                seen[c] = epoch;
            wu = wave[u];
            if (wu > w)
                w = wu;
            if (wseen[wu] != epoch) {   /* v's predecessors in wave wu */
                wseen[wu] = epoch;
                wcnt[wu] = 0;
            }
            if (++wcnt[wu] > coll[wu])
                coll[wu] = wcnt[wu];
        }
        for (c = 1; c <= deg && seen[c] == epoch; c++)
            ;
        colors[v] = c;
        wave[v] = ++w;
        if (w > waves)
            waves = w;
        front[w]++;
        nbrs[w] += deg;
        succ[w] += deg - npred;
        if (deg > maxdeg[w])
            maxdeg[w] = deg;
    }
    return waves;
}
