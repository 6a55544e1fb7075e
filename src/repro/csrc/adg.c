/* The ADG ordering, avg variant (repro/ordering/adg.py). */

#include "repro.h"

/* Every iteration of ADG (avg variant) in one pass.  deg, live, batch
   and ranks (n slots) and bucket (max degree + 1 slots) need no
   initialization; levels and pred (n slots, pred only with flag 4) and
   books (6 x n: batch size, removed degree sum, neighbors touched,
   cut, remaining, batch max degree) start at 0.  flags: 1 = pull
   UPDATE (else push), 2 = sort each batch by degree (ranks receives
   that explicit order), 4 = fused DAG predecessor counts.  Without
   flag 2, ranks receives the order <levels, tiebreak> (tiebreak a
   permutation of 0..n-1).  Returns the number of iterations, or
   minus the iteration that selected no vertex. */
long long repro_adg(long long n, const int64_t *indptr,
                    const int64_t *indices, double eps, long long flags,
                    const int64_t *tiebreak, int64_t *deg, int64_t *levels,
                    int64_t *ranks, int64_t *pred, int64_t *live,
                    int64_t *batch, int64_t *bucket, int64_t *books)
{
    int64_t *b_size = books, *b_removed = books + n, *b_touched = books + 2 * n;
    int64_t *b_cut = books + 3 * n, *b_left = books + 4 * n;
    int64_t *b_max = books + 5 * n;
    long long i, k, it = 0, nlive = n;
    int64_t sum = 0, counter = 0;
    for (i = 0; i < n; i++) {
        deg[i] = indptr[i + 1] - indptr[i];
        sum += deg[i];
        live[i] = i;
    }
    while (nlive > 0) {
        /* The NumPy loop's arithmetic: sum / remaining, then (1+eps)*avg. */
        const double avg = (double)sum / (double)nlive;
        const double threshold = (1.0 + eps) * avg;
        long long nb = 0, keep = 0;
        int64_t removed = 0, touched = 0, cut = 0, dmax = 0;
        it++;
        for (i = 0; i < nlive; i++) {   /* live stays in ascending id order */
            const int64_t v = live[i];
            if ((double)deg[v] <= threshold) {
                batch[nb++] = v;
                levels[v] = it;
                removed += deg[v];
                if (deg[v] > dmax)
                    dmax = deg[v];
            } else {
                live[keep++] = v;
            }
        }
        b_left[it - 1] = keep;
        if (nb == 0)
            return -it;
        nlive = keep;
        if (flags & 2) {                /* stable counting sort by degree */
            int64_t acc = counter;
            for (k = 0; k <= dmax; k++)
                bucket[k] = 0;
            for (i = 0; i < nb; i++)
                bucket[deg[batch[i]]]++;
            for (k = 0; k <= dmax; k++) {
                const int64_t c = bucket[k];
                bucket[k] = acc;
                acc += c;
            }
            for (i = 0; i < nb; i++)
                ranks[batch[i]] = bucket[deg[batch[i]]]++;
            counter += nb;
        }
        if (flags & 1) {                /* pull: Count(N_U(v) cap R) */
            for (i = 0; i < nlive; i++) {
                const int64_t v = live[i], lo = indptr[v], hi = indptr[v + 1];
                int64_t j, dec = 0;
                for (j = lo; j < hi; j++)
                    dec += levels[indices[j]] == it;
                deg[v] -= dec;
                cut += dec;
                touched += hi - lo;
            }
        } else {                        /* push, fused with PRIORITIZE */
            for (i = 0; i < nb; i++) {
                const int64_t v = batch[i], lo = indptr[v], hi = indptr[v + 1];
                int64_t j, later = 0;
                for (j = lo; j < hi; j++) {
                    const int64_t u = indices[j], lu = levels[u];
                    const int64_t alive = lu == 0;  /* branch-free: ~50% */
                    deg[u] -= alive;
                    cut += alive;
                    later += alive;
                    if ((flags & 4) && lu == it && ranks[u] > ranks[v])
                        later++;        /* later in the sorted batch */
                }
                touched += hi - lo;
                if (flags & 4)
                    pred[v] += later;
            }
        }
        sum -= removed + cut;
        b_size[it - 1] = nb;
        b_removed[it - 1] = removed;
        b_touched[it - 1] = touched;
        b_cut[it - 1] = cut;
        b_max[it - 1] = dmax;
    }
    if (!(flags & 2)) {
        /* Counting sort by level over the vertices in tie-break order:
           live[l - 1] is the first rank of level l, batch the inverse
           tie-break. */
        int64_t acc = 0;
        for (k = 0; k < it; k++) {
            live[k] = acc;
            acc += b_size[k];
        }
        for (i = 0; i < n; i++)
            batch[tiebreak[i]] = i;
        for (i = 0; i < n; i++) {
            const int64_t v = batch[i];
            ranks[v] = live[levels[v] - 1]++;
        }
    }
    return it;
}
