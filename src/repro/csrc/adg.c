/* The batched level peel of Table II's orderings: ADG, ADG-M, ASL and
   SLL (repro/ordering/adg.py). */

#include "repro.h"

/* The threshold rules: ADG's (1+eps) * average degree, ADG-M's median
   rank, ASL's live minimum and SLL's doubling 2^r. */
enum { RULE_AVG, RULE_MEDIAN, RULE_MIN, RULE_DOUBLING };

/* Every iteration of the peel in one pass: each removes the live
   vertices the rule selects and decrements their live neighbors.
   deg, live, batch and ranks (n slots) and bucket (max degree + 1
   slots) need no initialization; levels and pred (n slots, pred only
   with flag 4) and books (7 x n: batch size, removed degree sum,
   neighbors touched, cut, remaining, batch max degree, and SLL's
   threshold doublings before the round or ADG-M's largest live
   degree) start at 0.  flags: 1 = pull UPDATE (else push), 2 = sort
   each batch by degree (ranks receives that explicit order), 4 =
   fused DAG predecessor counts.  Without flag 2, ranks receives the
   order <levels, tiebreak> (tiebreak a permutation of 0..n-1).
   Returns the number of iterations, or minus the iteration that
   selected no vertex. */
long long repro_adg(long long n, const int64_t *indptr,
                    const int64_t *indices, long long rule, double eps,
                    long long flags, const int64_t *tiebreak, int64_t *deg,
                    int64_t *levels, int64_t *ranks, int64_t *pred,
                    int64_t *live, int64_t *batch, int64_t *bucket,
                    int64_t *books)
{
    int64_t *b_size = books, *b_removed = books + n, *b_touched = books + 2 * n;
    int64_t *b_cut = books + 3 * n, *b_left = books + 4 * n;
    int64_t *b_max = books + 5 * n, *b_rule = books + 6 * n;
    long long i, k, it = 0, nlive = n;
    int64_t sum = 0, counter = 0, power = 1;
    for (i = 0; i < n; i++) {
        deg[i] = indptr[i + 1] - indptr[i];
        sum += deg[i];
        live[i] = i;
    }
    while (nlive > 0) {
        long long nb = 0, keep = 0;
        int64_t removed = 0, touched = 0, cut = 0, dmax = 0;
        it++;
        /* Every rule takes each live vertex of degree below t, then
           (ADG-M) the first quota of degree t in id order. */
        int64_t t, quota = 0;
        double below;
        if (rule == RULE_AVG) {
            /* The NumPy loop's arithmetic, sum / remaining, then
               (1+eps)*avg; an integer degree is at most that threshold
               iff it is below its floor + 1 (none below 0 or NaN). */
            const double threshold = (1.0 + eps) * ((double)sum
                                                    / (double)nlive);
            t = !(threshold >= 0.0) ? 0
                : threshold < 0x1p62 ? (int64_t)threshold + 1 : INT64_MAX;
        } else {
            int64_t lo = deg[live[0]], hi = lo;
            for (i = 1; i < nlive; i++) {
                const int64_t d = deg[live[i]];
                if (d < lo)
                    lo = d;
                if (d > hi)
                    hi = d;
            }
            if (rule == RULE_MIN) {
                t = lo + 1;
            } else if (rule == RULE_DOUBLING) {
                /* A threshold below every live degree selects nothing:
                   it doubles and the round is not counted. */
                while (power < lo) {
                    power *= 2;
                    b_rule[it - 1]++;
                }
                t = power + 1;
            } else {
                /* The ceil(nlive / 2) smallest degrees, ties in id
                   order: a stable sort's first half. */
                quota = (nlive + 1) / 2;
                for (k = 0; k <= hi; k++)
                    bucket[k] = 0;
                for (i = 0; i < nlive; i++)
                    bucket[deg[live[i]]]++;
                for (t = 0; bucket[t] < quota; t++)
                    quota -= bucket[t];
                b_rule[it - 1] = hi;
            }
        }
        below = (double)t;  /* gcc -O3 runs this compare faster as double */
        for (i = 0; i < nlive; i++) {   /* live stays in id order */
            const int64_t v = live[i], d = deg[v];
            if ((double)d < below || (d == t && quota > 0 && quota--)) {
                batch[nb++] = v;
                levels[v] = it;
                removed += d;
                if (d > dmax)
                    dmax = d;
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
