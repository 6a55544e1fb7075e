/* The compiled passes' shared includes and entry points.

   Every .c file in this directory is compiled into one shared object
   by repro/primitives/cbuild.py, which also binds each entry point
   below to its ctypes signature.  Callers keep a pure-Python/NumPy
   path for when the object does not build, and hand every CSR through
   cbuild.checked_csr first: the loops here index their arrays
   unchecked. */
#ifndef REPRO_H
#define REPRO_H

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* edgeparse.c: the ingest scanner, id encoder and in-memory CSR build
   (repro/graphs/ingest.py). */
long long repro_parse_edges(const unsigned char *b, long long n,
                            unsigned char comment,
                            int64_t *u, int64_t *v);
long long repro_encode(const int64_t *vals, long long k, int32_t *slot,
                       long long tsize, int64_t *vocab, long long d,
                       int32_t *codes);
long long repro_canon_rows(int32_t *codes, long long ne,
                           const int32_t *rank, long long nv, long long n,
                           int64_t *cur, const int64_t *end, int32_t *adj);
long long repro_sort_rows(int32_t *adj, const int64_t *rows, long long n,
                          int nbytes, int32_t *tmp, int64_t *deg);
long long repro_symmetrize(const int32_t *up, long long total,
                           const int64_t *updeg, long long n,
                           int64_t *indptr, int64_t *indices);

/* peel.c: the Batagelj-Zaversnik degeneracy peel
   (repro/graphs/properties.py). */
void repro_peel(long long n, long long maxdeg, const int64_t *indptr,
                const int64_t *indices, int64_t *deg, int64_t *vert,
                int64_t *pos, int64_t *bins);

/* ranksweep.c: the JP/Greedy rank sweep (repro/coloring/sweep.py). */
long long repro_rank_sweep(long long n, const int64_t *indptr,
                           const int64_t *indices, const int64_t *ranks,
                           const int64_t *order, int64_t *colors,
                           int64_t *wave, int64_t *seen, int64_t *wseen,
                           int64_t *wcnt, int64_t *front, int64_t *nbrs,
                           int64_t *succ, int64_t *maxdeg, int64_t *coll);

/* itrlevels.c: DEC-ADG-ITR's level pass, which ITR and ITR-ASL run as
   one level (repro/coloring/dec_adg_itr.py). */
long long repro_itr_levels(const int64_t *indptr, const int64_t *indices,
                           const int64_t *priority, const int64_t *order,
                           const int64_t *bounds, long long num_levels,
                           long long max_rounds, long long cap,
                           int64_t *colors, int64_t *lptr, int64_t *lidx,
                           int64_t *hbuf, int64_t *lcol, int64_t *lprio,
                           int64_t *stamp, int64_t *active, int64_t *boff,
                           int64_t *pb, int64_t *rb);

/* adg.c: every iteration of the batched level peel behind the ADG,
   ADG-M, ASL and SLL orderings (repro/ordering/adg.py). */
long long repro_adg(long long n, const int64_t *indptr,
                    const int64_t *indices, long long rule, double eps,
                    long long flags, const int64_t *tiebreak, int64_t *deg,
                    int64_t *levels, int64_t *ranks, int64_t *pred,
                    int64_t *live, int64_t *batch, int64_t *bucket,
                    int64_t *books);

/* verify.c: the coloring-verify neighbor scan
   (repro/coloring/verify.py). */
long long repro_verify(long long n, const int64_t *indptr,
                       const int64_t *indices, const int64_t *colors,
                       long long cap, int64_t *bu, int64_t *bv,
                       long long *uncolored);

#endif
