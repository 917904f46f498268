/* Compiled hot-loop kernels for the MaTCH reproduction.
 *
 * Scalar-loop form of the vectorized reference in
 * repro/kernels/impl_numpy.py, which is the oracle: the parity suite in
 * tests/kernels/ pins every function here against it bit for bit. Loop
 * structure may differ where it buys instruction-level parallelism (the
 * GenPerm position loop interleaves four samples), but every per-sample
 * float operation sequence matches the reference exactly.
 *
 * Bit-exactness rules:
 *
 *  - Accumulation order matches numpy. `bincount` accumulates per bucket
 *    in input order, so the processing term sums tasks ascending, each
 *    edge term sums edges ascending, and the three Eq. (1) terms combine
 *    as `(proc + acc_s) + acc_b`.
 *  - Every product is a single IEEE multiply. The build (driven by
 *    impl_cext.py) uses `-O3 -ffp-contract=off` and never -ffast-math:
 *    fused multiply-adds and reassociation would change last-ulp results
 *    against numpy.
 *  - GenPerm consumes pre-drawn uniforms only. The RNG never enters a
 *    kernel, so the stream position is backend-invariant by construction.
 *    A sample's visit order is the stable argsort of its order uniforms
 *    (ties in index order), which the reference spells
 *    argsort(kind="stable").
 *  - The batch kernels (scoring and GenPerm) may split a call's rows
 *    into contiguous ranges on several POSIX threads (split_rows). Each
 *    output row depends only on its own uniforms and unused list, and
 *    each thread has its own scratch and writes only its own rows, so
 *    the result is bit-identical for every thread count. The
 *    caller (impl_cext.py) picks the count from the call's work; no
 *    thread outlives the call.
 *
 * No Python.h: the library is plain C called through ctypes, so one
 * shared object serves every interpreter version. All functions return
 * 0 on success and -1 on allocation failure.
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ---------------- Row-range splitter ---------------- */

/* The batch kernels compute every output row from that row's inputs
 * alone, so a batch can be cut into contiguous row ranges that run on
 * separate threads, each with its own scratch, writing disjoint output
 * rows. Every row goes through the same operation sequence whatever the
 * split, so the result is bit-identical for any thread count. Threads
 * live only inside one call: split_rows creates and joins them. */

typedef int (*rows_fn)(void *args, i64 lo, i64 hi);

#define MAX_THREADS 64

struct rows_job {
    rows_fn fn;
    void *args;
    i64 lo, hi;
    int status;
};

static void *rows_job_run(void *p)
{
    struct rows_job *job = p;
    job->status = job->fn(job->args, job->lo, job->hi);
    return NULL;
}

/* Run fn over rows [0, N) in n_threads contiguous ranges. The caller's
 * thread takes the first range; a range whose thread cannot be created
 * runs inline. Returns -1 if any range failed, else 0. */
static int split_rows(rows_fn fn, void *args, i64 N, i64 n_threads)
{
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS];
    struct rows_job jobs[MAX_THREADS];
    int status = 0;
    i64 t;
    if (n_threads > N)
        n_threads = N;
    if (n_threads > MAX_THREADS)
        n_threads = MAX_THREADS;
    if (n_threads <= 1)
        return fn(args, 0, N);
    for (t = 0; t < n_threads; t++) {
        jobs[t].fn = fn;
        jobs[t].args = args;
        jobs[t].lo = N * t / n_threads;
        jobs[t].hi = N * (t + 1) / n_threads;
        jobs[t].status = 0;
        started[t] = 0;
    }
    for (t = 1; t < n_threads; t++) {
        started[t] = pthread_create(&tid[t], NULL, rows_job_run, &jobs[t]) == 0;
        if (!started[t])
            rows_job_run(&jobs[t]);
    }
    rows_job_run(&jobs[0]);
    for (t = 0; t < n_threads; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        if (jobs[t].status != 0)
            status = -1;
    }
    return status;
}

/* ---------------- Eq. (1)/(2) batch scoring ---------------- */

static void times_row(const i64 *xrow, i64 n_t, i64 n_r,
                      const double *W, const double *w, const double *ccm,
                      const i64 *eu, const i64 *ev, const double *C, i64 n_e,
                      double *proc, double *acc_s, double *acc_b)
{
    i64 r, t, e;
    for (r = 0; r < n_r; r++) {
        proc[r] = 0.0;
        acc_s[r] = 0.0;
        acc_b[r] = 0.0;
    }
    for (t = 0; t < n_t; t++) {
        i64 s = xrow[t];
        proc[s] += W[t] * w[s];
    }
    for (e = 0; e < n_e; e++) {
        i64 s = xrow[eu[e]];
        i64 b = xrow[ev[e]];
        double link = C[e] * ccm[s * n_r + b];
        acc_s[s] += link;
        acc_b[b] += link;
    }
}

struct batch_args {
    const i64 *X;
    i64 n_t, n_r;
    const double *W, *w, *ccm;
    const i64 *eu, *ev;
    const double *C;
    i64 n_e;
    double *out;
};

/* Rows [lo, hi) of repro_eval_batch: the Eq. (2) max per row. */
static int eval_rows(void *p, i64 lo, i64 hi)
{
    const struct batch_args *a = p;
    double *scratch = malloc((size_t)(3 * a->n_r) * sizeof(double));
    double *proc, *acc_s, *acc_b;
    i64 j, r;
    if (scratch == NULL)
        return -1;
    proc = scratch;
    acc_s = scratch + a->n_r;
    acc_b = scratch + 2 * a->n_r;
    for (j = lo; j < hi; j++) {
        double best, v;
        times_row(a->X + j * a->n_t, a->n_t, a->n_r, a->W, a->w, a->ccm,
                  a->eu, a->ev, a->C, a->n_e, proc, acc_s, acc_b);
        best = (proc[0] + acc_s[0]) + acc_b[0];
        for (r = 1; r < a->n_r; r++) {
            v = (proc[r] + acc_s[r]) + acc_b[r];
            if (v > best)
                best = v;
        }
        a->out[j] = best;
    }
    free(scratch);
    return 0;
}

int repro_eval_batch(const i64 *X, i64 N, i64 n_t, i64 n_r,
                     const double *W, const double *w, const double *ccm,
                     const i64 *eu, const i64 *ev, const double *C, i64 n_e,
                     double *out, i64 n_threads)
{
    struct batch_args a = {X, n_t, n_r, W, w, ccm, eu, ev, C, n_e, out};
    return split_rows(eval_rows, &a, N, n_threads);
}

/* ---------------- GenPerm position loop ---------------- */

/* The reference loop walks ALL n_res resources per (sample, position)
 * cell, multiplying each row entry by a 0/1 mask. Two observations make
 * a compressed walk over only the still-unused resources value-identical:
 *
 *   1. A masked entry contributes row[i]*0.0 == +0.0, and acc + 0.0 is a
 *      bitwise no-op (acc starts at +0.0 and only ever accumulates
 *      non-negative finite terms, so it is never -0.0). Dropping masked
 *      terms leaves every accumulator value — including the final mass —
 *      bit-identical. An unmasked entry contributes row[i]*1.0 == row[i]
 *      exactly.
 *   2. The reference picks the first index i with cdf[i] > u. The cdf
 *      only changes value at unused positions (masked positions replicate
 *      the previous value, and the all-masked prefix holds +0.0 <= u), so
 *      that first index is always an unused position: scanning the
 *      compressed cdf finds the identical choice.
 *
 * The dead-row fallback (uniform over unused: 1.0 increments at unused
 * positions) and the overflow clamp (resource n_res-1 if still unused,
 * else the first unused) translate the same way. Each sample therefore
 * keeps an ascending list of its unused resources; position `pos` walks
 * K = n_res - pos entries instead of n_res, halving the serial FP-add
 * chain work over the whole run. */

/* Everything after the compressed cumulative sum for one sample:
 * dead-row fallback, inverse-CDF scan, overflow clamp, and removal of
 * the chosen resource from the sample's unused list. Returns the chosen
 * resource id. */
static i64 genperm_pick(double *cdf, int32_t *idx, i64 K, i64 n_res,
                        double u01)
{
    double mass = cdf[K - 1];
    double u;
    i64 k, choice;
    if (mass <= 0.0) {
        /* Dead row: uniform over the unused resources. */
        double acc = 0.0;
        for (k = 0; k < K; k++) {
            acc = acc + 1.0;
            cdf[k] = acc;
        }
        mass = cdf[K - 1];
    }
    u = u01 * mass;
    /* First index with cdf > u. The cdf is non-decreasing (non-negative
     * increments), so a branchless upper-bound bisection lands on the
     * same index as the reference's linear scan in log2(K) compare steps
     * with no data-dependent branch to mispredict. */
    {
        i64 lo = 0, len = K;
        while (len > 1) {
            i64 half = len >> 1;
            if (cdf[lo + half - 1] <= u)
                lo += half;
            len -= half;
        }
        k = lo + (cdf[lo] <= u);
    }
    if (k == K) {
        /* Overflow clamp; resource n_res-1 when still unused, else the
         * first unused resource. */
        k = (idx[K - 1] == (int32_t)(n_res - 1)) ? K - 1 : 0;
    }
    choice = idx[k];
    memmove(idx + k, idx + k + 1, (size_t)(K - 1 - k) * sizeof(int32_t));
    return choice;
}

/* Bucket of one order uniform for the counting pass: floor(u * n)
 * clamped to [0, n). The comparisons send NaN to bucket 0 instead of
 * into a float-to-int cast (undefined in C); ±inf and out-of-range
 * finite values clamp to the end buckets. The bucket never decreases
 * as u grows, so bucket order never contradicts value order. */
static int32_t order_bucket(double u, i64 n)
{
    double s = u * (double)n;
    if (!(s >= 0.0))
        return 0;
    if (s >= (double)n)
        return (int32_t)(n - 1);
    return (int32_t)s;
}

/* Task visit order of one sample (Fig. 4 step 1): the stable argsort of
 * its n order uniforms, ties in index order, as numpy's
 * argsort(kind="stable") gives it. A stable counting pass scatters the
 * indices into bucket order, then an insertion pass with a strict
 * comparison sorts inside the buckets without reordering equal keys.
 * Uniforms put about one index in each bucket, so the sort is linear.
 * Scratch: key holds n entries, count n + 1. A NaN compares false both
 * ways, so it only stops the insertion pass early: the order is still a
 * permutation. */
static void sort_order(const double *u, i64 n, int32_t *order,
                       double *key, i64 *count)
{
    i64 i, j;
    for (i = 0; i <= n; i++)
        count[i] = 0;
    for (i = 0; i < n; i++)
        count[order_bucket(u[i], n) + 1]++;
    for (i = 1; i < n; i++)
        count[i] += count[i - 1];
    for (i = 0; i < n; i++) {
        i64 p = count[order_bucket(u[i], n)]++;
        order[p] = (int32_t)i;
        key[p] = u[i];
    }
    for (i = 1; i < n; i++) {
        double k = key[i];
        int32_t o = order[i];
        for (j = i; j > 0 && key[j - 1] > k; j--) {
            key[j] = key[j - 1];
            order[j] = order[j - 1];
        }
        key[j] = k;
        order[j] = o;
    }
}

struct genperm_args {
    const double *P, *rand_orders, *rand_pos;
    i64 N, n_t, n_res;
    i64 *X;
};

/* The position loop over `rows` consecutive samples of one chain. P is
 * the chain's (n_t, n_res) block, orders its samples' visit orders,
 * u0 the chain's roulette uniforms shifted to the first of these
 * samples: position `pos` reads u0[pos * N + j]. avail holds rows·n_res
 * and cdf 4·n_res entries. */
static void genperm_chain(const double *P, const int32_t *orders,
                          const double *u0, i64 rows, i64 N, i64 n_t,
                          i64 n_res, i64 *X, int32_t *avail, double *cdf)
{
    i64 j, pos, i;
    for (j = 0; j < rows; j++)
        for (i = 0; i < n_res; i++)
            avail[j * n_res + i] = (int32_t)i;
    for (pos = 0; pos < n_t; pos++) {
        const i64 K = n_res - pos;
        const double *u_pos = u0 + pos * N;
        if (K == 1) {
            /* Square case, last position: the one unused resource is
             * forced (the reference's rem-sum shortcut). */
            for (j = 0; j < rows; j++)
                X[j * n_t + orders[j * n_t + pos]] = avail[j * n_res];
            break;
        }
        /* The compressed cumulative sum is a loop-carried float
         * dependency chain (K serial adds per sample) and is what bounds
         * this kernel. Samples are independent, so four run interleaved:
         * four accumulator chains in flight hide the FP add latency while
         * each sample's own adds stay in reference order. */
        j = 0;
        for (; j + 4 <= rows; j += 4) {
            i64 t0 = orders[(j + 0) * n_t + pos];
            i64 t1 = orders[(j + 1) * n_t + pos];
            i64 t2 = orders[(j + 2) * n_t + pos];
            i64 t3 = orders[(j + 3) * n_t + pos];
            const double *r0 = P + t0 * n_res;
            const double *r1 = P + t1 * n_res;
            const double *r2 = P + t2 * n_res;
            const double *r3 = P + t3 * n_res;
            int32_t *i0 = avail + (j + 0) * n_res;
            int32_t *i1 = avail + (j + 1) * n_res;
            int32_t *i2 = avail + (j + 2) * n_res;
            int32_t *i3 = avail + (j + 3) * n_res;
            double *c0 = cdf;
            double *c1 = cdf + n_res;
            double *c2 = cdf + 2 * n_res;
            double *c3 = cdf + 3 * n_res;
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            i64 k;
            for (k = 0; k < K; k++) {
                a0 = a0 + r0[i0[k]];
                c0[k] = a0;
                a1 = a1 + r1[i1[k]];
                c1[k] = a1;
                a2 = a2 + r2[i2[k]];
                c2[k] = a2;
                a3 = a3 + r3[i3[k]];
                c3[k] = a3;
            }
            X[(j + 0) * n_t + t0] = genperm_pick(c0, i0, K, n_res, u_pos[j + 0]);
            X[(j + 1) * n_t + t1] = genperm_pick(c1, i1, K, n_res, u_pos[j + 1]);
            X[(j + 2) * n_t + t2] = genperm_pick(c2, i2, K, n_res, u_pos[j + 2]);
            X[(j + 3) * n_t + t3] = genperm_pick(c3, i3, K, n_res, u_pos[j + 3]);
        }
        for (; j < rows; j++) {
            i64 task = orders[j * n_t + pos];
            const double *row = P + task * n_res;
            int32_t *idx = avail + j * n_res;
            double acc = 0.0;
            i64 k;
            for (k = 0; k < K; k++) {
                acc = acc + row[idx[k]];
                cdf[k] = acc;
            }
            X[j * n_t + task] = genperm_pick(cdf, idx, K, n_res, u_pos[j]);
        }
    }
}

/* Rows [lo, hi) of repro_genperm. Row `row` is sample row - c·N of chain
 * c = row / N, so the range is walked one chain segment at a time: sort
 * the segment's visit orders, then run its position loop. Per-thread
 * scratch is sized for the longest segment, min(hi - lo, N) rows. */
static int genperm_rows(void *p, i64 lo, i64 hi)
{
    const struct genperm_args *a = p;
    const i64 N = a->N, n_t = a->n_t, n_res = a->n_res;
    const i64 seg = (hi - lo < N) ? hi - lo : N;
    int32_t *orders = malloc((size_t)(seg * n_t) * sizeof(int32_t));
    int32_t *avail = malloc((size_t)(seg * n_res) * sizeof(int32_t));
    double *cdf = malloc((size_t)(4 * n_res) * sizeof(double));
    double *key = malloc((size_t)n_t * sizeof(double));
    i64 *count = malloc((size_t)(n_t + 1) * sizeof(i64));
    i64 row = lo, j;
    int status = 0;
    if (orders == NULL || avail == NULL || cdf == NULL || key == NULL
        || count == NULL) {
        status = -1;
        goto out;
    }
    while (row < hi) {
        const i64 c = row / N;
        const i64 end = ((c + 1) * N < hi) ? (c + 1) * N : hi;
        const i64 rows = end - row;
        for (j = 0; j < rows; j++)
            sort_order(a->rand_orders + (row + j) * n_t, n_t,
                       orders + j * n_t, key, count);
        genperm_chain(a->P + c * n_t * n_res, orders,
                      a->rand_pos + c * n_t * N + (row - c * N),
                      rows, N, n_t, n_res, a->X + row * n_t, avail, cdf);
        row = end;
    }
out:
    free(orders);
    free(avail);
    free(cdf);
    free(key);
    free(count);
    return status;
}

/* GenPerm over a stack of R chains, N samples each. P is (R, n_t, n_res),
 * rand_orders (R, N, n_t) and rand_pos (R, n_t, N), all as the engine
 * draws them; X is (R, N, n_t). Rows (chain-major samples) split across
 * threads at any point, a chain's middle included. */
int repro_genperm(const double *P, const double *rand_orders,
                  const double *rand_pos, i64 R, i64 N, i64 n_t, i64 n_res,
                  i64 *X, i64 n_threads)
{
    struct genperm_args a = {P, rand_orders, rand_pos, N, n_t, n_res, X};
    return split_rows(genperm_rows, &a, R * N, n_threads);
}
