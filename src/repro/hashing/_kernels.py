"""Runtime-compiled C kernels for the sketch hot paths.

The stacked evaluators (:mod:`repro.hashing.stacked`) serve all ``H`` rows
of a sketch in one vectorized pass; the fused C kernels below go one step
further and merge the *whole* per-item pipeline into a single pass over
the key batch:

* **tabulation** (pre-reduced ``uint16`` bucket strips): fused
  hash+scatter UPDATE (plain and Count-Sketch signed), fused hash+gather,
  and a fused hash+gather+transform+median ESTIMATE;
* **Carter-Wegman polynomial / two-universal**: the same set, with the
  Horner recursion over ``P61 = 2**61 - 1`` evaluated per key in exact
  64-bit integer arithmetic that replicates the NumPy fold step for step;
* **precomputed-index** gather and majority vote, serving callers that
  already hold the ``(H, n)`` bucket indices: the detection report hashes
  its candidate keys once and reads their rows with ``idx_gather``, and
  invertible sketches over the polynomial and two-universal families
  vote with ``idx_update_mv``.

NumPy executes each of those pipelines as several full passes over the
batch (gather, gather, xor/mul, scatter or median); the kernels do one
pass, keeping the lookup strips (or coefficient rows) and the counter
table hot in cache.  Every kernel is **bit-identical** to the pure-NumPy
reference: scatter accumulation runs in per-row stream order (matching
per-row ``np.add.at``), the modular arithmetic replays NumPy's exact
32-bit-split fold, and the ESTIMATE median reproduces ``np.median``'s
order statistics (odd ``H``: the middle element; even ``H``: the mean of
the two middle elements).

The kernels are optional.  At import time nothing happens; on first use
the embedded C source is compiled with the host's C compiler (``$CC`` if
set, else ``cc``/``gcc``/``clang``) into a shared object cached under the
system temp directory (keyed by a hash of the source, so stale caches are
never reused).  If no compiler is available, compilation fails, ``CC`` is
set to an empty string, or the environment variable ``REPRO_NO_KERNELS``
is set, every caller silently falls back to the pure-NumPy stacked path
-- results are bit-identical either way, only throughput differs.

Each facade method tallies its invocations in :attr:`SketchKernels.calls`;
:func:`kernel_call_counts` exposes the process-wide totals so the
observability layer can export per-kernel counters.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
from typing import Dict, Optional

import numpy as np

#: Fused-ESTIMATE kernels keep the per-key row buffer on the stack; any
#: depth beyond this falls back to the NumPy median (the paper's deepest
#: configuration is H = 25).
MAX_ESTIMATE_DEPTH = 64

#: Temporaries one ``combine_sweep`` call can hold: the kernel keeps each
#: in a fixed block-local buffer.  Mirrors the C constant of the same name;
#: :func:`repro.sketch.base.sweep_statements` rejects longer lists on both
#: paths, and the kernel returns without writing if one gets through.
SWEEP_MAX_TEMPS = 8

#: Every kernel entry point, as exported by :func:`kernel_call_counts`
#: (and pre-registered by the observability layer so "never called"
#: stays distinguishable from "not instrumented").
KERNEL_NAMES = (
    "tab_hash",
    "tab_update",
    "tab_update_signed",
    "tab_gather",
    "tab_estimate",
    "poly_hash",
    "poly_update",
    "poly_update_signed",
    "poly_gather",
    "poly_estimate",
    "idx_gather",
    "tab_update_mv",
    "idx_update_mv",
    "mv_merge",
    "mv_combine2",
    "mv_recover",
    "combine_sweep",
    "tab_update_mt",
    "tab_update_signed_mt",
    "poly_update_mt",
    "poly_update_signed_mt",
    "tab_update_mv_mt",
    "idx_update_mv_mt",
    "tab_estimate_mt",
    "poly_estimate_mt",
)

#: Hard ceiling on pool worker threads inside the compiled object (the
#: main thread always runs part 0, so the effective parallelism cap is
#: ``POOL_MAX + 1``).  Mirrors the C constant of the same name.
POOL_MAX = 32

#: Default cap applied to the detected core count when ``REPRO_NUM_THREADS``
#: is unset; row-sharded kernels cannot use more threads than sketch rows
#: anyway, and the paper's configurations stay single-digit ``H``.
DEFAULT_THREAD_CAP = 8

#: Batches smaller than this dispatch to the serial kernels even when the
#: pool is enabled -- waking the pool costs a few microseconds, which only
#: pays for itself once the per-thread slice is big enough.  Overridable
#: via ``REPRO_MIN_PARALLEL_KEYS`` (tests set it to 0 to force the pool).
DEFAULT_MIN_PARALLEL_KEYS = 8192

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <math.h>
#include <pthread.h>

/* --- Persistent fork-join thread pool ----------------------------------
 * One pool per process, spawned lazily on the first parallel dispatch and
 * kept alive for the life of the shared object (workers are detached and
 * die with the process).  Dispatch is generation-counted: pool_run stores
 * the task, bumps pool_gen, and broadcasts; every worker wakes, runs its
 * part (workers whose slot exceeds the part count just decrement the
 * join counter), and the main thread runs part 0 itself before joining.
 * A dispatch mutex serializes concurrent pool_run callers (ctypes drops
 * the GIL, so two Python threads can both be inside kernels at once).
 *
 * fork() safety: a child forked while workers hold pool_mu would inherit
 * a locked mutex and no threads, so an atfork child handler (registered
 * the first time repro_set_threads runs, i.e. before any dispatch) resets
 * the primitives and worker count; the child's first parallel call (in,
 * e.g., a forked process-pool worker) simply respawns the pool. */

typedef void (*pool_task_fn)(void* arg, int64_t part, int64_t nparts);

#define POOL_MAX 32

static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t pool_dispatch_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_go = PTHREAD_COND_INITIALIZER;
static pthread_cond_t pool_done = PTHREAD_COND_INITIALIZER;
static int pool_workers = 0;   /* spawned worker threads (main not counted) */
static int pool_target = 1;    /* configured total thread count */
static int pool_atfork_set = 0;
static uint64_t pool_gen = 0;
static pool_task_fn pool_fn;
static void* pool_arg;
static int64_t pool_nparts;
static int64_t pool_remaining;

static void* pool_worker(void* slotp) {
    int64_t slot = (int64_t)(size_t)slotp;
    uint64_t seen = 0;
    pthread_mutex_lock(&pool_mu);
    for (;;) {
        while (pool_gen == seen)
            pthread_cond_wait(&pool_go, &pool_mu);
        seen = pool_gen;
        pool_task_fn fn = pool_fn;
        void* arg = pool_arg;
        int64_t nparts = pool_nparts;
        pthread_mutex_unlock(&pool_mu);
        if (slot + 1 < nparts)
            fn(arg, slot + 1, nparts);
        pthread_mutex_lock(&pool_mu);
        if (--pool_remaining == 0)
            pthread_cond_signal(&pool_done);
    }
    return 0;
}

static void pool_child_reset(void) {
    pool_workers = 0;
    pool_gen = 0;
    pool_remaining = 0;
    pthread_mutex_init(&pool_mu, 0);
    pthread_mutex_init(&pool_dispatch_mu, 0);
    pthread_cond_init(&pool_go, 0);
    pthread_cond_init(&pool_done, 0);
}

void repro_set_threads(int64_t n) {
    if (!pool_atfork_set) {
        pool_atfork_set = 1;
        pthread_atfork(0, 0, pool_child_reset);
    }
    if (n < 1) n = 1;
    if (n > POOL_MAX + 1) n = POOL_MAX + 1;
    pool_target = (int)n;
}

int64_t repro_get_threads(void) { return (int64_t)pool_target; }

static void pool_run(pool_task_fn fn, void* arg, int64_t want) {
    if (want > pool_target) want = pool_target;
    if (want <= 1) { fn(arg, 0, 1); return; }
    pthread_mutex_lock(&pool_dispatch_mu);
    pthread_mutex_lock(&pool_mu);
    int need = (int)want - 1;
    if (need > POOL_MAX) need = POOL_MAX;
    while (pool_workers < need) {
        pthread_t t;
        pthread_attr_t at;
        pthread_attr_init(&at);
        pthread_attr_setdetachstate(&at, PTHREAD_CREATE_DETACHED);
        int rc = pthread_create(&t, &at, pool_worker,
                                (void*)(size_t)pool_workers);
        pthread_attr_destroy(&at);
        if (rc != 0) break;
        pool_workers++;
    }
    int64_t parts = (int64_t)pool_workers + 1;
    if (parts > want) parts = want;
    if (parts <= 1) {
        pthread_mutex_unlock(&pool_mu);
        pthread_mutex_unlock(&pool_dispatch_mu);
        fn(arg, 0, 1);
        return;
    }
    pool_fn = fn;
    pool_arg = arg;
    pool_nparts = parts;
    pool_remaining = pool_workers;  /* every worker wakes and checks in */
    pool_gen++;
    pthread_cond_broadcast(&pool_go);
    pthread_mutex_unlock(&pool_mu);
    fn(arg, 0, parts);
    pthread_mutex_lock(&pool_mu);
    while (pool_remaining != 0)
        pthread_cond_wait(&pool_done, &pool_mu);
    pthread_mutex_unlock(&pool_mu);
    pthread_mutex_unlock(&pool_dispatch_mu);
}

/* Contiguous [lo, hi) share of `total` for this part; remainders go to
 * the low parts so shares differ by at most one. */
static void part_range(int64_t total, int64_t part, int64_t nparts,
                       int64_t* lo, int64_t* hi) {
    int64_t base = total / nparts, rem = total % nparts;
    *lo = part * base + (part < rem ? part : rem);
    *hi = *lo + base + (part < rem ? 1 : 0);
}

/* Reduced-table layouts: r0/r1 have 2^16 rows, r2 has 2^17 rows; each row
 * holds H contiguous uint16 pre-masked bucket values (one per sketch row).
 * Counter tables are C-contiguous (H, K) float64.  Polynomial coefficient
 * matrices are C-contiguous (H, degree) uint64, constant term first. */

/* The strip working set (a few MB, random access) misses L2 on most keys;
 * prefetching a handful of items ahead hides much of that latency. */
#if defined(__GNUC__) || defined(__clang__)
#define TAB_PREFETCH(p) __builtin_prefetch((p), 0, 1)
#else
#define TAB_PREFETCH(p)
#endif
#define TAB_PF_DIST 8

#define TAB_PF_AHEAD(H)                                                     \
    if (j + TAB_PF_DIST < n) {                                              \
        uint64_t pk = keys[j + TAB_PF_DIST];                                \
        size_t p0 = (size_t)(pk & 0xFFFFu);                                 \
        size_t p1 = (size_t)((pk >> 16) & 0xFFFFu);                         \
        TAB_PREFETCH(r0 + p0 * (size_t)(H));                                \
        TAB_PREFETCH(r1 + p1 * (size_t)(H));                                \
        TAB_PREFETCH(r2 + (p0 + p1) * (size_t)(H));                         \
    }

void tab_hash_u16(const uint64_t* keys, int64_t n, int64_t h_rows,
                  const uint16_t* r0, const uint16_t* r1, const uint16_t* r2,
                  int64_t* out) {
    for (int64_t j = 0; j < n; ++j) {
        TAB_PF_AHEAD(h_rows)
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows;
        for (int64_t i = 0; i < h_rows; ++i)
            out[i * n + j] = (int64_t)(uint16_t)(a[i] ^ b[i] ^ c[i]);
    }
}

/* Fused UPDATE runs in two phases over fixed-size blocks: phase one
 * resolves each key's H buckets (strip gathers, the memory-bound part,
 * with prefetch ahead), phase two scatters the block row by row so each
 * table row streams through cache once per block instead of being
 * interleaved with three strip gathers per key.  ~20% over the straight
 * per-key loop on the benchmark box.  Per table cell the accumulation is
 * still stream order -- blocks are processed in order and phase two
 * walks each row's block slice in key order -- so the result stays
 * bit-identical to per-row np.add.at.  The row loop fully unrolls when
 * H is a compile-time constant; dispatch the common depths to
 * specialized instantiations and everything else to the generic loop. */
#define TAB_UPDATE_BLOCK 256

#define TAB_UPDATE_BODY(H)                                                  \
    uint16_t bk[TAB_UPDATE_BLOCK * (H)];                                    \
    for (int64_t s = 0; s < n; s += TAB_UPDATE_BLOCK) {                     \
        int64_t e = s + TAB_UPDATE_BLOCK < n ? s + TAB_UPDATE_BLOCK : n;    \
        for (int64_t j = s; j < e; ++j) {                                   \
            TAB_PF_AHEAD(H)                                                 \
            uint64_t key = keys[j];                                         \
            size_t c0 = (size_t)(key & 0xFFFFu);                            \
            size_t c1 = (size_t)((key >> 16) & 0xFFFFu);                    \
            const uint16_t* a = r0 + c0 * (size_t)(H);                      \
            const uint16_t* b = r1 + c1 * (size_t)(H);                      \
            const uint16_t* c = r2 + (c0 + c1) * (size_t)(H);               \
            uint16_t* o = bk + (j - s) * (H);                               \
            for (int64_t i = 0; i < (H); ++i)                               \
                o[i] = (uint16_t)(a[i] ^ b[i] ^ c[i]);                      \
        }                                                                   \
        for (int64_t i = 0; i < (H); ++i) {                                 \
            double* trow = table + i * k_width;                             \
            for (int64_t j = s; j < e; ++j)                                 \
                trow[bk[(j - s) * (H) + i]] += values[j];                   \
        }                                                                   \
    }

#define TAB_UPDATE_SPEC(H)                                                  \
    static void tab_update_h##H(const uint64_t* keys, const double* values, \
                                int64_t n, int64_t k_width,                 \
                                const uint16_t* r0, const uint16_t* r1,     \
                                const uint16_t* r2, double* table) {        \
        TAB_UPDATE_BODY(H)                                                  \
    }

TAB_UPDATE_SPEC(1)
TAB_UPDATE_SPEC(3)
TAB_UPDATE_SPEC(5)
TAB_UPDATE_SPEC(7)

void tab_update_u16(const uint64_t* keys, const double* values, int64_t n,
                    int64_t h_rows, int64_t k_width,
                    const uint16_t* r0, const uint16_t* r1, const uint16_t* r2,
                    double* table) {
    switch (h_rows) {
    case 1: tab_update_h1(keys, values, n, k_width, r0, r1, r2, table); return;
    case 3: tab_update_h3(keys, values, n, k_width, r0, r1, r2, table); return;
    case 5: tab_update_h5(keys, values, n, k_width, r0, r1, r2, table); return;
    case 7: tab_update_h7(keys, values, n, k_width, r0, r1, r2, table); return;
    default: break;
    }
    TAB_UPDATE_BODY(h_rows)
}

/* Count-Sketch fused update: bucket tables give the cell, sign tables
 * (pre-masked to one bit) give the +/- orientation. */
void tab_update_signed_u16(const uint64_t* keys, const double* values,
                           int64_t n, int64_t h_rows, int64_t k_width,
                           const uint16_t* r0, const uint16_t* r1,
                           const uint16_t* r2, const uint16_t* s0,
                           const uint16_t* s1, const uint16_t* s2,
                           double* table) {
    for (int64_t j = 0; j < n; ++j) {
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        size_t c2 = c0 + c1;
        double v = values[j];
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + c2 * (size_t)h_rows;
        const uint16_t* sa = s0 + c0 * (size_t)h_rows;
        const uint16_t* sb = s1 + c1 * (size_t)h_rows;
        const uint16_t* sc = s2 + c2 * (size_t)h_rows;
        for (int64_t i = 0; i < h_rows; ++i) {
            uint16_t bucket = (uint16_t)(a[i] ^ b[i] ^ c[i]);
            uint16_t bit = (uint16_t)(sa[i] ^ sb[i] ^ sc[i]);
            table[i * k_width + bucket] += bit ? v : -v;
        }
    }
}

void tab_gather_u16(const uint64_t* keys, int64_t n, int64_t h_rows,
                    int64_t k_width, const uint16_t* r0, const uint16_t* r1,
                    const uint16_t* r2, const double* table, double* out) {
    for (int64_t j = 0; j < n; ++j) {
        TAB_PF_AHEAD(h_rows)
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows;
        for (int64_t i = 0; i < h_rows; ++i) {
            uint16_t bucket = (uint16_t)(a[i] ^ b[i] ^ c[i]);
            out[i * n + j] = table[i * k_width + bucket];
        }
    }
}

/* np.median over axis 0 of an (H, n) array, one key at a time: sort the
 * H per-row values (insertion sort; H <= 64) and take the middle element
 * (odd H) or the mean of the two middle elements (even H).  np.partition
 * selects the same order statistics and np.mean of two doubles is
 * (lo + hi) / 2, so the result is bit-identical for finite inputs. */
static double row_median(double* m, int64_t h) {
    for (int64_t i = 1; i < h; ++i) {
        double v = m[i];
        int64_t p = i;
        while (p > 0 && m[p - 1] > v) { m[p] = m[p - 1]; --p; }
        m[p] = v;
    }
    return (h & 1) ? m[h / 2] : (m[h / 2 - 1] + m[h / 2]) / 2.0;
}

#define EST_MAX_H 64

/* Fused k-ary ESTIMATE: hash, gather, (cell - mean_share) / denom, and
 * the median across rows in one pass per key.  mean_share and denom are
 * computed by the caller exactly as the NumPy path does, so the
 * per-element transform is the same IEEE operation sequence. */
void tab_estimate_u16(const uint64_t* keys, int64_t n, int64_t h_rows,
                      int64_t k_width, const uint16_t* r0, const uint16_t* r1,
                      const uint16_t* r2, const double* table,
                      double mean_share, double denom, double* out) {
    double buf[EST_MAX_H];
    for (int64_t j = 0; j < n; ++j) {
        TAB_PF_AHEAD(h_rows)
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows;
        for (int64_t i = 0; i < h_rows; ++i) {
            uint16_t bucket = (uint16_t)(a[i] ^ b[i] ^ c[i]);
            buf[i] = (table[i * k_width + bucket] - mean_share) / denom;
        }
        out[j] = row_median(buf, h_rows);
    }
}

/* --- Carter-Wegman polynomial hashing over P61 = 2^61 - 1 -------------
 * Replicates repro.hashing.carter_wegman._mulmod_p61's 32-bit-split fold
 * exactly: every operation is uint64 arithmetic mod 2^64 (C unsigned
 * semantics == NumPy uint64 semantics), so results are bit-identical to
 * the vectorized NumPy path. */

#define P61 2305843009213693951ULL
#define MASK29 ((1ULL << 29) - 1)
#define MASK32 0xFFFFFFFFULL

static inline uint64_t mulmod_p61(uint64_t a, uint64_t b) {
    uint64_t a_hi = a >> 32, a_lo = a & MASK32;
    uint64_t b_hi = b >> 32, b_lo = b & MASK32;
    uint64_t hh = a_hi * b_hi;                 /* < 2^58 */
    uint64_t mid = a_hi * b_lo + a_lo * b_hi;  /* < 2^62 */
    uint64_t ll = a_lo * b_lo;
    uint64_t acc = hh << 3;                    /* hh * 2^64 === hh * 8 */
    acc += mid >> 29;                          /* m_hi * 2^61 === m_hi */
    acc += (mid & MASK29) << 32;
    acc += (ll >> 61) + (ll & P61);
    acc = (acc >> 61) + (acc & P61);
    if (acc >= P61) acc -= P61;
    return acc;
}

static inline uint64_t key_to_field(uint64_t key) {
    uint64_t x = (key >> 61) + (key & P61);
    if (x >= P61) x -= P61;
    return x;
}

/* Horner: (((c[d-1] x + c[d-2]) x + ...) x + c[0]), coefficients < P61. */
static inline uint64_t poly_eval(const uint64_t* c, int64_t degree,
                                 uint64_t x) {
    uint64_t acc = c[degree - 1];
    for (int64_t j = degree - 2; j >= 0; --j) {
        acc = mulmod_p61(acc, x);
        acc += c[j];                           /* < 2^62, no overflow */
        if (acc >= P61) acc -= P61;
    }
    return acc;
}

void poly_hash(const uint64_t* keys, int64_t n, int64_t h_rows,
               int64_t degree, const uint64_t* coeffs, int64_t num_buckets,
               int64_t* out) {
    uint64_t k = (uint64_t)num_buckets;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        for (int64_t i = 0; i < h_rows; ++i)
            out[i * n + j] =
                (int64_t)(poly_eval(coeffs + i * degree, degree, x) % k);
    }
}

void poly_update(const uint64_t* keys, const double* values, int64_t n,
                 int64_t h_rows, int64_t degree, const uint64_t* coeffs,
                 int64_t k_width, double* table) {
    uint64_t k = (uint64_t)k_width;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        double v = values[j];
        for (int64_t i = 0; i < h_rows; ++i) {
            uint64_t bucket = poly_eval(coeffs + i * degree, degree, x) % k;
            table[i * k_width + (int64_t)bucket] += v;
        }
    }
}

void poly_update_signed(const uint64_t* keys, const double* values,
                        int64_t n, int64_t h_rows, int64_t degree,
                        const uint64_t* bcoeffs, int64_t k_width,
                        const uint64_t* scoeffs, double* table) {
    uint64_t k = (uint64_t)k_width;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        double v = values[j];
        for (int64_t i = 0; i < h_rows; ++i) {
            uint64_t bucket = poly_eval(bcoeffs + i * degree, degree, x) % k;
            uint64_t bit = poly_eval(scoeffs + i * degree, degree, x) & 1u;
            table[i * k_width + (int64_t)bucket] += bit ? v : -v;
        }
    }
}

void poly_gather(const uint64_t* keys, int64_t n, int64_t h_rows,
                 int64_t degree, const uint64_t* coeffs, int64_t k_width,
                 const double* table, double* out) {
    uint64_t k = (uint64_t)k_width;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        for (int64_t i = 0; i < h_rows; ++i) {
            uint64_t bucket = poly_eval(coeffs + i * degree, degree, x) % k;
            out[i * n + j] = table[i * k_width + (int64_t)bucket];
        }
    }
}

void poly_estimate(const uint64_t* keys, int64_t n, int64_t h_rows,
                   int64_t degree, const uint64_t* coeffs, int64_t k_width,
                   const double* table, double mean_share, double denom,
                   double* out) {
    uint64_t k = (uint64_t)k_width;
    double buf[EST_MAX_H];
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        for (int64_t i = 0; i < h_rows; ++i) {
            uint64_t bucket = poly_eval(coeffs + i * degree, degree, x) % k;
            buf[i] = (table[i * k_width + (int64_t)bucket] - mean_share)
                     / denom;
        }
        out[j] = row_median(buf, h_rows);
    }
}

/* Precomputed-index gather: reads the (H, n) cells when the bucket
 * indices already exist (the detection report hashes its candidate keys
 * once), skipping the hash entirely. */
void idx_gather(const int64_t* idx, int64_t n, int64_t h_rows,
                int64_t k_width, const double* table, double* out) {
    for (int64_t i = 0; i < h_rows; ++i) {
        const int64_t* row = idx + i * n;
        const double* trow = table + i * k_width;
        double* orow = out + i * n;
        for (int64_t j = 0; j < n; ++j)
            orow[j] = trow[row[j]];
    }
}

/* --- Invertible-sketch majority-vote candidate maintenance -------------
 * Each (row, bucket) of an invertible k-ary sketch carries a candidate
 * (key, vote) pair updated with the MV rule:
 *     candidate == key  ->  vote += w
 *     vote >= w         ->  vote -= w
 *     otherwise         ->  candidate = key, vote = w - vote
 * Callers aggregate the batch per unique key first (np.unique + bincount)
 * and pass the keys in ascending order, so every (row, bucket) cell sees
 * the same operation sequence here, in the item-major tabulation variant,
 * and in the vectorized NumPy fallback -- votes are bit-identical across
 * all three.  Candidate keys live in the uint64 bit-cast view of a
 * float64 plane; votes in a plain float64 plane. */
void tab_update_mv(const uint64_t* keys, const double* weights, int64_t n,
                   int64_t h_rows, int64_t k_width,
                   const uint16_t* r0, const uint16_t* r1, const uint16_t* r2,
                   uint64_t* cand, double* votes) {
    for (int64_t j = 0; j < n; ++j) {
        TAB_PF_AHEAD(h_rows)
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows;
        double w = weights[j];
        for (int64_t i = 0; i < h_rows; ++i) {
            int64_t cell = i * k_width + (uint16_t)(a[i] ^ b[i] ^ c[i]);
            if (cand[cell] == key) votes[cell] += w;
            else if (votes[cell] >= w) votes[cell] -= w;
            else { cand[cell] = key; votes[cell] = w - votes[cell]; }
        }
    }
}

void idx_update_mv(const int64_t* idx, const uint64_t* keys,
                   const double* weights, int64_t n, int64_t h_rows,
                   int64_t k_width, uint64_t* cand, double* votes) {
    for (int64_t i = 0; i < h_rows; ++i) {
        const int64_t* row = idx + i * n;
        uint64_t* crow = cand + i * k_width;
        double* vrow = votes + i * k_width;
        for (int64_t j = 0; j < n; ++j) {
            int64_t b = row[j];
            double w = weights[j];
            uint64_t key = keys[j];
            if (crow[b] == key) vrow[b] += w;
            else if (vrow[b] >= w) vrow[b] -= w;
            else { crow[b] = key; vrow[b] = w - vrow[b]; }
        }
    }
}

/* COMBINE-side candidate merge: fold one term's candidate planes into the
 * accumulator's with the MV rule, the term's votes pre-scaled by |coeff|.
 * Cells are independent, so one fused streaming pass replaces the NumPy
 * fold's chain of full-plane temporaries (COMBINEs of three or more
 * terms, and the right half of a width fold).  The per-cell arithmetic
 * matches the vectorized fallback operation for operation, so planes
 * stay bit-identical either way; combine_sweep's candidate fold repeats
 * it cell for cell. */
void mv_merge(uint64_t* cand_a, double* votes_a,
              const uint64_t* cand_b, const double* votes_b,
              double coeff, int64_t n) {
    for (int64_t j = 0; j < n; ++j) {
        double tv = votes_b[j] * coeff;
        if (cand_a[j] == cand_b[j]) votes_a[j] += tv;
        else if (votes_a[j] >= tv) votes_a[j] -= tv;
        else { cand_a[j] = cand_b[j]; votes_a[j] = tv - votes_a[j]; }
    }
}

/* Two-term COMBINE of candidate planes in one pass.  The generic fold
 * does it as copy+scale then mv_merge -- two full-plane passes; this
 * fuses them: per cell, scale both votes by their |coeff| and resolve
 * the MV rule directly into the output.  The arithmetic is
 * operation-for-operation the two-pass sequence's (same products, same
 * compare, same add/subtract), so planes stay bit-identical.  The
 * forecast step folds its candidate planes inside combine_sweep; this
 * serves the two-term COMBINEs outside it: the allocating step(), the
 * arithmetic operators, invertible archive diffs and the coordinator's
 * merges.  The output planes must not alias either input. */
void mv_combine2(const uint64_t* ck_a, const double* cv_a, double coeff_a,
                 const uint64_t* ck_b, const double* cv_b, double coeff_b,
                 uint64_t* out_k, double* out_v, int64_t n) {
    for (int64_t j = 0; j < n; ++j) {
        double av = cv_a[j] * coeff_a;
        double bv = cv_b[j] * coeff_b;
        if (ck_a[j] == ck_b[j]) { out_k[j] = ck_a[j]; out_v[j] = av + bv; }
        else if (av >= bv)      { out_k[j] = ck_a[j]; out_v[j] = av - bv; }
        else                    { out_k[j] = ck_b[j]; out_v[j] = bv - av; }
    }
}

/* Recovery walk: mark buckets whose single-row unbiased estimate
 * magnitude clears the threshold (strictly exceeds zero when the
 * threshold is zero, matching the detection layer's alarm rule) and
 * that hold a live vote.  One fused pass over counters and votes
 * replaces the NumPy walk's full-plane temporaries (estimate, abs,
 * two masks); the arithmetic is operation-for-operation the fallback's,
 * so the mask is identical either way. */
void mv_recover_mask(const double* table, const double* votes,
                     double mean_share, double denom, double threshold,
                     int64_t n, uint8_t* mask) {
    for (int64_t j = 0; j < n; ++j) {
        double est = (table[j] - mean_share) / denom;
        double mag = est < 0.0 ? -est : est;
        int pass = threshold > 0.0 ? (mag >= threshold) : (mag > 0.0);
        mask[j] = (uint8_t)(pass && votes[j] > 0.0);
    }
}

/* --- COMBINE statement sweep --------------------------------------------
 * Evaluates a list of COMBINE statements  dst = c1*src1 + c2*src2 + ...
 * over equally shaped float64 tables in ONE pass, block by block: every
 * statement runs over a block of cells before the next block starts, so
 * a forecast model's whole per-interval step (Se and the new state over
 * the old) reads and writes each table once instead of once per
 * statement.  Slots below n_tables are tables; the rest are block-local
 * temporaries.  Statement s writes slot dst[s] from the n_terms[s] next
 * (src, coeff) pairs.
 *
 * Each term replays accumulate_arrays (repro/sketch/base.py) operation
 * for operation: the first term is copied (c == 1), negated (c == -1) or
 * multiplied; later terms are added, subtracted, or multiplied and then
 * added, left to right.  A statement accumulates into a block buffer and
 * stores it last, so its destination may also be one of its sources
 * (the old value is read).  The object is built with -ffp-contract=off:
 * a fused multiply-add skips the product's rounding, which would move
 * results by ulps away from NumPy's separate multiply and add.
 *
 * Invertible sketches' tables also carry MV candidate planes: keys[slot]
 * and votes[slot] (NULL for tables without them).  Each statement then
 * folds its terms' candidate planes over the same block, by the rule
 * mv_fold_planes (repro/hashing/stacked.py) applies: the first term's
 * key and votes*|c|, then each later term merged as mv_merge does, left
 * to right, into block buffers stored last; temporaries get block-local
 * key and vote buffers.  The counter loop above it is the plain-table
 * loop, unchanged. */
#define SWEEP_BLOCK 512
#define SWEEP_MAX_TEMPS 8

void combine_sweep(double* const* tables, int64_t n_tables, int64_t n_temps,
                   int64_t n_cells, int64_t n_stmts, const int64_t* dst,
                   const int64_t* n_terms, const int64_t* src,
                   const double* coeff, uint64_t* const* keys,
                   double* const* votes) {
    double temps[SWEEP_MAX_TEMPS][SWEEP_BLOCK];
    double acc[SWEEP_BLOCK];
    uint64_t key_temps[SWEEP_MAX_TEMPS][SWEEP_BLOCK];
    double vote_temps[SWEEP_MAX_TEMPS][SWEEP_BLOCK];
    uint64_t acc_keys[SWEEP_BLOCK];
    double acc_votes[SWEEP_BLOCK];
    if (n_temps > SWEEP_MAX_TEMPS) return;
    for (int64_t base = 0; base < n_cells; base += SWEEP_BLOCK) {
        int64_t len = n_cells - base;
        if (len > SWEEP_BLOCK) len = SWEEP_BLOCK;
        int64_t t = 0;
        for (int64_t s = 0; s < n_stmts; ++s) {
            int64_t first = t;
            for (int64_t j = 0; j < n_terms[s]; ++j, ++t) {
                const double* x = src[t] < n_tables
                    ? tables[src[t]] + base : temps[src[t] - n_tables];
                double c = coeff[t];
                if (j == 0) {
                    if (c == 1.0)
                        for (int64_t i = 0; i < len; ++i) acc[i] = x[i];
                    else if (c == -1.0)
                        for (int64_t i = 0; i < len; ++i) acc[i] = -x[i];
                    else
                        for (int64_t i = 0; i < len; ++i) acc[i] = x[i] * c;
                } else {
                    if (c == 1.0)
                        for (int64_t i = 0; i < len; ++i) acc[i] += x[i];
                    else if (c == -1.0)
                        for (int64_t i = 0; i < len; ++i) acc[i] -= x[i];
                    else
                        for (int64_t i = 0; i < len; ++i)
                            acc[i] += x[i] * c;
                }
            }
            double* out = dst[s] < n_tables
                ? tables[dst[s]] + base : temps[dst[s] - n_tables];
            for (int64_t i = 0; i < len; ++i) out[i] = acc[i];
            if (keys == NULL) continue;
            for (int64_t j = 0, u = first; j < n_terms[s]; ++j, ++u) {
                const uint64_t* xk = src[u] < n_tables
                    ? keys[src[u]] + base : key_temps[src[u] - n_tables];
                const double* xv = src[u] < n_tables
                    ? votes[src[u]] + base : vote_temps[src[u] - n_tables];
                double c = fabs(coeff[u]);
                if (j == 0) {
                    for (int64_t i = 0; i < len; ++i) {
                        acc_keys[i] = xk[i];
                        acc_votes[i] = xv[i] * c;
                    }
                    continue;
                }
                for (int64_t i = 0; i < len; ++i) {
                    double tv = xv[i] * c;
                    if (acc_keys[i] == xk[i]) acc_votes[i] += tv;
                    else if (acc_votes[i] >= tv) acc_votes[i] -= tv;
                    else {
                        acc_keys[i] = xk[i];
                        acc_votes[i] = tv - acc_votes[i];
                    }
                }
            }
            uint64_t* out_k = dst[s] < n_tables
                ? keys[dst[s]] + base : key_temps[dst[s] - n_tables];
            double* out_v = dst[s] < n_tables
                ? votes[dst[s]] + base : vote_temps[dst[s] - n_tables];
            for (int64_t i = 0; i < len; ++i) {
                out_k[i] = acc_keys[i];
                out_v[i] = acc_votes[i];
            }
        }
    }
}

/* --- Thread-parallel variants ------------------------------------------
 * UPDATE-family kernels shard by sketch ROW: each thread owns a
 * contiguous band of the H rows and scans the whole key batch, so no two
 * threads ever touch the same table cell -- no atomics, no locks, and
 * every cell still accumulates in key stream order, which is exactly the
 * per-row np.add.at reference order.  Bit-identity with the serial
 * kernels and the NumPy fallback therefore holds by construction, at any
 * thread count.  ESTIMATE-family kernels shard by KEY instead (out[j]
 * depends only on key j), which keeps parallelism available when H is
 * small; each out[j] is written by exactly one thread with the same
 * arithmetic as the serial kernel. */

static void tab_update_rows(const uint64_t* keys, const double* values,
                            int64_t n, int64_t h_rows, int64_t k_width,
                            const uint16_t* r0, const uint16_t* r1,
                            const uint16_t* r2, double* table,
                            int64_t lo, int64_t hi) {
    uint16_t bk[TAB_UPDATE_BLOCK * EST_MAX_H];
    for (int64_t rl = lo; rl < hi; rl += EST_MAX_H) {
        int64_t rh = rl + EST_MAX_H < hi ? rl + EST_MAX_H : hi;
        int64_t span = rh - rl;
        for (int64_t s = 0; s < n; s += TAB_UPDATE_BLOCK) {
            int64_t e = s + TAB_UPDATE_BLOCK < n ? s + TAB_UPDATE_BLOCK : n;
            for (int64_t j = s; j < e; ++j) {
                TAB_PF_AHEAD(h_rows)
                uint64_t key = keys[j];
                size_t c0 = (size_t)(key & 0xFFFFu);
                size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
                const uint16_t* a = r0 + c0 * (size_t)h_rows + rl;
                const uint16_t* b = r1 + c1 * (size_t)h_rows + rl;
                const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows + rl;
                uint16_t* o = bk + (j - s) * span;
                for (int64_t i = 0; i < span; ++i)
                    o[i] = (uint16_t)(a[i] ^ b[i] ^ c[i]);
            }
            for (int64_t i = 0; i < span; ++i) {
                double* trow = table + (rl + i) * k_width;
                for (int64_t j = s; j < e; ++j)
                    trow[bk[(j - s) * span + i]] += values[j];
            }
        }
    }
}

static void tab_update_signed_rows(const uint64_t* keys, const double* values,
                                   int64_t n, int64_t h_rows, int64_t k_width,
                                   const uint16_t* r0, const uint16_t* r1,
                                   const uint16_t* r2, const uint16_t* s0,
                                   const uint16_t* s1, const uint16_t* s2,
                                   double* table, int64_t lo, int64_t hi) {
    for (int64_t j = 0; j < n; ++j) {
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        size_t c2 = c0 + c1;
        double v = values[j];
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + c2 * (size_t)h_rows;
        const uint16_t* sa = s0 + c0 * (size_t)h_rows;
        const uint16_t* sb = s1 + c1 * (size_t)h_rows;
        const uint16_t* sc = s2 + c2 * (size_t)h_rows;
        for (int64_t i = lo; i < hi; ++i) {
            uint16_t bucket = (uint16_t)(a[i] ^ b[i] ^ c[i]);
            uint16_t bit = (uint16_t)(sa[i] ^ sb[i] ^ sc[i]);
            table[i * k_width + bucket] += bit ? v : -v;
        }
    }
}

static void poly_update_rows(const uint64_t* keys, const double* values,
                             int64_t n, int64_t h_rows, int64_t degree,
                             const uint64_t* coeffs, int64_t k_width,
                             double* table, int64_t lo, int64_t hi) {
    uint64_t k = (uint64_t)k_width;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        double v = values[j];
        for (int64_t i = lo; i < hi; ++i) {
            uint64_t bucket = poly_eval(coeffs + i * degree, degree, x) % k;
            table[i * k_width + (int64_t)bucket] += v;
        }
    }
}

static void poly_update_signed_rows(const uint64_t* keys,
                                    const double* values, int64_t n,
                                    int64_t h_rows, int64_t degree,
                                    const uint64_t* bcoeffs, int64_t k_width,
                                    const uint64_t* scoeffs, double* table,
                                    int64_t lo, int64_t hi) {
    uint64_t k = (uint64_t)k_width;
    for (int64_t j = 0; j < n; ++j) {
        uint64_t x = key_to_field(keys[j]);
        double v = values[j];
        for (int64_t i = lo; i < hi; ++i) {
            uint64_t bucket = poly_eval(bcoeffs + i * degree, degree, x) % k;
            uint64_t bit = poly_eval(scoeffs + i * degree, degree, x) & 1u;
            table[i * k_width + (int64_t)bucket] += bit ? v : -v;
        }
    }
}

static void tab_update_mv_rows(const uint64_t* keys, const double* weights,
                               int64_t n, int64_t h_rows, int64_t k_width,
                               const uint16_t* r0, const uint16_t* r1,
                               const uint16_t* r2, uint64_t* cand,
                               double* votes, int64_t lo, int64_t hi) {
    for (int64_t j = 0; j < n; ++j) {
        uint64_t key = keys[j];
        size_t c0 = (size_t)(key & 0xFFFFu);
        size_t c1 = (size_t)((key >> 16) & 0xFFFFu);
        const uint16_t* a = r0 + c0 * (size_t)h_rows;
        const uint16_t* b = r1 + c1 * (size_t)h_rows;
        const uint16_t* c = r2 + (c0 + c1) * (size_t)h_rows;
        double w = weights[j];
        for (int64_t i = lo; i < hi; ++i) {
            int64_t cell = i * k_width + (uint16_t)(a[i] ^ b[i] ^ c[i]);
            if (cand[cell] == key) votes[cell] += w;
            else if (votes[cell] >= w) votes[cell] -= w;
            else { cand[cell] = key; votes[cell] = w - votes[cell]; }
        }
    }
}

typedef struct {
    const uint64_t* keys;
    const double* values;
    const int64_t* idx;
    int64_t n, h, k, degree;
    const uint16_t *r0, *r1, *r2, *s0, *s1, *s2;
    const uint64_t *bcoeffs, *scoeffs;
    const double* rtable;
    double* table;
    uint64_t* cand;
    double* votes;
    double mean_share, denom;
    double* out;
} mt_ctx;

static void mt_tab_update(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        tab_update_rows(c->keys, c->values, c->n, c->h, c->k,
                        c->r0, c->r1, c->r2, c->table, lo, hi);
}

static void mt_tab_update_signed(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        tab_update_signed_rows(c->keys, c->values, c->n, c->h, c->k,
                               c->r0, c->r1, c->r2, c->s0, c->s1, c->s2,
                               c->table, lo, hi);
}

static void mt_poly_update(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        poly_update_rows(c->keys, c->values, c->n, c->h, c->degree,
                         c->bcoeffs, c->k, c->table, lo, hi);
}

static void mt_poly_update_signed(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        poly_update_signed_rows(c->keys, c->values, c->n, c->h, c->degree,
                                c->bcoeffs, c->k, c->scoeffs, c->table,
                                lo, hi);
}

static void mt_tab_update_mv(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        tab_update_mv_rows(c->keys, c->values, c->n, c->h, c->k,
                           c->r0, c->r1, c->r2, c->cand, c->votes, lo, hi);
}

static void mt_idx_update_mv(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->h, part, nparts, &lo, &hi);
    if (lo < hi)
        idx_update_mv(c->idx + lo * c->n, c->keys, c->values, c->n,
                      hi - lo, c->k, c->cand + lo * c->k,
                      c->votes + lo * c->k);
}

static void mt_tab_estimate(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->n, part, nparts, &lo, &hi);
    if (lo < hi)
        tab_estimate_u16(c->keys + lo, hi - lo, c->h, c->k,
                         c->r0, c->r1, c->r2, c->rtable,
                         c->mean_share, c->denom, c->out + lo);
}

static void mt_poly_estimate(void* argp, int64_t part, int64_t nparts) {
    mt_ctx* c = (mt_ctx*)argp;
    int64_t lo, hi;
    part_range(c->n, part, nparts, &lo, &hi);
    if (lo < hi)
        poly_estimate(c->keys + lo, hi - lo, c->h, c->degree, c->bcoeffs,
                      c->k, c->rtable, c->mean_share, c->denom, c->out + lo);
}

void tab_update_u16_mt(const uint64_t* keys, const double* values, int64_t n,
                       int64_t h_rows, int64_t k_width,
                       const uint16_t* r0, const uint16_t* r1,
                       const uint16_t* r2, double* table) {
    mt_ctx c = {0};
    c.keys = keys; c.values = values; c.n = n; c.h = h_rows; c.k = k_width;
    c.r0 = r0; c.r1 = r1; c.r2 = r2; c.table = table;
    pool_run(mt_tab_update, &c, h_rows);
}

void tab_update_signed_u16_mt(const uint64_t* keys, const double* values,
                              int64_t n, int64_t h_rows, int64_t k_width,
                              const uint16_t* r0, const uint16_t* r1,
                              const uint16_t* r2, const uint16_t* s0,
                              const uint16_t* s1, const uint16_t* s2,
                              double* table) {
    mt_ctx c = {0};
    c.keys = keys; c.values = values; c.n = n; c.h = h_rows; c.k = k_width;
    c.r0 = r0; c.r1 = r1; c.r2 = r2; c.s0 = s0; c.s1 = s1; c.s2 = s2;
    c.table = table;
    pool_run(mt_tab_update_signed, &c, h_rows);
}

void poly_update_mt(const uint64_t* keys, const double* values, int64_t n,
                    int64_t h_rows, int64_t degree, const uint64_t* coeffs,
                    int64_t k_width, double* table) {
    mt_ctx c = {0};
    c.keys = keys; c.values = values; c.n = n; c.h = h_rows;
    c.degree = degree; c.bcoeffs = coeffs; c.k = k_width; c.table = table;
    pool_run(mt_poly_update, &c, h_rows);
}

void poly_update_signed_mt(const uint64_t* keys, const double* values,
                           int64_t n, int64_t h_rows, int64_t degree,
                           const uint64_t* bcoeffs, int64_t k_width,
                           const uint64_t* scoeffs, double* table) {
    mt_ctx c = {0};
    c.keys = keys; c.values = values; c.n = n; c.h = h_rows;
    c.degree = degree; c.bcoeffs = bcoeffs; c.k = k_width;
    c.scoeffs = scoeffs; c.table = table;
    pool_run(mt_poly_update_signed, &c, h_rows);
}

void tab_update_mv_mt(const uint64_t* keys, const double* weights, int64_t n,
                      int64_t h_rows, int64_t k_width,
                      const uint16_t* r0, const uint16_t* r1,
                      const uint16_t* r2, uint64_t* cand, double* votes) {
    mt_ctx c = {0};
    c.keys = keys; c.values = weights; c.n = n; c.h = h_rows; c.k = k_width;
    c.r0 = r0; c.r1 = r1; c.r2 = r2; c.cand = cand; c.votes = votes;
    pool_run(mt_tab_update_mv, &c, h_rows);
}

void idx_update_mv_mt(const int64_t* idx, const uint64_t* keys,
                      const double* weights, int64_t n, int64_t h_rows,
                      int64_t k_width, uint64_t* cand, double* votes) {
    mt_ctx c = {0};
    c.idx = idx; c.keys = keys; c.values = weights; c.n = n; c.h = h_rows;
    c.k = k_width; c.cand = cand; c.votes = votes;
    pool_run(mt_idx_update_mv, &c, h_rows);
}

void tab_estimate_u16_mt(const uint64_t* keys, int64_t n, int64_t h_rows,
                         int64_t k_width, const uint16_t* r0,
                         const uint16_t* r1, const uint16_t* r2,
                         const double* table, double mean_share,
                         double denom, double* out) {
    mt_ctx c = {0};
    c.keys = keys; c.n = n; c.h = h_rows; c.k = k_width;
    c.r0 = r0; c.r1 = r1; c.r2 = r2; c.rtable = table;
    c.mean_share = mean_share; c.denom = denom; c.out = out;
    pool_run(mt_tab_estimate, &c, n);
}

void poly_estimate_mt(const uint64_t* keys, int64_t n, int64_t h_rows,
                      int64_t degree, const uint64_t* coeffs, int64_t k_width,
                      const double* table, double mean_share, double denom,
                      double* out) {
    mt_ctx c = {0};
    c.keys = keys; c.n = n; c.h = h_rows; c.degree = degree;
    c.bcoeffs = coeffs; c.k = k_width; c.rtable = table;
    c.mean_share = mean_share; c.denom = denom; c.out = out;
    pool_run(mt_poly_estimate, &c, n);
}

"""

_COMPILERS = ("cc", "gcc", "clang")


def _ptr(arr: np.ndarray) -> int:
    # A plain address: data_as(c_void_p) leaves a reference cycle per call.
    # It does not keep ``arr`` alive, so callers pass arrays bound to names.
    return arr.ctypes.data


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return default


class SketchKernels:
    """ctypes facade over the compiled shared object.

    Every method increments its entry in :attr:`calls` (the per-process
    invocation tally the observability layer exports as
    ``repro_kernel_calls_total{kernel=...}``) and accumulates its wall
    time in :attr:`seconds` (exported as ``repro_kernel_seconds``).

    UPDATE/ESTIMATE-family methods dispatch to the thread-parallel
    (``*_mt``) entry points when :attr:`threads` > 1 and the batch is at
    least :attr:`min_parallel_keys` keys; the parallel calls are tallied
    under their own ``*_mt`` names so serial and pooled work stay
    distinguishable in the metrics.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self.calls: Dict[str, int] = {name: 0 for name in KERNEL_NAMES}
        self.seconds: Dict[str, float] = {name: 0.0 for name in KERNEL_NAMES}
        self.threads = 1
        self.min_parallel_keys = _env_int(
            "REPRO_MIN_PARALLEL_KEYS", DEFAULT_MIN_PARALLEL_KEYS
        )
        p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        signatures = {
            "tab_hash_u16": [p, i64, i64, p, p, p, p],
            "tab_update_u16": [p, p, i64, i64, i64, p, p, p, p],
            "tab_update_signed_u16": [p, p, i64, i64, i64, p, p, p, p, p, p, p],
            "tab_gather_u16": [p, i64, i64, i64, p, p, p, p, p],
            "tab_estimate_u16": [p, i64, i64, i64, p, p, p, p, f64, f64, p],
            "poly_hash": [p, i64, i64, i64, p, i64, p],
            "poly_update": [p, p, i64, i64, i64, p, i64, p],
            "poly_update_signed": [p, p, i64, i64, i64, p, i64, p, p],
            "poly_gather": [p, i64, i64, i64, p, i64, p, p],
            "poly_estimate": [p, i64, i64, i64, p, i64, p, f64, f64, p],
            "idx_gather": [p, i64, i64, i64, p, p],
            "tab_update_mv": [p, p, i64, i64, i64, p, p, p, p, p],
            "idx_update_mv": [p, p, p, i64, i64, i64, p, p],
            "mv_merge": [p, p, p, p, f64, i64],
            "mv_combine2": [p, p, f64, p, p, f64, p, p, i64],
            "mv_recover_mask": [p, p, f64, f64, f64, i64, p],
            "combine_sweep": [p, i64, i64, i64, i64, p, p, p, p, p, p],
            "tab_update_u16_mt": [p, p, i64, i64, i64, p, p, p, p],
            "tab_update_signed_u16_mt": [p, p, i64, i64, i64,
                                         p, p, p, p, p, p, p],
            "poly_update_mt": [p, p, i64, i64, i64, p, i64, p],
            "poly_update_signed_mt": [p, p, i64, i64, i64, p, i64, p, p],
            "tab_update_mv_mt": [p, p, i64, i64, i64, p, p, p, p, p],
            "idx_update_mv_mt": [p, p, p, i64, i64, i64, p, p],
            "tab_estimate_u16_mt": [p, i64, i64, i64, p, p, p, p,
                                    f64, f64, p],
            "poly_estimate_mt": [p, i64, i64, i64, p, i64, p, f64, f64, p],
            "repro_set_threads": [i64],
        }
        for name, argtypes in signatures.items():
            fn = getattr(lib, name)
            fn.restype = None
            fn.argtypes = argtypes
        lib.repro_get_threads.restype = ctypes.c_int64
        lib.repro_get_threads.argtypes = []

    def set_threads(self, n: int) -> None:
        """Configure the pthread pool inside the compiled object.

        ``n`` counts total threads including the dispatching one; it is
        clamped to ``[1, POOL_MAX + 1]`` by the C side.  Workers spawn
        lazily on the first parallel dispatch, so setting a count never
        costs anything by itself.
        """
        self._lib.repro_set_threads(max(1, int(n)))
        self.threads = int(self._lib.repro_get_threads())

    def _mt(self, n_keys: int) -> bool:
        return self.threads > 1 and n_keys >= self.min_parallel_keys

    def _tick(self, name: str) -> float:
        self.calls[name] += 1
        return time.perf_counter()

    def _tock(self, name: str, t0: float) -> None:
        self.seconds[name] += time.perf_counter() - t0

    # -- tabulation (pre-reduced uint16 strips) ------------------------------

    def hash_all(self, keys, r0, r1, r2, depth: int) -> np.ndarray:
        t0 = self._tick("tab_hash")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.empty((depth, len(keys)), dtype=np.int64)
        self._lib.tab_hash_u16(
            _ptr(keys), len(keys), depth, _ptr(r0), _ptr(r1), _ptr(r2), _ptr(out)
        )
        self._tock("tab_hash", t0)
        return out

    def update(self, table, keys, values, r0, r1, r2) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        depth, width = table.shape
        if self._mt(len(keys)):
            name, fn = "tab_update_mt", self._lib.tab_update_u16_mt
        else:
            name, fn = "tab_update", self._lib.tab_update_u16
        t0 = self._tick(name)
        fn(
            _ptr(keys), _ptr(values), len(keys), depth, width,
            _ptr(r0), _ptr(r1), _ptr(r2), _ptr(table),
        )
        self._tock(name, t0)

    def update_signed(self, table, keys, values, r0, r1, r2, s0, s1, s2) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        depth, width = table.shape
        if self._mt(len(keys)):
            name, fn = "tab_update_signed_mt", self._lib.tab_update_signed_u16_mt
        else:
            name, fn = "tab_update_signed", self._lib.tab_update_signed_u16
        t0 = self._tick(name)
        fn(
            _ptr(keys), _ptr(values), len(keys), depth, width,
            _ptr(r0), _ptr(r1), _ptr(r2), _ptr(s0), _ptr(s1), _ptr(s2),
            _ptr(table),
        )
        self._tock(name, t0)

    def gather(self, table, keys, r0, r1, r2) -> np.ndarray:
        t0 = self._tick("tab_gather")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        depth, width = table.shape
        out = np.empty((depth, len(keys)), dtype=np.float64)
        self._lib.tab_gather_u16(
            _ptr(keys), len(keys), depth, width,
            _ptr(r0), _ptr(r1), _ptr(r2), _ptr(table), _ptr(out),
        )
        self._tock("tab_gather", t0)
        return out

    def estimate(self, table, keys, r0, r1, r2,
                 mean_share: float, denom: float) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        depth, width = table.shape
        out = np.empty(len(keys), dtype=np.float64)
        if self._mt(len(keys)):
            name, fn = "tab_estimate_mt", self._lib.tab_estimate_u16_mt
        else:
            name, fn = "tab_estimate", self._lib.tab_estimate_u16
        t0 = self._tick(name)
        fn(
            _ptr(keys), len(keys), depth, width,
            _ptr(r0), _ptr(r1), _ptr(r2), _ptr(table),
            mean_share, denom, _ptr(out),
        )
        self._tock(name, t0)
        return out

    # -- Carter-Wegman polynomial --------------------------------------------

    def poly_hash(self, keys, coeffs, num_buckets: int) -> np.ndarray:
        t0 = self._tick("poly_hash")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        depth, degree = coeffs.shape
        out = np.empty((depth, len(keys)), dtype=np.int64)
        self._lib.poly_hash(
            _ptr(keys), len(keys), depth, degree, _ptr(coeffs),
            num_buckets, _ptr(out),
        )
        self._tock("poly_hash", t0)
        return out

    def poly_update(self, table, keys, values, coeffs) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        depth, width = table.shape
        if self._mt(len(keys)):
            name, fn = "poly_update_mt", self._lib.poly_update_mt
        else:
            name, fn = "poly_update", self._lib.poly_update
        t0 = self._tick(name)
        fn(
            _ptr(keys), _ptr(values), len(keys), depth, coeffs.shape[1],
            _ptr(coeffs), width, _ptr(table),
        )
        self._tock(name, t0)

    def poly_update_signed(self, table, keys, values, bcoeffs, scoeffs) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        depth, width = table.shape
        if self._mt(len(keys)):
            name, fn = "poly_update_signed_mt", self._lib.poly_update_signed_mt
        else:
            name, fn = "poly_update_signed", self._lib.poly_update_signed
        t0 = self._tick(name)
        fn(
            _ptr(keys), _ptr(values), len(keys), depth, bcoeffs.shape[1],
            _ptr(bcoeffs), width, _ptr(scoeffs), _ptr(table),
        )
        self._tock(name, t0)

    def poly_gather(self, table, keys, coeffs) -> np.ndarray:
        t0 = self._tick("poly_gather")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        depth, width = table.shape
        out = np.empty((depth, len(keys)), dtype=np.float64)
        self._lib.poly_gather(
            _ptr(keys), len(keys), depth, coeffs.shape[1], _ptr(coeffs),
            width, _ptr(table), _ptr(out),
        )
        self._tock("poly_gather", t0)
        return out

    def poly_estimate(self, table, keys, coeffs,
                      mean_share: float, denom: float) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        depth, width = table.shape
        out = np.empty(len(keys), dtype=np.float64)
        if self._mt(len(keys)):
            name, fn = "poly_estimate_mt", self._lib.poly_estimate_mt
        else:
            name, fn = "poly_estimate", self._lib.poly_estimate
        t0 = self._tick(name)
        fn(
            _ptr(keys), len(keys), depth, coeffs.shape[1], _ptr(coeffs),
            width, _ptr(table), mean_share, denom, _ptr(out),
        )
        self._tock(name, t0)
        return out

    # -- precomputed indices -------------------------------------------------

    def gather_indices(self, table, indices) -> np.ndarray:
        t0 = self._tick("idx_gather")
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        depth, width = table.shape
        n = indices.shape[1]
        out = np.empty((depth, n), dtype=np.float64)
        self._lib.idx_gather(
            _ptr(indices), n, depth, width, _ptr(table), _ptr(out)
        )
        self._tock("idx_gather", t0)
        return out

    # -- invertible-sketch majority-vote candidates --------------------------

    def update_mv(self, cand, votes, keys, weights, r0, r1, r2) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        depth, width = votes.shape
        if self._mt(len(keys)):
            name, fn = "tab_update_mv_mt", self._lib.tab_update_mv_mt
        else:
            name, fn = "tab_update_mv", self._lib.tab_update_mv
        t0 = self._tick(name)
        fn(
            _ptr(keys), _ptr(weights), len(keys), depth, width,
            _ptr(r0), _ptr(r1), _ptr(r2), _ptr(cand), _ptr(votes),
        )
        self._tock(name, t0)

    def update_mv_indices(self, cand, votes, indices, keys, weights) -> None:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        depth, width = votes.shape
        if self._mt(indices.shape[1]):
            name, fn = "idx_update_mv_mt", self._lib.idx_update_mv_mt
        else:
            name, fn = "idx_update_mv", self._lib.idx_update_mv
        t0 = self._tick(name)
        fn(
            _ptr(indices), _ptr(keys), _ptr(weights), indices.shape[1],
            depth, width, _ptr(cand), _ptr(votes),
        )
        self._tock(name, t0)

    def merge_mv(self, cand_a, votes_a, cand_b, votes_b,
                 coeff: float) -> None:
        t0 = self._tick("mv_merge")
        self._lib.mv_merge(
            _ptr(cand_a), _ptr(votes_a), _ptr(cand_b), _ptr(votes_b),
            coeff, cand_a.size,
        )
        self._tock("mv_merge", t0)

    def combine2_mv(self, cand_a, votes_a, coeff_a, cand_b, votes_b,
                    coeff_b, out_k, out_v) -> None:
        t0 = self._tick("mv_combine2")
        self._lib.mv_combine2(
            _ptr(cand_a), _ptr(votes_a), coeff_a,
            _ptr(cand_b), _ptr(votes_b), coeff_b,
            _ptr(out_k), _ptr(out_v), out_v.size,
        )
        self._tock("mv_combine2", t0)

    def recover_mask(self, table, votes, mean_share: float, denom: float,
                     threshold: float) -> np.ndarray:
        t0 = self._tick("mv_recover")
        mask = np.empty(table.shape, dtype=np.uint8)
        self._lib.mv_recover_mask(
            _ptr(table), _ptr(votes), mean_share, denom, threshold,
            table.size, _ptr(mask),
        )
        self._tock("mv_recover", t0)
        return mask.view(np.bool_)

    def combine_sweep(self, addresses, n_temps: int, n_cells: int, dst,
                      n_terms, src, coeff, candidates=None) -> None:
        """Run an encoded COMBINE statement list over tables in place.

        ``addresses`` are the data pointers of equally shaped
        C-contiguous float64 tables of ``n_cells`` cells; the statement
        arrays are as :func:`repro.sketch.base.sweep_statements` encodes
        them (int64 slots and counts, float64 coefficients).
        ``candidates`` is ``None``, or the tables' candidate-key and vote
        plane pointers as two lists in slot order, which the statements
        then fold by the MV rule.
        """
        t0 = self._tick("combine_sweep")
        tables = (ctypes.c_void_p * len(addresses))(*addresses)
        keys = votes = None
        if candidates is not None:
            keys = (ctypes.c_void_p * len(addresses))(*candidates[0])
            votes = (ctypes.c_void_p * len(addresses))(*candidates[1])
        self._lib.combine_sweep(
            tables, len(addresses), n_temps, n_cells, len(dst),
            dst.ctypes.data, n_terms.ctypes.data, src.ctypes.data,
            coeff.ctypes.data, keys, votes,
        )
        self._tock("combine_sweep", t0)


#: Flag sets tried in order; host-tuned codegen first, portable fallback
#: second (``-march=native`` is unsupported by some compilers/arches).
#: ``-pthread`` covers both compile- and link-side needs of the pool.
#: ``-ffp-contract=off`` keeps ``a + b * c`` a rounded multiply and a
#: rounded add, as NumPy computes it: GCC's default for GNU C contracts
#: such pairs into fused multiply-adds wherever the target has FMA,
#: which would move ``combine_sweep``'s results by ulps.
_FLAG_SETS = (
    ["-O3", "-march=native", "-funroll-loops", "-ffp-contract=off",
     "-pthread"],
    ["-O3", "-ffp-contract=off", "-pthread"],
)


def _compiler_candidates() -> tuple:
    """``$CC`` first when set and non-empty, then the built-in list."""
    cc = os.environ.get("CC", "").strip()
    return (cc, *_COMPILERS) if cc else _COMPILERS


def _write_atomic(path: str, text: str) -> None:
    """Write via a pid-suffixed temp file + rename so concurrent writers
    (two processes compiling the same digest) can never interleave and a
    reader can never observe a half-written file."""
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _build_so(src_path: str, tmp_so: str) -> bool:
    for compiler in _compiler_candidates():
        for flags in _FLAG_SETS:
            try:
                result = subprocess.run(
                    [compiler, *flags, "-fPIC", "-shared", src_path,
                     "-o", tmp_so],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if result.returncode == 0:
                return True
    return False


def _compile() -> Optional[SketchKernels]:
    # The cache is machine-local, but key the flags in anyway so changing
    # them (like changing the source) can never pick up a stale object.
    digest = hashlib.sha256(
        (_C_SOURCE + repr(_FLAG_SETS)).encode()
    ).hexdigest()[:16]
    cache_dir = os.path.join(tempfile.gettempdir(), "repro-kernels")
    so_path = os.path.join(cache_dir, f"sketchkern-{digest}.so")
    src_path = os.path.join(cache_dir, f"sketchkern-{digest}.c")
    # Two attempts: if a cached .so exists but fails to load (a stale
    # artifact from a crashed writer predating the atomic rename, or a
    # build for a different ABI), discard it and rebuild once before
    # giving up.  Every filesystem publish below is temp-file + rename,
    # so concurrent processes racing on the same digest each load a
    # complete object -- never a half-written one.
    for attempt in range(2):
        if attempt or not os.path.exists(so_path):
            try:
                os.makedirs(cache_dir, exist_ok=True)
                _write_atomic(src_path, _C_SOURCE)
                tmp_so = so_path + f".tmp{os.getpid()}"
                if not _build_so(src_path, tmp_so):
                    return None
                os.replace(tmp_so, so_path)
            except OSError:
                return None
        try:
            return SketchKernels(ctypes.CDLL(so_path))
        except (OSError, AttributeError):
            try:
                os.unlink(so_path)
            except OSError:
                pass
    return None


_UNSET = object()
_KERNELS = _UNSET
_NUM_THREADS: Optional[int] = None


def _detect_num_threads() -> int:
    raw = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, DEFAULT_THREAD_CAP))


def get_num_threads() -> int:
    """The configured kernel thread count.

    Resolution order: :func:`set_num_threads` if it has been called, else
    ``REPRO_NUM_THREADS``, else the detected usable-core count capped at
    :data:`DEFAULT_THREAD_CAP`.  This is a *target*: it includes the
    dispatching thread, applies only to the compiled kernels (the NumPy
    fallback is always single-threaded), and only batches of at least
    ``min_parallel_keys`` keys actually fan out.
    """
    global _NUM_THREADS
    if _NUM_THREADS is None:
        _NUM_THREADS = _detect_num_threads()
    return _NUM_THREADS


def set_num_threads(n: int) -> int:
    """Set the kernel thread count; returns the clamped effective value.

    Takes effect immediately on already-compiled kernels and sticks for
    kernels compiled later in the process.
    """
    global _NUM_THREADS
    _NUM_THREADS = max(1, int(n))
    kernels = _KERNELS
    if kernels is not _UNSET and kernels is not None:
        kernels.set_threads(_NUM_THREADS)
        _NUM_THREADS = kernels.threads
    return _NUM_THREADS


def kernel_thread_count() -> int:
    """Threads the compiled kernels are configured to use (0 = kernels off).

    The observability layer exports this as the ``repro_kernel_threads``
    gauge; 0 keeps "no compiled kernels at all" distinguishable from
    "kernels on, single-threaded".
    """
    kernels = _KERNELS
    if kernels is _UNSET or kernels is None:
        return 0
    return kernels.threads


def get_kernels() -> Optional[SketchKernels]:
    """The compiled kernels, or ``None`` when unavailable (cached).

    Disabled (returning ``None`` without attempting compilation) when
    ``REPRO_NO_KERNELS`` is set or ``CC`` is set to an empty string --
    the latter is the conventional "no compiler on this host" spelling a
    CI job uses to prove the pure-NumPy fallback end to end.
    """
    global _KERNELS
    if _KERNELS is _UNSET:
        if os.environ.get("REPRO_NO_KERNELS") or (
            "CC" in os.environ and not os.environ["CC"].strip()
        ):
            _KERNELS = None
        else:
            _KERNELS = _compile()
            if _KERNELS is not None:
                _KERNELS.set_threads(get_num_threads())
    return _KERNELS


def kernel_call_counts() -> Dict[str, int]:
    """Per-kernel invocation totals for this process (empty when no kernels).

    Keys are :data:`KERNEL_NAMES` entries; values count facade calls, not
    per-row work.  The observability layer mirrors this into the
    ``repro_kernel_calls_total{kernel=...}`` counter at each interval
    seal.
    """
    kernels = _KERNELS
    if kernels is _UNSET or kernels is None:
        return {}
    return dict(kernels.calls)


def kernel_seconds() -> Dict[str, float]:
    """Per-kernel cumulative wall seconds (empty when no kernels).

    Facade-side ``time.perf_counter`` spans around each C call, keyed
    like :func:`kernel_call_counts`; exported by the observability layer
    as ``repro_kernel_seconds{kernel=...}``.
    """
    kernels = _KERNELS
    if kernels is _UNSET or kernels is None:
        return {}
    return dict(kernels.seconds)
