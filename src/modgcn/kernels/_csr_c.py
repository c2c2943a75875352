"""Compiled backend: hand-written C ``spmm``, ``adam``, a logistic
regression's step, ICA's inference sweeps, the layers' row-wise passes
and the objective's row passes, called through ctypes.

The C source is kept here as a string, so that an installed package
carries it and anything that fingerprints the package's Python files
covers it. :func:`load` compiles it with the system C compiler on first
use and caches the shared library under ``__pycache__`` next to this
file, named by a hash of the source and flags. The flags leave out
``-march=native`` and ``-ffast-math`` and forbid fused multiply-adds,
so every machine computes the same bits. ``-fno-math-errno`` only drops
the ``errno`` write of ``sqrt`` of a negative number, which lets GCC use
the vector square-root instruction; IEEE ``sqrt`` is correctly rounded
either way, so no bit moves.

Every output entry of ``spmm`` adds its row's stored entries in stored
order, as ``out[i, c] + v * x[j, c]``, so results are
bitwise-deterministic for a given input. The kernel holds eight output
columns in registers across a row's entries, then the one to seven
columns left over as one more register block whose width is a
compile-time constant (a ``switch`` case per width), and runs only
independent columns side by side, which computes the same bits as the
plain rows/entries/columns loop. ``adam`` makes one pass over a
parameter in the order and rounding of the NumPy backend's ufuncs.
``logistic_forward`` and ``logistic_step`` make a logistic regression's
step, less NumPy's ``tanh`` between them, with ``spmm``'s row blocks and
``adam``, in the order and rounding of the NumPy backend's step.
``ica_sweep`` runs the NumPy backend's sweeps, each node's relational
term the sum of its neighbours' ``w_rel`` rows, added in stored order
from +0.0 as NumPy's axis-0 sum adds them; no BLAS routine is involved.
The row-wise passes of the graph-convolution and dense layers are
``bias_act`` (the bias added to each row in place, then NumPy's
``maximum(pre, 0.0)`` in place when ReLU follows), ``column_sums`` (the
bias gradient, added row by row from +0.0 as NumPy's axis-0 sum adds two
or more columns; one column stays in NumPy, which sums it pairwise) and
``relu_backward`` (``g * (out > 0.0)``, read from ReLU's output).

The objective's row passes work on the n x k class outputs: the softmax
as ``softmax_shift`` (each row less its max, taken as NumPy's column walk
of ``maximum`` takes it, by a compare and a select) and ``softmax_scale``
(each row divided by its sum from +0.0) around NumPy's ``exp``;
``softmax_backward`` (``z * (g - s)``, s the row sum of ``g * z``);
``output_delta`` (``(1 - alpha) * (z - y)`` on the training rows and
``(1 - alpha) * 0.0`` elsewhere, with the modularity variant's
``alpha * softmax_backward`` added in the same pass); and
``subtract_outer`` (the modularity operator's rank-one part,
``(k[i] * kh[c]) / 2e``, subtracted in place from the fresh A @ H). Each
rounds once per operation, in the order of the NumPy body it replaces.
They take rows of 1 to 7 columns, each width a compile-time constant;
NumPy's row reductions change order from 8 columns on, so wider and
empty rows, and operands that are not C-contiguous, stay in NumPy.
Where two NaNs meet in a sum or a product, NumPy's loops keep one by
rules of their own; a NaN that arithmetic makes always has the same
bits, so the passes whose operands hold a NaN return 1 having written
nothing, and the NumPy body runs instead.

``spmm``, ``adam`` and the row-wise passes of the layers and of the
objective have two entry points, built
from the same inlined bodies: the baseline one, and on x86-64 an ``_avx``
twin compiled under ``__attribute__((target("avx")))``. AVX widens the
vectors; it adds no instruction that rounds otherwise (no FMA), so both
give the same bits. :class:`CompiledKernel` runs the twin when the
library's ``has_avx`` (``__builtin_cpu_supports("avx")``, which also asks
whether the operating system saves the AVX registers) says so; no flag or
environment variable chooses. Elsewhere only the baseline entry points
are built. The logistic step and the sweeps have the baseline one only.

C checks no bounds. The classes here subclass the bindings of
``_csr_np``, which check the operands first, so the C code reads only
checked operands and both backends refuse the same ones; each turns its
fixed operands into pointers once. :meth:`CompiledKernel.relabel` takes
a bound adjacency and checks the sweeps' other operands with
``_csr_np.check_sweep`` before the one C call, and the row-wise passes
check theirs with ``_csr_np.check_bias``, ``_csr_np.check_rows`` and the
checks of the objective's NumPy bodies.
"""

import ctypes
import hashlib
import os
import warnings
from pathlib import Path

import numpy as np

from . import _csr_np

SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define BLOCK 8

/* row[c0 .. c0+w) += the row's stored entries [start, end) times x, the w
   sums held in registers across the entries. Every call passes a constant
   w, so each inlined copy has a compile-time loop bound. */
static inline __attribute__((always_inline)) void
accumulate(int64_t start, int64_t end, const int64_t *restrict indices,
           const double *restrict data, const double *restrict x, int64_t p,
           int64_t c0, const int w, double *restrict row)
{
    double acc[BLOCK];
    for (int k = 0; k < w; k++)
        acc[k] = row[c0 + k];
    for (int64_t jj = start; jj < end; jj++) {
        const double v = data[jj];
        const double *restrict xj = x + indices[jj] * p + c0;
        for (int k = 0; k < w; k++)
            acc[k] += v * xj[k];
    }
    for (int k = 0; k < w; k++)
        row[c0 + k] = acc[k];
}

/* row[0 .. p) += the CSR row's stored entries [start, end) times x, in
   full blocks of BLOCK columns and then one block of the p % BLOCK left
   over, each held in registers across the entries. */
static inline __attribute__((always_inline)) void
spmm_row(int64_t start, int64_t end, const int64_t *restrict indices,
         const double *restrict data, const double *restrict x, int64_t p,
         double *restrict row)
{
    const int64_t full = p - p % BLOCK;
    for (int64_t c0 = 0; c0 < full; c0 += BLOCK)
        accumulate(start, end, indices, data, x, p, c0, BLOCK, row);
    switch (p - full) {
    case 1: accumulate(start, end, indices, data, x, p, full, 1, row); break;
    case 2: accumulate(start, end, indices, data, x, p, full, 2, row); break;
    case 3: accumulate(start, end, indices, data, x, p, full, 3, row); break;
    case 4: accumulate(start, end, indices, data, x, p, full, 4, row); break;
    case 5: accumulate(start, end, indices, data, x, p, full, 5, row); break;
    case 6: accumulate(start, end, indices, data, x, p, full, 6, row); break;
    case 7: accumulate(start, end, indices, data, x, p, full, 7, row); break;
    }
}

/* out += A @ x for CSR A (n_rows rows) and row-major x, out of width p.
   Each out[i][c] adds its row's stored entries in stored order, and only
   independent columns run side by side. No argument may overlap another. */
static inline __attribute__((always_inline)) void
spmm_body(int64_t n_rows, int64_t p, const int64_t *restrict indptr,
          const int64_t *restrict indices, const double *restrict data,
          const double *restrict x, double *restrict out)
{
    for (int64_t i = 0; i < n_rows; i++)
        spmm_row(indptr[i], indptr[i + 1], indices, data, x, p, out + i * p);
}

/* One Adam step over the n entries of a parameter, in the NumPy backend's
   order, each operation rounded once: m = m*b1 + (1-b1)*g,
   v = v*b2 + ((1-b2)*g)*g, p = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
   Returns 1, having changed nothing, if g holds a NaN or an infinity. */
static inline __attribute__((always_inline)) int
adam_body(int64_t n, double *restrict p, double *restrict m,
          double *restrict v, const double *restrict g, double lr, double b1,
          double b2, double bc1, double bc2, double eps)
{
    int bad = 0;
    for (int64_t i = 0; i < n; i++)
        bad |= !isfinite(g[i]);
    if (bad)
        return 1;
    const double c1 = 1.0 - b1, c2 = 1.0 - b2;
    for (int64_t i = 0; i < n; i++) {
        const double mi = m[i] * b1 + c1 * g[i];
        const double vi = v[i] * b2 + (c2 * g[i]) * g[i];
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - (lr * (mi / bc1)) / (sqrt(vi / bc2) + eps);
    }
    return 0;
}

/* pre (n, p) += bias (1, p), row by row; with relu, each row then
   becomes NumPy's maximum(pre, 0.0): a NaN is kept and -0.0 gives +0.0. */
static inline __attribute__((always_inline)) void
bias_act_body(int64_t n, int64_t p, double *restrict pre,
              const double *restrict bias, int relu)
{
    for (int64_t i = 0; i < n; i++) {
        double *restrict row = pre + i * p;
        for (int64_t c = 0; c < p; c++)
            row[c] = row[c] + bias[c];
        if (relu)
            for (int64_t c = 0; c < p; c++)
                row[c] = row[c] <= 0.0 ? 0.0 : row[c];
    }
}

/* out (1, p) = the column sums of m (n, p), each added row by row from
   +0.0 as NumPy's axis-0 sum adds them for p >= 2. */
static inline __attribute__((always_inline)) void
column_sums_body(int64_t n, int64_t p, const double *restrict m,
                 double *restrict out)
{
    for (int64_t c = 0; c < p; c++)
        out[c] = 0.0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t c = 0; c < p; c++)
            out[c] = out[c] + m[i * p + c];
}

/* grad = g * (out > 0.0) over n entries, out being ReLU's output, the
   comparison a 1.0 or a 0.0 as NumPy casts it: g * 0.0 keeps a NaN and
   gives -0.0 for a negative g. Every entry is multiplied, so the loop
   vectorises. */
static inline __attribute__((always_inline)) void
relu_backward_body(int64_t n, const double *restrict g,
                   const double *restrict out, double *restrict grad)
{
    for (int64_t i = 0; i < n; i++) {
        const double unit = out[i] > 0.0 ? 1.0 : 0.0;
        grad[i] = g[i] * unit;
    }
}

/* The objective's row passes take rows of 1..7 columns (wider and empty
   rows stay in NumPy, whose reductions change order from 8 columns on).
   Each body runs with a compile-time width w, so its row loops unroll;
   BY_WIDTH makes the constant. */
#define BY_WIDTH(p, CALL)                                                    \
    switch (p) {                                                             \
    case 1: { const int w = 1; CALL; } break;                               \
    case 2: { const int w = 2; CALL; } break;                               \
    case 3: { const int w = 3; CALL; } break;                               \
    case 4: { const int w = 4; CALL; } break;                               \
    case 5: { const int w = 5; CALL; } break;                               \
    case 6: { const int w = 6; CALL; } break;                               \
    case 7: { const int w = 7; CALL; } break;                               \
    }

/* Where both operands of a + b or a * b are NaNs, NumPy's loops give one
   of them by rules of their own, and a compiler may swap the operands of
   + and *. A NaN that arithmetic makes always has the same bits, so NaNs
   can differ only where an operand holds one: a pass whose operands may
   meet two NaNs first checks them with has_nan and, finding one, returns
   1 having written nothing, for the caller to run NumPy's expression. */

/* 1 if any of the n entries of x is a NaN. */
static inline __attribute__((always_inline)) int
has_nan(int64_t n, const double *restrict x)
{
    int any = 0;
    for (int64_t i = 0; i < n; i++)
        any |= x[i] != x[i];
    return any;
}

/* Rows per block in the passes that divide: a block's divisions run as
   one flat loop, each entry by its own divisor, so that they vectorise
   across rows. */
#define ROWS 8

/* out = m - the row max of m, where m holds no NaN. NumPy's column walk
   of maximum(acc, x) keeps acc on a tie and takes x where x > acc: a
   compare and a select, with no branch to mispredict on random rows. */
static inline __attribute__((always_inline)) void
softmax_shift_body(int64_t n, const int w, const double *restrict m,
                   double *restrict out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *restrict row = m + i * w;
        double top = row[0];
        for (int c = 1; c < w; c++)
            top = row[c] > top ? row[c] : top;
        for (int c = 0; c < w; c++)
            out[i * w + c] = row[c] - top;
    }
}

/* e = e / the row sum of e, in place, each sum added from +0.0 left to
   right as NumPy adds fewer than 8 entries. */
static inline __attribute__((always_inline)) void
softmax_scale_body(int64_t n, const int w, double *restrict e)
{
    double sums[ROWS * 7];
    for (int64_t i0 = 0; i0 < n; i0 += ROWS) {
        const int rows = n - i0 < ROWS ? (int)(n - i0) : ROWS;
        double *restrict block = e + i0 * w;
        for (int r = 0; r < rows; r++) {
            double sum = 0.0;
            for (int c = 0; c < w; c++)
                sum = sum + block[r * w + c];
            for (int c = 0; c < w; c++)
                sums[r * w + c] = sum;
        }
        for (int j = 0; j < rows * w; j++)
            block[j] = block[j] / sums[j];
    }
}

/* The gradient through a row softmax of output z, given the gradient g:
   z * (g - s), s the row sum of g * z from +0.0. Stored in res, or with
   add_to, alpha times it added to res. */
static inline __attribute__((always_inline)) void
softmax_backward_row(const int w, const double *restrict z,
                     const double *restrict g, const int add_to,
                     double alpha, double *restrict res)
{
    double sum = 0.0;
    for (int c = 0; c < w; c++)
        sum = sum + g[c] * z[c];
    for (int c = 0; c < w; c++) {
        const double grad = z[c] * (g[c] - sum);
        res[c] = add_to ? res[c] + alpha * grad : grad;
    }
}

static inline __attribute__((always_inline)) void
softmax_backward_body(int64_t n, const int w, const double *restrict z,
                      const double *restrict g, double *restrict res)
{
    for (int64_t i = 0; i < n; i++)
        softmax_backward_row(w, z + i * w, g + i * w, 0, 0.0, res + i * w);
}

/* The output logits' gradient: keep * (z - y) on the rows whose train
   flag is set, keep * 0.0 elsewhere, then with gq alpha times the softmax
   gradient of gq added. */
static inline __attribute__((always_inline)) void
output_delta_body(int64_t n, const int w, const double *restrict z,
                  const double *restrict y, const uint8_t *restrict train,
                  double keep, double alpha, const double *restrict gq,
                  double *restrict d)
{
    const double off = keep * 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *restrict zi = z + i * w, *restrict yi = y + i * w;
        double *restrict di = d + i * w;
        if (train[i])
            for (int c = 0; c < w; c++)
                di[c] = keep * (zi[c] - yi[c]);
        else
            for (int c = 0; c < w; c++)
                di[c] = off;
        if (gq)
            softmax_backward_row(w, zi, gq + i * w, 1, alpha, di);
    }
}

/* m (n, w) -= (u[i] * v[c]) / d, in place: NumPy's outer product, then its
   division, then the subtraction, each rounded once. The divisions bound
   its time, so w need not be a constant. */
static inline __attribute__((always_inline)) void
subtract_outer_body(int64_t n, const int w, double *restrict m,
                    const double *restrict u, const double *restrict v,
                    double d)
{
    double outer[ROWS * 7];
    for (int64_t i0 = 0; i0 < n; i0 += ROWS) {
        const int rows = n - i0 < ROWS ? (int)(n - i0) : ROWS;
        double *restrict block = m + i0 * w;
        for (int r = 0; r < rows; r++)
            for (int c = 0; c < w; c++)
                outer[r * w + c] = u[i0 + r] * v[c];
        for (int j = 0; j < rows * w; j++)
            block[j] = block[j] - outer[j] / d;
    }
}

/* The exported entry points of one instruction set: ISA is empty for the
   baseline or a target attribute, SUFFIX the name's ending. Each inlines
   the bodies above, so every copy is compiled from the same source and
   only the vector width may differ; none enables FMA. */
#define ENTRY_POINTS(ISA, SUFFIX)                                            \
ISA void spmm##SUFFIX(int64_t n_rows, int64_t p,                             \
                      const int64_t *restrict indptr,                        \
                      const int64_t *restrict indices,                       \
                      const double *restrict data, const double *restrict x, \
                      double *restrict out)                                  \
{                                                                            \
    spmm_body(n_rows, p, indptr, indices, data, x, out);                     \
}                                                                            \
ISA int adam##SUFFIX(int64_t n, double *restrict p, double *restrict m,      \
                     double *restrict v, const double *restrict g,           \
                     double lr, double b1, double b2, double bc1,            \
                     double bc2, double eps)                                 \
{                                                                            \
    return adam_body(n, p, m, v, g, lr, b1, b2, bc1, bc2, eps);              \
}                                                                            \
ISA void bias_act##SUFFIX(int64_t n, int64_t p, double *restrict pre,        \
                          const double *restrict bias, int relu)             \
{                                                                            \
    bias_act_body(n, p, pre, bias, relu);                                    \
}                                                                            \
ISA void column_sums##SUFFIX(int64_t n, int64_t p, const double *restrict m, \
                             double *restrict out)                           \
{                                                                            \
    column_sums_body(n, p, m, out);                                          \
}                                                                            \
ISA void relu_backward##SUFFIX(int64_t n, const double *restrict g,          \
                               const double *restrict out,                   \
                               double *restrict grad)                        \
{                                                                            \
    relu_backward_body(n, g, out, grad);                                     \
}                                                                            \
ISA int softmax_shift##SUFFIX(int64_t n, int64_t p, const double *restrict m, \
                              double *restrict out)                          \
{                                                                            \
    if (has_nan(n * p, m))                                                   \
        return 1;                                                            \
    BY_WIDTH(p, softmax_shift_body(n, w, m, out))                            \
    return 0;                                                                \
}                                                                            \
ISA void softmax_scale##SUFFIX(int64_t n, int64_t p, double *restrict e)     \
{                                                                            \
    BY_WIDTH(p, softmax_scale_body(n, w, e))                                 \
}                                                                            \
ISA int softmax_backward##SUFFIX(int64_t n, int64_t p,                       \
                                 const double *restrict z,                   \
                                 const double *restrict g,                   \
                                 double *restrict res)                       \
{                                                                            \
    if (has_nan(n * p, z) | has_nan(n * p, g))                               \
        return 1;                                                            \
    BY_WIDTH(p, softmax_backward_body(n, w, z, g, res))                      \
    return 0;                                                                \
}                                                                            \
ISA int output_delta##SUFFIX(int64_t n, int64_t p, const double *restrict z, \
                             const double *restrict y,                       \
                             const uint8_t *restrict train, double keep,     \
                             double alpha, const double *restrict gq,        \
                             double *restrict d)                             \
{                                                                            \
    if (!gq) {                                                               \
        BY_WIDTH(p, output_delta_body(n, w, z, y, train, keep, alpha, 0, d)) \
        return 0;                                                            \
    }                                                                        \
    if (has_nan(n * p, z) | has_nan(n * p, y) | has_nan(n * p, gq))          \
        return 1;                                                            \
    BY_WIDTH(p, output_delta_body(n, w, z, y, train, keep, alpha, gq, d))    \
    return 0;                                                                \
}                                                                            \
ISA int subtract_outer##SUFFIX(int64_t n, int64_t p, double *restrict m,     \
                               const double *restrict u,                     \
                               const double *restrict v, double d)           \
{                                                                            \
    if (has_nan(p, v))                                                       \
        return 1;                                                            \
    subtract_outer_body(n, (int)p, m, u, v, d);                              \
    return 0;                                                                \
}

ENTRY_POINTS(, )

/* An AVX copy for x86-64 machines that have AVX; 1 from has_avx when the
   CPU and the operating system support it. */
#if defined(__x86_64__)
ENTRY_POINTS(__attribute__((target("avx"))), _avx)

int has_avx(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
}
#else
int has_avx(void)
{
    return 0;
}
#endif

/* A logistic regression's operands (see CompiledLogistic): x (m, n) CSR
   and its transpose xt, targets y (m, p), weights w (n, p) and bias b
   (1, p) with their Adam moments, and the work buffers. No array may
   overlap another. */
struct logistic {
    int64_t m, n, p;
    const int64_t *x_indptr, *x_indices;
    const double *x_data;
    const int64_t *xt_indptr, *xt_indices;
    const double *xt_data;
    const double *y;
    double *w, *b, *mw, *vw, *mb, *vb, *gw, *gb, *pre;
    double l2, lr, b1, b2, eps;
};

/* pre = (x @ w + b) * 0.5, the argument of tanh in the sigmoid
   0.5 * (1 + tanh(0.5 * z)); each product starts from +0.0. */
void logistic_forward(const struct logistic *s)
{
    const int64_t p = s->p;
    for (int64_t i = 0; i < s->m; i++) {
        double *restrict row = s->pre + i * p;
        for (int64_t c = 0; c < p; c++)
            row[c] = 0.0;
        spmm_row(s->x_indptr[i], s->x_indptr[i + 1], s->x_indices, s->x_data,
                 s->w, p, row);
        for (int64_t c = 0; c < p; c++)
            row[c] = (row[c] + s->b[c]) * 0.5;
    }
}

/* The rest of one step once pre holds tanh(pre): pre becomes the loss
   gradient ((pre + 1) * 0.5 - y) / m, gw = xt @ pre (+ l2 * w when l2 is
   above zero), gb the column sums of pre from +0.0, row by row; then one
   Adam step on w and one on b. Returns 1 if gw is not finite (nothing
   stepped), 2 if gb is not (w stepped, b not), else 0. */
int logistic_step(const struct logistic *s, double bc1, double bc2)
{
    const int64_t m = s->m, n = s->n, p = s->p;
    const double rows = (double)m;
    double *restrict pre = s->pre, *restrict gw = s->gw, *restrict gb = s->gb;
    for (int64_t i = 0; i < m * p; i++)
        pre[i] = ((pre[i] + 1.0) * 0.5 - s->y[i]) / rows;
    for (int64_t j = 0; j < n; j++) {
        double *restrict row = gw + j * p;
        for (int64_t c = 0; c < p; c++)
            row[c] = 0.0;
        spmm_row(s->xt_indptr[j], s->xt_indptr[j + 1], s->xt_indices,
                 s->xt_data, pre, p, row);
    }
    if (s->l2 > 0)
        for (int64_t i = 0; i < n * p; i++)
            gw[i] = gw[i] + s->l2 * s->w[i];
    for (int64_t c = 0; c < p; c++)
        gb[c] = 0.0;
    for (int64_t i = 0; i < m; i++)
        for (int64_t c = 0; c < p; c++)
            gb[c] = gb[c] + pre[i * p + c];
    if (adam_body(n * p, s->w, s->mw, s->vw, gw, s->lr, s->b1, s->b2, bc1,
                  bc2, s->eps))
        return 1;
    if (adam_body(p, s->b, s->mb, s->vb, gb, s->lr, s->b1, s->b2, bc1, bc2,
                  s->eps))
        return 2;
    return 0;
}

/* NumPy's argmax of base + rel: the first NaN if there is one, else the
   first maximum. */
static int64_t argmax_sum(const double *restrict base,
                          const double *restrict rel, int64_t k)
{
    double top = base[0] + rel[0];
    int64_t best = 0;
    if (isnan(top))
        return 0;
    for (int64_t c = 1; c < k; c++) {
        const double v = base[c] + rel[c];
        if (isnan(v))
            return c;
        if (v > top) {
            top = v;
            best = c;
        }
    }
    return best;
}

/* ICA's inference sweeps (see _csr_np.relabel) over the n_order ids of
   order, on the n x n adjacency, the labels state (each in [0, k)), the
   stale flags (all 1 at the start), base (n, k) and w_rel (k, k); rel is
   a work row of k. Node i scores base[i] + rel, rel the sum from +0.0 of
   its neighbours' w_rel rows in stored order. Writes (iterations,
   converged, visits) to result. No array may overlap another. */
void ica_sweep(int64_t n_order, int64_t k, int64_t max_iters,
               const int64_t *restrict order, const int64_t *restrict indptr,
               const int64_t *restrict indices, int64_t *restrict state,
               uint8_t *restrict stale, const double *restrict base,
               const double *restrict w_rel, double *restrict rel,
               int64_t *restrict result)
{
    int64_t sweeps = 0, changed = 1, visits = 0;
    while (changed && sweeps < max_iters) {
        sweeps++;
        changed = 0;
        for (int64_t pos = 0; pos < n_order; pos++) {
            const int64_t i = order[pos];
            if (!stale[i])
                continue;
            stale[i] = 0;
            visits++;
            for (int64_t c = 0; c < k; c++)
                rel[c] = 0.0;
            for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
                const double *restrict row = w_rel + state[indices[jj]] * k;
                for (int64_t c = 0; c < k; c++)
                    rel[c] = rel[c] + row[c];
            }
            const int64_t label = argmax_sum(base + i * k, rel, k);
            if (label != state[i]) {
                state[i] = label;
                for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++)
                    stale[indices[jj]] = 1;
                changed++;
            }
        }
    }
    result[0] = sweeps;
    result[1] = changed == 0;
    result[2] = visits;
}
"""

COMPILER = "cc"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
COMPILE_TIMEOUT_S = 120
# the entry-point sets the library exports, from the one every machine runs
ISAS = ("baseline", "avx")

CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
LIB_NAME = "_csr_c.{}.so".format(
    hashlib.sha256((SOURCE + " ".join(FLAGS)).encode()).hexdigest()[:16])


class CompiledCsr(_csr_np.CsrBinding):
    """A CSR binding whose products run the C ``spmm``."""

    def __init__(self, fn, n_rows, n_cols, indptr, indices, data):
        super().__init__(n_rows, n_cols, indptr, indices, data)
        self._fn = fn
        self._pointers = tuple(_csr_np.address(a) for a in self.arrays)

    def add(self, x, out):
        self._fn(self.n_rows, x.shape[1], *self._pointers, _csr_np.address(x),
                 _csr_np.address(out))


class CompiledAdam(_csr_np.AdamBinding):
    """An Adam binding whose steps run the C ``adam``, which is passed the
    pointers of the parameter and its moment buffers and the gradient's."""

    def __init__(self, fn, p, m, v, b1, b2, eps):
        super().__init__(p, m, v, b1, b2, eps)
        self._fn = fn
        self._args = (p.size, *(_csr_np.address(a) for a in (p, m, v)))

    def apply(self, g, at, lr, bc1, bc2):
        if self._fn(*self._args, at, lr, self.b1, self.b2, bc1, bc2, self.eps):
            raise ValueError("non-finite gradient")


class _Logistic(ctypes.Structure):
    """The C ``struct logistic``, field for field."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("m", "n", "p")]
                + [(name, ctypes.c_void_p) for name in (
                    "x_indptr", "x_indices", "x_data", "xt_indptr",
                    "xt_indices", "xt_data", "y", "w", "b", "mw", "vw", "mb",
                    "vb", "gw", "gb", "pre")]
                + [(name, ctypes.c_double)
                   for name in ("l2", "lr", "b1", "b2", "eps")])


class CompiledLogistic(_csr_np.LogisticBinding):
    """A logistic binding whose steps run in two C calls around NumPy's
    ``tanh``: ``logistic_forward`` computes ``(x @ W + b) * 0.5``, and
    ``logistic_step`` the rest of the gradients and both Adam steps. The
    checked operands are turned into pointers once.

    ``tanh`` stays in NumPy because NumPy's SIMD ``tanh`` and the C
    library's round differently, and the NumPy backend's bits are NumPy's.
    """

    def __init__(self, forward, step, x, x_t, y, params, l2, lr, b1, b2, eps):
        super().__init__(x, x_t, y, params, l2, lr, b1, b2, eps)
        (w_name, b_name), (grad_w, grad_b) = self.names, self.grads
        arrays = (*self.x.arrays, *self.x_t.arrays, self.y, self.w, self.b,
                  self.m[w_name], self.v[w_name], self.m[b_name],
                  self.v[b_name], grad_w, grad_b, self.pre)
        self._args = _Logistic(self.rows, self.w.shape[0], self.w.shape[1],
                               *map(_csr_np.address, arrays),
                               l2, lr, b1, b2, eps)
        self._ref = ctypes.byref(self._args)
        self._forward, self._step = forward, step

    def step(self):
        self.t += 1
        self._forward(self._ref)
        np.tanh(self.pre, out=self.pre)
        bad = self._step(self._ref, 1.0 - self.b1 ** self.t,
                         1.0 - self.b2 ** self.t)
        if bad:
            raise ValueError(f"non-finite gradient in {self.names[bad - 1]!r}")


class CompiledKernel:
    """The shared library's ``spmm``, ``adam``, logistic-regression step,
    ICA sweeps and row-wise passes, reached through bindings and methods
    that check their operands.

    ``isa`` picks the entry points of ``spmm``, ``adam`` and the row-wise
    passes: ``"baseline"``, or ``"avx"`` where the CPU has AVX. None picks
    the last of ``supported``, which the library's ``has_avx`` fills from
    ``__builtin_cpu_supports``. Both compute the same bits."""

    def __init__(self, path: Path, isa=None):
        self._lib = ctypes.CDLL(str(path))
        self._lib.has_avx.restype = ctypes.c_int
        self.supported = ISAS if self._lib.has_avx() else ISAS[:1]
        self.isa = self.supported[-1] if isa is None else isa
        if self.isa not in self.supported:
            raise ValueError(f"entry points {self.isa!r} are not available "
                             f"here; available: {list(self.supported)}")
        suffix = "" if self.isa == "baseline" else f"_{self.isa}"
        i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double

        def entry(name, restype, *argtypes, suffix=suffix):
            fn = getattr(self._lib, name + suffix)
            fn.restype, fn.argtypes = restype, list(argtypes)
            return fn

        self._spmm = entry("spmm", None, i64, i64, *[ptr] * 5)
        self._adam = entry("adam", ctypes.c_int, i64, *[ptr] * 4, *[f64] * 6)
        self._bias_act = entry("bias_act", None, i64, i64, ptr, ptr,
                               ctypes.c_int)
        self._column_sums = entry("column_sums", None, i64, i64, ptr, ptr)
        self._relu_backward = entry("relu_backward", None, i64, *[ptr] * 3)
        # the objective's row passes; those that return an int return 1,
        # having written nothing, where an operand holds a NaN
        self._softmax_shift = entry("softmax_shift", ctypes.c_int, i64, i64,
                                    ptr, ptr)
        self._softmax_scale = entry("softmax_scale", None, i64, i64, ptr)
        self._softmax_backward = entry("softmax_backward", ctypes.c_int, i64,
                                       i64, *[ptr] * 3)
        self._output_delta = entry("output_delta", ctypes.c_int, i64, i64,
                                   *[ptr] * 3, f64, f64, ptr, ptr)
        self._subtract_outer = entry("subtract_outer", ctypes.c_int, i64,
                                     i64, *[ptr] * 3, f64)
        logistic = ctypes.POINTER(_Logistic)
        self._logistic_forward = entry("logistic_forward", None, logistic,
                                       suffix="")
        self._logistic_step = entry("logistic_step", ctypes.c_int, logistic,
                                    f64, f64, suffix="")
        self._ica_sweep = entry("ica_sweep", None, *[i64] * 3, *[ptr] * 9,
                                suffix="")

    def add_bias(self, pre, bias, relu=False):
        """``_csr_np.add_bias`` by the C ``bias_act``, in place."""
        _csr_np.check_bias(pre, bias)
        self._bias_act(*pre.shape, _csr_np.address(pre),
                       _csr_np.address(bias), relu)
        return pre

    def column_sums(self, m):
        """``_csr_np.column_sums`` by the C ``column_sums``, which adds row
        by row from +0.0; one column goes to NumPy, which sums it
        pairwise."""
        _csr_np.check_rows(("m", m))
        if m.shape[1] == 1:
            return _csr_np.column_sums(m)
        out = np.empty((1, m.shape[1]))
        self._column_sums(*m.shape, _csr_np.address(m), _csr_np.address(out))
        return out

    def relu_backward(self, g, out):
        """``_csr_np.relu_backward`` by the C ``relu_backward``."""
        _csr_np.check_rows(("g", g), ("out", out))
        grad = np.empty(g.shape)
        self._relu_backward(g.size, *map(_csr_np.address, (g, out, grad)))
        return grad

    # The objective's row passes run in C on C-contiguous operands of 1 to
    # 7 columns that hold no NaN (see _csr_np.compiled_rows and the C
    # has_nan); the others run the NumPy body, in both backends.

    def softmax_rows(self, m):
        """``_csr_np.softmax_rows`` by the C ``softmax_shift``, NumPy's
        ``exp`` in place, and the C ``softmax_scale``. ``exp`` stays in
        NumPy, as ``tanh`` does in :class:`CompiledLogistic`."""
        _csr_np.check_matrices(("m", m))
        out = np.empty(m.shape)
        at = _csr_np.address(out)
        if (not _csr_np.compiled_rows(m)
                or self._softmax_shift(*m.shape, _csr_np.address(m), at)):
            return _csr_np.softmax_rows(m)
        np.exp(out, out=out)
        self._softmax_scale(*m.shape, at)
        return out

    def softmax_rows_backward(self, out, grad_out):
        """``_csr_np.softmax_rows_backward`` by the C ``softmax_backward``."""
        _csr_np.check_matrices(("out", out), ("grad_out", grad_out))
        grad = np.empty(out.shape)
        if (not _csr_np.compiled_rows(out, grad_out)
                or self._softmax_backward(*out.shape, *map(
                    _csr_np.address, (out, grad_out, grad)))):
            return _csr_np.softmax_rows_backward(out, grad_out)
        return grad

    def output_delta(self, z, onehot, rows, alpha, grad_q=None):
        """``_csr_np.output_delta`` by the C ``output_delta``, which takes
        a null ``grad_q`` for the variants that route no Q through the
        output softmax."""
        _csr_np.check_output_delta(z, onehot, rows, grad_q)
        scored = () if grad_q is None else (grad_q,)
        delta = np.empty(z.shape)
        # the addresses are taken only once the layouts are known to be
        # C-contiguous: a ctypes view refuses any other writeable array
        if (not _csr_np.compiled_rows(z, onehot, rows, *scored)
                or self._output_delta(
                    *z.shape, *map(_csr_np.address, (z, onehot, rows)),
                    1.0 - alpha, alpha,
                    None if grad_q is None else _csr_np.address(grad_q),
                    _csr_np.address(delta))):
            return _csr_np.output_delta(z, onehot, rows, alpha, grad_q)
        return delta

    def subtract_outer(self, m, u, v, d):
        """``_csr_np.subtract_outer`` by the C ``subtract_outer``, in
        place."""
        _csr_np.check_outer(m, u, v)
        if (not _csr_np.compiled_rows(m)
                or self._subtract_outer(*m.shape, *map(_csr_np.address,
                                                       (m, u, v)), d)):
            return _csr_np.subtract_outer(m, u, v, d)
        return m

    def bind_csr(self, n_rows, n_cols, indptr, indices, data) -> CompiledCsr:
        return CompiledCsr(self._spmm, n_rows, n_cols, indptr, indices, data)

    def bind_adam(self, p, m, v, b1, b2, eps) -> CompiledAdam:
        return CompiledAdam(self._adam, p, m, v, b1, b2, eps)

    def bind_logistic(self, x, x_t, y, params, l2, lr, b1, b2,
                      eps) -> CompiledLogistic:
        return CompiledLogistic(self._logistic_forward, self._logistic_step,
                                x, x_t, y, params, l2, lr, b1, b2, eps)

    def relabel(self, adjacency, state, unlabeled, base_logits, w_rel,
                max_iters):
        """``_csr_np.relabel``'s sweeps and result, run by the C
        ``ica_sweep`` on operands that ``_csr_np.check_sweep`` has checked
        and made C-contiguous."""
        order, base_logits, w_rel = _csr_np.check_sweep(
            adjacency, state, unlabeled, base_logits, w_rel, max_iters)
        n, k = base_logits.shape
        result = np.zeros(3, dtype=np.int64)
        arrays = (order, *adjacency.arrays[:2], state,
                  np.ones(n, dtype=np.uint8), base_logits, w_rel, np.empty(k),
                  result)
        self._ica_sweep(order.size, k, int(max_iters),
                        *map(_csr_np.address, arrays))
        iterations, converged, visits = result.tolist()
        return iterations, bool(converged), visits


def _compile(target: Path) -> None:
    """Build the shared library at ``target``.

    The compiler writes a per-process temporary that is renamed into place,
    so processes that build at the same time never see a partial file.
    """
    import subprocess

    target.parent.mkdir(exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        proc = subprocess.run([COMPILER, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
                              input=SOURCE, capture_output=True, text=True,
                              timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            raise OSError(f"{COMPILER} exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{COMPILER} ran longer than {COMPILE_TIMEOUT_S} s") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _remove_stale(target: Path) -> None:
    """Delete the libraries built from other sources next to ``target``.
    A build in flight writes a name ending in ``.tmp``, which stays."""
    for old in target.parent.glob("_csr_c.*.so"):
        if old != target:
            try:
                old.unlink(missing_ok=True)
            except OSError:
                pass  # the new library loads all the same


def load():
    """The compiled kernel, built first if no cached library exists. A
    build removes the libraries of earlier sources from ``CACHE_DIR``.

    Returns None, after one warning, when the compiler is missing or fails,
    the cache directory is not writeable, or the library does not load.
    """
    path = CACHE_DIR / LIB_NAME
    try:
        if not path.is_file():
            _compile(path)
            _remove_stale(path)
        return CompiledKernel(path)
    except OSError as exc:
        warnings.warn(f"compiled CSR kernel unavailable, using the NumPy "
                      f"fallback: {exc}", RuntimeWarning, stacklevel=2)
        return None
