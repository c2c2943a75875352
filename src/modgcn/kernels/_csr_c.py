"""Compiled backend: hand-written C ``spmm``, ``adam``, a logistic
regression's step and ICA's inference sweeps, called through ctypes.

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

C checks no bounds. The classes here subclass the bindings of
``_csr_np``, which check the operands first, so the C code reads only
checked operands and both backends refuse the same ones; each turns its
fixed operands into pointers once. :meth:`CompiledKernel.relabel` takes
a bound adjacency and checks the sweeps' other operands with
``_csr_np.check_sweep`` before the one C call.
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
void spmm(int64_t n_rows, int64_t p, const int64_t *restrict indptr,
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
int adam(int64_t n, double *restrict p, double *restrict m, double *restrict v,
         const double *restrict g, double lr, double b1, double b2,
         double bc1, double bc2, double eps)
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
    if (adam(n * p, s->w, s->mw, s->vw, gw, s->lr, s->b1, s->b2, bc1, bc2,
             s->eps))
        return 1;
    if (adam(p, s->b, s->mb, s->vb, gb, s->lr, s->b1, s->b2, bc1, bc2, s->eps))
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

CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
LIB_NAME = "_csr_c.{}.so".format(
    hashlib.sha256((SOURCE + " ".join(FLAGS)).encode()).hexdigest()[:16])


class CompiledCsr(_csr_np.CsrBinding):
    """A CSR binding whose products run the C ``spmm``."""

    def __init__(self, fn, n_rows, n_cols, indptr, indices, data):
        super().__init__(n_rows, n_cols, indptr, indices, data)
        self._fn = fn
        self._pointers = tuple(_csr_np.address(a) for a in self.arrays)

    def add(self, x, out, x_at, out_at):
        self._fn(self.n_rows, x.shape[1], *self._pointers, x_at, out_at)


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
    """The shared library's ``spmm``, ``adam``, logistic-regression step
    and ICA sweeps, reached through bindings that check their operands."""

    def __init__(self, path: Path):
        self._lib = ctypes.CDLL(str(path))
        self._spmm = self._lib.spmm
        self._spmm.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
        self._spmm.restype = None
        self._adam = self._lib.adam
        self._adam.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 4
                               + [ctypes.c_double] * 6)
        self._adam.restype = ctypes.c_int
        self._logistic_forward = self._lib.logistic_forward
        self._logistic_forward.argtypes = [ctypes.POINTER(_Logistic)]
        self._logistic_forward.restype = None
        self._logistic_step = self._lib.logistic_step
        self._logistic_step.argtypes = [ctypes.POINTER(_Logistic),
                                        ctypes.c_double, ctypes.c_double]
        self._logistic_step.restype = ctypes.c_int
        self._ica_sweep = self._lib.ica_sweep
        self._ica_sweep.argtypes = ([ctypes.c_int64] * 3
                                    + [ctypes.c_void_p] * 9)
        self._ica_sweep.restype = None

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
