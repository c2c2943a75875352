"""Compiled backend: hand-written C ``spmm`` and ``adam`` called through ctypes.

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

C checks no bounds. The bindings check first: :class:`CompiledCsr`
checks a matrix's three arrays once and turns them into pointers, then
checks ``x`` and ``out`` on each product (dtypes, contiguity, shapes and
that ``out`` overlaps no input); column indices must already lie in
``[0, x.shape[0])``, which ``CsrMatrix.from_coo`` and
``CsrMatrix.validate`` guarantee. :class:`CompiledAdam` checks a
parameter and its moment buffers once and the gradient on each step.
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

/* out += A @ x for CSR A (n_rows rows) and row-major x, out of width p.
   Each out[i][c] adds its row's stored entries in stored order. Columns go
   in full blocks of BLOCK and then one block of the p % BLOCK left over,
   each held in registers across the row's entries, so only independent
   columns run side by side. No argument may overlap another. */
void spmm(int64_t n_rows, int64_t p, const int64_t *restrict indptr,
          const int64_t *restrict indices, const double *restrict data,
          const double *restrict x, double *restrict out)
{
    const int64_t full = p - p % BLOCK;
    for (int64_t i = 0; i < n_rows; i++) {
        double *restrict row = out + i * p;
        const int64_t start = indptr[i], end = indptr[i + 1];
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
"""

COMPILER = "cc"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
COMPILE_TIMEOUT_S = 120

CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
LIB_NAME = "_csr_c.{}.so".format(
    hashlib.sha256((SOURCE + " ".join(FLAGS)).encode()).hexdigest()[:16])


class CompiledCsr(_csr_np.CsrBinding):
    """A CSR binding whose products run the C ``spmm``: the matrix's
    three arrays are checked and turned into pointers once."""

    def __init__(self, fn, indptr, indices, data):
        super().__init__(indptr, indices, data)
        self._fn = fn
        self._pointers = tuple(_csr_np.address(a) for a in self.arrays)

    def add(self, x, out, x_at, out_at):
        self._fn(self.n_rows, x.shape[1], *self._pointers, x_at, out_at)


class CompiledAdam(_csr_np.AdamBinding):
    """An Adam binding whose steps run the C ``adam``: the parameter and
    its moment buffers are checked and turned into pointers once, and a
    step checks and passes only the gradient."""

    def __init__(self, fn, p, m, v, b1, b2, eps):
        super().__init__(p, m, v, b1, b2, eps)
        if (np.may_share_memory(p, m) or np.may_share_memory(p, v)
                or np.may_share_memory(m, v)):
            raise ValueError("a parameter and its moment buffers must not "
                             "share memory")
        self._fn = fn
        self._taken = _csr_np.spans(("the parameter", p), ("m", m), ("v", v))
        self._args = (p.size, *(_csr_np.address(a) for a in (p, m, v)))

    def __call__(self, g, lr, bc1, bc2):
        if not (isinstance(g, np.ndarray) and g.dtype == np.float64
                and g.flags.c_contiguous):
            g = np.ascontiguousarray(g, dtype=np.float64)
        self.check_shape(g)
        at = _csr_np.address(g)
        _csr_np.check_apart("gradient", g, at, self._taken)
        if self._fn(*self._args, at, lr, self.b1, self.b2, bc1, bc2, self.eps):
            raise ValueError("non-finite gradient")


class CompiledKernel:
    """The shared library's ``spmm`` and ``adam``, reached through
    bindings that check their operands."""

    def __init__(self, path: Path):
        self._lib = ctypes.CDLL(str(path))
        self._spmm = self._lib.spmm
        self._spmm.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
        self._spmm.restype = None
        self._adam = self._lib.adam
        self._adam.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 4
                               + [ctypes.c_double] * 6)
        self._adam.restype = ctypes.c_int

    def bind_csr(self, indptr, indices, data) -> CompiledCsr:
        return CompiledCsr(self._spmm, indptr, indices, data)

    def spmm(self, indptr, indices, data, x, out):
        """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
        self.bind_csr(indptr, indices, data)(x, out)

    def bind_adam(self, p, m, v, b1, b2, eps) -> _csr_np.AdamBinding:
        """The C step for C-contiguous, writeable float64 arrays; the NumPy
        step, which computes the same bits, for another layout or dtype."""
        if not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                   and a.flags.c_contiguous and a.flags.writeable
                   for a in (p, m, v)):
            return _csr_np.AdamBinding(p, m, v, b1, b2, eps)
        return CompiledAdam(self._adam, p, m, v, b1, b2, eps)


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


def load():
    """The compiled kernel, built first if no cached library exists.

    Returns None, after one warning, when the compiler is missing or fails,
    the cache directory is not writeable, or the library does not load.
    """
    path = CACHE_DIR / LIB_NAME
    try:
        if not path.is_file():
            _compile(path)
        return CompiledKernel(path)
    except OSError as exc:
        warnings.warn(f"compiled CSR kernel unavailable, using the NumPy "
                      f"fallback: {exc}", RuntimeWarning, stacklevel=2)
        return None
