"""Compiled CSR kernel: a hand-written C ``spmm`` called through ctypes.

The C source is kept here as a string, so that an installed package
carries it and anything that fingerprints the package's Python files
covers it. :func:`load` compiles it with the system C compiler on first
use and caches the shared library under ``__pycache__`` next to this
file, named by a hash of the source and flags. The flags leave out
``-march=native`` and ``-ffast-math`` and forbid fused multiply-adds,
so every machine computes the same bits.

Every output entry adds its row's stored entries in stored order, as
``out[i, c] + v * x[j, c]``, so results are bitwise-deterministic for a
given input. The kernel holds eight output columns in registers across a
row's entries and runs only independent columns side by side, which
computes the same bits as the plain rows/entries/columns loop. C checks no
bounds: :meth:`CompiledKernel.spmm` checks dtypes, contiguity, shapes and
that ``out`` overlaps no input, and column indices must already lie in
``[0, x.shape[0])``, which ``CsrMatrix.from_coo`` and
``CsrMatrix.validate`` guarantee.
"""

import ctypes
import hashlib
import os
import warnings
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <stdint.h>

#define BLOCK 8

/* out += A @ x for CSR A (n_rows rows) and row-major x, out of width p.
   Each out[i][c] adds its row's stored entries in stored order. Full blocks
   of BLOCK columns are held in registers across the row's entries, so only
   independent columns run side by side; leftover columns are done per
   entry. No argument may overlap another. */
void spmm(int64_t n_rows, int64_t p, const int64_t *restrict indptr,
          const int64_t *restrict indices, const double *restrict data,
          const double *restrict x, double *restrict out)
{
    const int64_t full = p - p % BLOCK;
    for (int64_t i = 0; i < n_rows; i++) {
        double *restrict row = out + i * p;
        const int64_t start = indptr[i], end = indptr[i + 1];
        for (int64_t c0 = 0; c0 < full; c0 += BLOCK) {
            double acc[BLOCK];
            for (int k = 0; k < BLOCK; k++)
                acc[k] = row[c0 + k];
            for (int64_t jj = start; jj < end; jj++) {
                const double v = data[jj];
                const double *restrict xj = x + indices[jj] * p + c0;
                for (int k = 0; k < BLOCK; k++)
                    acc[k] += v * xj[k];
            }
            for (int k = 0; k < BLOCK; k++)
                row[c0 + k] = acc[k];
        }
        if (full == p)
            continue;
        for (int64_t jj = start; jj < end; jj++) {
            const double v = data[jj];
            const double *restrict xj = x + indices[jj] * p;
            for (int64_t c = full; c < p; c++)
                row[c] += v * xj[c];
        }
    }
}
"""

COMPILER = "cc"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120

CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
LIB_NAME = "_csr_c.{}.so".format(
    hashlib.sha256((SOURCE + " ".join(FLAGS)).encode()).hexdigest()[:16])


class CompiledKernel:
    """The shared library's ``spmm`` behind argument checks."""

    def __init__(self, path: Path):
        self._lib = ctypes.CDLL(str(path))
        self._spmm = self._lib.spmm
        self._spmm.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
        self._spmm.restype = None

    def spmm(self, indptr, indices, data, x, out):
        """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
        for name, arr, dtype, ndim in (("indptr", indptr, np.int64, 1),
                                       ("indices", indices, np.int64, 1),
                                       ("data", data, np.float64, 1),
                                       ("x", x, np.float64, 2),
                                       ("out", out, np.float64, 2)):
            if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
                    or arr.ndim != ndim or not arr.flags.c_contiguous):
                raise ValueError(f"{name} must be a C-contiguous {ndim}-D "
                                 f"{np.dtype(dtype).name} array")
        n_rows = len(indptr) - 1
        if out.shape != (n_rows, x.shape[1]) or not out.flags.writeable:
            raise ValueError(f"out must be a writeable {(n_rows, x.shape[1])} "
                             f"array, got shape {out.shape}")
        if indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(data):
            raise ValueError(f"indptr spans [{indptr[0]}, {indptr[-1]}] but "
                             f"{len(indices)} indices and {len(data)} values are stored")
        # the C arguments are restrict pointers: an overlap is undefined behaviour
        for name, arr in (("x", x), ("data", data), ("indices", indices),
                          ("indptr", indptr)):
            if np.may_share_memory(out, arr):
                raise ValueError(f"out must not share memory with {name}")
        self._spmm(n_rows, x.shape[1], indptr.ctypes.data, indices.ctypes.data,
                   data.ctypes.data, x.ctypes.data, out.ctypes.data)


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
