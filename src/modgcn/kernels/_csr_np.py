"""The NumPy backend: the fallback when the compiled one is missing.

A backend offers ``spmm``, the CSR x dense product added into ``out``,
and two bindings that check their fixed operands once, so that each later
call checks only what changes from call to call: ``bind_csr`` binds a CSR
matrix's three arrays and ``bind_adam`` one parameter and its two moment
buffers. The compiled backend (``_csr_c``) subclasses both bindings, so
both backends accept and refuse the same operands.

The product computes the compiled kernel's bits. Every output entry adds
its row's stored entries in stored order, as ``out[i, c] + v * x[j, c]``,
each product rounded before it is added (NumPy fuses no multiply-add). The
rows are visited longest first: step k adds the k-th stored entry of every
row that has one, as one vectorised update of the leading active rows.
Once fewer than ``_TAIL_ROWS`` rows remain active, one flat ``np.add.at``,
which adds in index order, adds every remaining entry of those rows.

The Adam step is a sequence of NumPy ufuncs, each rounding once; the
compiled step makes the same operations in the same order.
"""

import ctypes

import numpy as np

# below this many active rows, a vectorised step costs more than adding
# the rest of their entries one by one with np.add.at
_TAIL_ROWS = 64


def spmm(indptr, indices, data, x, out):
    """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
    if len(data) == 0:
        return
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    starts = indptr[:-1][order]
    # active[k]: how many rows hold a k-th entry (the first ones in order)
    active = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    acc = out[order]
    k = 0
    while k < len(active) and active[k] >= _TAIL_ROWS:
        n = active[k]
        pos = starts[:n] + k
        acc[:n] += data[pos, None] * x[indices[pos]]
        k += 1
    if k < len(active):
        n, p = active[k], x.shape[1]
        left = counts[:n] - k
        rows = np.repeat(np.arange(n), left)
        # each row's entries from its k-th on, in stored order
        pos = (np.repeat(starts[:n] + k, left) + np.arange(len(rows))
               - np.repeat(np.cumsum(left) - left, left))
        # acc is a fresh C-contiguous array (a fancy index makes one), so
        # its flat reshape is a view that the adds land in. The flat
        # indices run entry by entry, each over its p columns, so every
        # output entry still adds its row's entries in stored order.
        flat = rows[:, None] * p + np.arange(p)
        np.add.at(acc.reshape(-1), flat.reshape(-1),
                  (data[pos, None] * x[indices[pos]]).reshape(-1))
    out[order] = acc


def address(a: np.ndarray) -> int:
    """The address of a C-contiguous array's first byte. A ctypes view of
    a writeable array reads it in a third of the time that
    ``ndarray.ctypes`` takes to build its helper object."""
    if a.size and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def check_array(name: str, arr, dtype, ndim: int) -> None:
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or arr.ndim != ndim or not arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {ndim}-D "
                         f"{np.dtype(dtype).name} array")


def spans(*named) -> tuple:
    """(name, first byte, end) of each nonempty array of ``named`` pairs."""
    starts = [(name, a, address(a)) for name, a in named if a.size]
    return tuple((name, at, at + a.nbytes) for name, a, at in starts)


def check_apart(name: str, arr, at: int, taken: tuple) -> None:
    """Refuse ``arr``, whose first byte is at ``at``, if it overlaps a span
    of ``taken``."""
    end = at + arr.nbytes
    for other, lo, hi in taken:
        if lo < end and at < hi:
            raise ValueError(f"{name} must not share memory with {other}")


class CsrBinding:
    """A CSR matrix's (indptr, indices, data), checked once.

    Calling it with ``(x, out)`` checks those two and adds A @ x into
    ``out``. Both are C-contiguous 2-D float64 arrays, ``out`` writeable,
    of shape ``(n_rows, x.shape[1])`` and apart from ``x`` and the three
    arrays. With ``zero_first`` it zeroes ``out`` after the checks, so
    ``out`` receives A @ x.
    """

    def __init__(self, indptr, indices, data):
        for name, arr, dtype in (("indptr", indptr, np.int64),
                                 ("indices", indices, np.int64),
                                 ("data", data, np.float64)):
            check_array(name, arr, dtype, 1)
        if len(indptr) == 0:
            raise ValueError("indptr must hold at least one offset")
        if indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(data):
            raise ValueError(f"indptr spans [{indptr[0]}, {indptr[-1]}] but "
                             f"{len(indices)} indices and {len(data)} values "
                             f"are stored")
        self.arrays = (indptr, indices, data)
        self.n_rows = len(indptr) - 1
        self.spans = spans(("data", data), ("indices", indices),
                           ("indptr", indptr))

    def __call__(self, x, out, zero_first=False):
        check_array("x", x, np.float64, 2)
        check_array("out", out, np.float64, 2)
        if out.shape != (self.n_rows, x.shape[1]) or not out.flags.writeable:
            raise ValueError(f"out must be a writeable {(self.n_rows, x.shape[1])} "
                             f"array, got shape {out.shape}")
        if not out.size:
            return
        x_at, out_at = address(x), address(out)
        if x.size:
            check_apart("out", out, out_at, (("x", x_at, x_at + x.nbytes),))
        check_apart("out", out, out_at, self.spans)
        if zero_first:
            out.fill(0.0)
        self.add(x, out, x_at, out_at)

    def add(self, x, out, x_at, out_at):
        """out += A @ x on operands already checked."""
        spmm(*self.arrays, x, out)


class AdamBinding:
    """One parameter ``p`` and its moment buffers ``m`` and ``v``, checked
    once, with Adam's constants.

    Calling it with ``(g, lr, bc1, bc2)`` makes one bias-corrected Adam
    step in place: ``m*b1 + (1-b1)*g``, then ``v*b2 + ((1-b2)*g)*g``, then
    ``p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``. A gradient of the wrong
    shape or with a NaN or infinite entry is a ValueError, raised before
    anything changes.
    """

    def __init__(self, p, m, v, b1, b2, eps):
        for name, arr in (("m", m), ("v", v)):
            if arr.shape != p.shape:
                raise ValueError(f"{name} shape {arr.shape} != parameter "
                                 f"shape {p.shape}")
        self.p, self.m, self.v = p, m, v
        self.b1, self.b2, self.eps = b1, b2, eps

    def check_shape(self, g):
        if g.shape != self.p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{self.p.shape}")

    def __call__(self, g, lr, bc1, bc2):
        self.check_shape(g)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
        m, v = self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        self.p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


bind_csr = CsrBinding
bind_adam = AdamBinding
