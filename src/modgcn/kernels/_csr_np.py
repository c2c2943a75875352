"""Pure-NumPy CSR kernel: the fallback when the compiled one is missing.

It computes the compiled kernel's bits. Every output entry adds its row's
stored entries in stored order, as ``out[i, c] + v * x[j, c]``, each
product rounded before it is added (NumPy fuses no multiply-add). The
rows are visited longest first: step k adds the k-th stored entry of every
row that has one, as one vectorised update of the leading active rows.
Once fewer than ``_TAIL_ROWS`` rows remain active, one flat ``np.add.at``,
which adds in index order, adds every remaining entry of those rows.
"""

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
