"""Pure-NumPy CSR kernel; reference semantics for the compiled backend.

Deterministic: repeated calls on the same inputs give identical bits.
Results can differ from the compiled backend by a couple of ulps because
reduceat is free to reassociate the per-row sums.
"""

import numpy as np


def spmm(indptr, indices, data, x, out):
    """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
    if len(data) == 0:
        return
    contrib = data[:, None] * x[indices]
    counts = np.diff(indptr)
    nonempty = counts > 0
    # reduceat segments run from each listed start to the next one; empty
    # rows own no elements, so starts of nonempty rows partition `contrib`.
    starts = indptr[:-1][nonempty]
    out[nonempty] += np.add.reduceat(contrib, starts, axis=0)

