"""Property-based tests against dense oracles (need the `test` extras)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from modgcn import kernels  # noqa: E402
from modgcn.sparse import CsrMatrix  # noqa: E402

# small exact values, so duplicates can cancel to exact zeros
VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@st.composite
def coo_and_operand(draw):
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    entries = []
    if n_rows and n_cols:
        entries = draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                          st.integers(0, n_cols - 1), VALUES),
                                max_size=25))
        # repeat a prefix negated: duplicates that must sum to zero and drop
        entries += [(r, c, -v) for r, c, v in entries[:draw(st.integers(0, len(entries)))]]
        entries = draw(st.permutations(entries))
    x = draw(arrays(np.float64, (n_cols, draw(st.integers(0, 20))),
                    elements=st.floats(-1.0, 1.0)))
    return n_rows, n_cols, entries, x


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coo_and_operand())
def test_every_backend_matches_dense_product(case):
    n_rows, n_cols, entries, x = case
    rows, cols, vals = (np.array([e[k] for e in entries]) for k in range(3))
    m = CsrMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    m.validate()
    dense = np.zeros((n_rows, n_cols))
    if entries:
        np.add.at(dense, (rows.astype(np.int64), cols.astype(np.int64)), vals)
    previous = kernels.backend_name()
    try:
        for name in kernels.available_backends():
            kernels.set_backend(name)
            got = kernels.csr_dense_matmul(n_rows, n_cols, m.row_offsets,
                                           m.col_indices, m.values, x)
            np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12)
    finally:
        kernels.set_backend(previous)
