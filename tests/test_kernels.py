"""Backend parity and selection for the CSR kernel."""

import numpy as np
import pytest

from modgcn import kernels
from modgcn.sparse import CsrMatrix


def _random_csr(rng, n_rows, n_cols, density=0.3):
    dense = rng.standard_normal((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return CsrMatrix.from_dense(dense), dense


@pytest.fixture
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.set_backend(previous)


def test_numpy_backend_always_available():
    assert "numpy" in kernels.available_backends()


def test_spmm_matches_dense_oracle(restore_backend):
    rng = np.random.default_rng(3)
    for name in kernels.available_backends():
        kernels.set_backend(name)
        for _ in range(10):
            m, dense = _random_csr(rng, 13, 7)
            x = rng.standard_normal((7, 5))
            got = kernels.csr_dense_matmul(
                m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x)
            np.testing.assert_allclose(got, dense @ x, atol=1e-13)


@pytest.mark.skipif(len(kernels.available_backends()) < 2,
                    reason="compiled backend not built")
def test_backends_agree(restore_backend):
    # reduceat may reassociate per-row sums, so parity is ulp-level
    # closeness rather than identical bits
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, _ = _random_csr(rng, 17, 11, density=0.4)
        x = rng.standard_normal((11, 6))
        outs = []
        for name in ("numpy", "cython"):
            kernels.set_backend(name)
            outs.append(kernels.csr_dense_matmul(
                m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-13)


def test_each_backend_is_deterministic(restore_backend):
    rng = np.random.default_rng(6)
    m, _ = _random_csr(rng, 14, 9, density=0.4)
    x = rng.standard_normal((9, 5))
    for name in kernels.available_backends():
        kernels.set_backend(name)
        first = kernels.csr_dense_matmul(
            m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x)
        second = kernels.csr_dense_matmul(
            m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x)
        np.testing.assert_array_equal(first, second)


def test_set_backend_rejects_unknown(restore_backend):
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.set_backend("fortran")


def test_set_backend_aliases(restore_backend):
    kernels.set_backend("py")
    assert kernels.backend_name() == "numpy"
    kernels.set_backend("auto")
    assert kernels.backend_name() in ("numpy", "cython")


def test_empty_rows_and_matrix(restore_backend):
    for name in kernels.available_backends():
        kernels.set_backend(name)
        m = CsrMatrix.from_dense(np.zeros((4, 3)))
        x = np.ones((3, 2))
        got = kernels.csr_dense_matmul(
            m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x)
        np.testing.assert_array_equal(got, np.zeros((4, 2)))


def test_shape_mismatch_raises():
    m = CsrMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        kernels.csr_dense_matmul(m.n_rows, m.n_cols, m.row_offsets,
                                 m.col_indices, m.values, np.ones((4, 2)))
