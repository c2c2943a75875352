"""Backend parity and selection for the CSR kernel."""

import importlib
import shutil

import numpy as np
import pytest

from modgcn import cli, kernels
from modgcn.kernels import _csr_c
from modgcn.sparse import CsrMatrix

needs_c = pytest.mark.skipif("c" not in kernels.available_backends(),
                             reason="C kernel not built")


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


# (n_rows, n_cols, width): random shapes plus 0 x n, n x 0 and widths 0, 1
ORACLE_SHAPES = [(13, 7, 5)] * 10 + [(0, 7, 5), (13, 0, 5), (13, 7, 0), (13, 7, 1),
                                     (1, 1, 1), (0, 0, 3)]


def test_spmm_matches_dense_oracle(restore_backend):
    rng = np.random.default_rng(3)
    for name in kernels.available_backends():
        kernels.set_backend(name)
        for n_rows, n_cols, width in ORACLE_SHAPES:
            _, dense = _random_csr(rng, n_rows, n_cols)
            dense[::3] = 0.0  # every third row empty
            m = CsrMatrix.from_dense(dense)
            x = rng.standard_normal((n_cols, width))
            got = kernels.csr_dense_matmul(
                m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values, x)
            assert got.shape == (n_rows, width)
            np.testing.assert_allclose(got, dense @ x, atol=1e-13)


def _sequential_spmm(indptr, indices, data, x, out):
    """out + A @ x, one stored entry at a time in stored order: the sums the
    compiled kernel must reproduce bit for bit."""
    out = out.copy()
    for i in range(len(indptr) - 1):
        row = out[i]
        for jj in range(indptr[i], indptr[i + 1]):
            row = row + data[jj] * x[indices[jj]]
        out[i] = row
    return out


@needs_c
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 15, 16, 17, 24, 33])
def test_c_kernel_matches_sequential_reference_bitwise(width):
    kernel = _csr_c.load()
    rng = np.random.default_rng(width)
    _, dense = _random_csr(rng, 19, 23, density=0.5)
    dense[::4] = 0.0  # empty rows
    m = CsrMatrix.from_dense(dense)
    x = rng.standard_normal((23, width))
    out = rng.standard_normal((19, width))  # the kernel adds into out
    expected = _sequential_spmm(m.row_offsets, m.col_indices, m.values, x, out)
    kernel.spmm(m.row_offsets, m.col_indices, m.values, x, out)
    assert np.array_equal(out, expected)


@needs_c
def test_backends_agree(restore_backend):
    # reduceat may reassociate per-row sums, so parity is ulp-level
    # closeness rather than identical bits
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, _ = _random_csr(rng, 17, 11, density=0.4)
        x = rng.standard_normal((11, 6))
        outs = []
        for name in ("numpy", "c"):
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


def test_env_backend_is_resolved_on_first_use(monkeypatch):
    monkeypatch.setenv("MODGCN_KERNELS", "fortran")
    monkeypatch.setattr(kernels, "_active_name", None)
    monkeypatch.setattr(kernels, "_active", None)
    with pytest.raises(ValueError,
                       match="MODGCN_KERNELS='fortran': unknown kernel backend"):
        kernels.backend_name()


def test_set_backend_aliases(restore_backend):
    kernels.set_backend("py")
    assert kernels.backend_name() == "numpy"
    kernels.set_backend("auto")
    assert kernels.backend_name() in ("numpy", "c")


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


@needs_c
def test_c_wrapper_rejects_bad_arguments():
    kernel = _csr_c.load()
    m = CsrMatrix.from_dense(np.eye(3))
    x = np.ones((3, 2))
    with pytest.raises(ValueError, match="indices must be a C-contiguous 1-D int64"):
        kernel.spmm(m.row_offsets, m.col_indices.astype(np.int32), m.values, x,
                    np.zeros((3, 2)))
    with pytest.raises(ValueError, match="out must be"):
        kernel.spmm(m.row_offsets, m.col_indices, m.values, x, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="out must be"):
        kernel.spmm(m.row_offsets, m.col_indices, m.values, x, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="x must be"):
        kernel.spmm(m.row_offsets, m.col_indices, m.values, np.ones((2, 3)).T,
                    np.zeros((3, 2)))
    with pytest.raises(ValueError, match="indptr spans"):
        kernel.spmm(m.row_offsets, m.col_indices[:2], m.values[:2], x,
                    np.zeros((3, 2)))


@needs_c
def test_c_wrapper_rejects_out_overlapping_an_input():
    kernel = _csr_c.load()
    m = CsrMatrix.from_dense(np.eye(3))
    x = np.ones((3, 2))
    with pytest.raises(ValueError, match="out must not share memory with x"):
        kernel.spmm(m.row_offsets, m.col_indices, m.values, x, x)
    with pytest.raises(ValueError, match="out must not share memory with x"):
        kernel.spmm(m.row_offsets, m.col_indices, m.values, x, x.view())
    buffer = np.ones(8)
    with pytest.raises(ValueError, match="out must not share memory with data"):
        kernel.spmm(m.row_offsets, m.col_indices, buffer[:3], x,
                    buffer[2:].reshape(3, 2))


def test_flags_keep_every_machine_on_the_same_bits():
    assert "-ffp-contract=off" in _csr_c.FLAGS
    for flag in _csr_c.FLAGS:
        assert not flag.startswith(("-march", "-mtune=native", "-ffast-math",
                                    "-Ofast", "-funsafe-math-optimizations")), flag


@pytest.mark.skipif(shutil.which(_csr_c.COMPILER) is None, reason="no C compiler")
def test_build_writes_only_the_library(monkeypatch, tmp_path):
    monkeypatch.setattr(_csr_c, "CACHE_DIR", tmp_path / "cache")
    kernel = _csr_c.load()
    assert kernel is not None
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [_csr_c.LIB_NAME]
    out = np.zeros((2, 1))
    kernel.spmm(np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 3.0]),
                np.array([[5.0], [7.0]]), out)
    np.testing.assert_array_equal(out, [[14.0], [15.0]])


@pytest.fixture(params=["missing", "failing"])
def broken_compiler(request, monkeypatch, tmp_path):
    """Point the build at an empty cache and a compiler that cannot work."""
    if request.param == "missing":
        compiler = str(tmp_path / "no-such-cc")
    elif shutil.which("false") is None:
        pytest.skip("no `false` command")
    else:
        compiler = "false"
    monkeypatch.setattr(_csr_c, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_csr_c, "COMPILER", compiler)
    monkeypatch.delenv("MODGCN_KERNELS", raising=False)
    return tmp_path / "cache"


def test_failed_compile_falls_back_to_numpy(broken_compiler, monkeypatch):
    try:
        with pytest.warns(RuntimeWarning, match="NumPy fallback"):
            importlib.reload(kernels)
        assert kernels.available_backends() == ["numpy"]
        assert kernels.backend_name() == "numpy"
        assert not broken_compiler.exists() or not any(broken_compiler.iterdir())
    finally:
        monkeypatch.undo()
        importlib.reload(kernels)


def test_unavailable_env_backend_is_one_cli_error(broken_compiler, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("MODGCN_KERNELS", "c")
    try:
        with pytest.warns(RuntimeWarning, match="NumPy fallback"):
            importlib.reload(kernels)  # must not raise
        assert cli.main(["check-gradients", "--instances", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: MODGCN_KERNELS='c': kernel backend 'c' is not "
                       "available; available: ['numpy']"]
    finally:
        monkeypatch.undo()
        importlib.reload(kernels)
