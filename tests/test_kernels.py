"""Backend parity and selection for the CSR kernel."""

import importlib
import shutil

import numpy as np
import pytest

from conftest import sequential_spmm
from modgcn import cli, kernels
from modgcn.datasets import preprocess_features, stratified_split
from modgcn.harness import train_once
from modgcn.ica import (IcaConfig, _classifier_input, _onehot, _train_logistic,
                        ica_train_predict, neighbor_label_counts)
from modgcn.kernels import _csr_c, _csr_np
from modgcn.model import ModelSpec, build_model
from modgcn.sparse import CsrMatrix, build_graph

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


# every leftover width 1..7 after zero, one and two full blocks of 8
@pytest.mark.parametrize("width", [*range(18), 24, 33])
def test_c_kernel_matches_sequential_reference_bitwise(width, monkeypatch):
    # the C kernel's order is the reference; every backend must give it.
    # A tail threshold of 3 runs the NumPy kernel's vectorised steps on
    # this 19-row matrix as well as its np.add.at tail.
    monkeypatch.setattr(_csr_np, "_TAIL_ROWS", 3)
    rng = np.random.default_rng(width)
    _, dense = _random_csr(rng, 19, 23, density=0.5)
    dense[::4] = 0.0  # empty rows
    m = CsrMatrix.from_dense(dense)
    x = rng.standard_normal((23, width))
    start = rng.standard_normal((19, width))  # the kernel adds into out
    expected = sequential_spmm(m.row_offsets, m.col_indices, m.values, x, start)
    for name, backend in kernels._BACKENDS.items():
        out = start.copy()
        backend.spmm(m.row_offsets, m.col_indices, m.values, x, out)
        assert out.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_numpy_tail_adds_into_out_of_any_layout(layout):
    # The tail adds through a flat reshape of the rows it gathers from
    # out. Were that reshape a copy, as it would be of a gathered array
    # that is not C-contiguous, the tail's sums would be lost. These 19
    # rows are all tail.
    rng = np.random.default_rng(9)
    _, dense = _random_csr(rng, 19, 23, density=0.5)
    m = CsrMatrix.from_dense(dense)
    x = rng.standard_normal((23, 5))
    start = rng.standard_normal((19, 5))
    expected = sequential_spmm(m.row_offsets, m.col_indices, m.values, x, start)
    out = {"C": start.copy(), "F": np.asfortranarray(start),
           "strided": np.repeat(start, 2, axis=1)[:, ::2]}[layout]
    _csr_np.spmm(m.row_offsets, m.col_indices, m.values, x, out)
    assert out.tobytes() == expected.tobytes()


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


def cora_like_graph(n=200, n_feats=70, k=4, seed=11):
    """Homophilous edges and 2 to 8 words per node, row-normalised: its
    feature CSR, the transpose and the filters each have more nonempty
    rows than the NumPy kernel's tail threshold, and rows of many
    lengths, so that training runs both of its phases."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    pairs = rng.integers(0, n, size=(4 * n, 2))
    same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    edges = pairs[same | (rng.random(len(pairs)) < 0.2)]
    feats = np.zeros((n, n_feats))
    for i in range(n):
        feats[i, rng.choice(n_feats, size=rng.integers(2, 9), replace=False)] = 1.0
    return preprocess_features(build_graph(edges, feats, labels))


@needs_c
@pytest.mark.parametrize("encoder, variant", [("gcn", "mod"), ("chebnet", "aux")])
def test_training_is_byte_identical_on_every_backend(encoder, variant,
                                                     tmp_path, restore_backend):
    g = cora_like_graph()
    for m in (g.feature_csr, g.feature_csr.T):
        counts = np.diff(m.row_offsets)
        assert np.count_nonzero(counts) > _csr_np._TAIL_ROWS
        assert counts.max() > counts.min() > 0
    spec = ModelSpec(encoder=encoder, variant=variant, alpha=0.5, epochs=5,
                     seed=3)
    split = stratified_split(g, 5, 50, seed=2)
    logs, weights = [], []
    for name in ("numpy", "c"):
        kernels.set_backend(name)
        model = build_model(spec, g)
        train_once(model, g, split, log_path=tmp_path / f"{name}.csv")
        logs.append((tmp_path / f"{name}.csv").read_bytes())
        weights.append([p.tobytes() for p in model.params().values()])
    assert logs[0] == logs[1]
    assert weights[0] == weights[1]


@needs_c
def test_ica_is_byte_identical_on_every_backend(restore_backend):
    # 20 labels per class: both regressions' inputs and their transposes,
    # like the feature CSR that the logits multiply, have more nonempty
    # rows than the NumPy kernel's tail threshold, so their products run
    # its vectorised steps as well as its tail
    g = cora_like_graph()
    split = stratified_split(g, 20, 50, seed=2)
    state = np.full(g.num_nodes, -1)
    state[split.train_ids] = g.labels[split.train_ids]
    counts = neighbor_label_counts(g, state)[split.train_ids]
    inputs = (_classifier_input(g, split.train_ids),
              _classifier_input(g, split.train_ids, counts))
    for m in (*inputs, *(x.T for x in inputs)):
        assert np.count_nonzero(np.diff(m.row_offsets)) > _csr_np._TAIL_ROWS
    y = _onehot(g.labels[split.train_ids], g.num_classes)
    got = []
    for name in ("numpy", "c"):
        kernels.set_backend(name)
        layers = [_train_logistic(x, y, IcaConfig(), seed=3, layer_id=i)
                  for i, x in enumerate(inputs)]
        result = ica_train_predict(g, split.train_ids, split.test_ids,
                                   IcaConfig(), seed=3)
        got.append(([p.tobytes() for layer in layers
                     for p in (layer.weight, layer.bias)],
                    result.predicted.tobytes(), result.iterations))
    assert got[0] == got[1]
