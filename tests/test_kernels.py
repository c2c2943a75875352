"""Backend parity and selection for the CSR kernel, and the bindings that
check a matrix's arrays once."""

import importlib
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modgcn
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
        backend.bind_csr(m.n_rows, m.n_cols, m.row_offsets, m.col_indices,
                         m.values)(x, out)
        assert out.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_numpy_tail_adds_into_out_of_any_layout(layout):
    # The tail adds through a flat reshape of the rows it gathers from
    # out. Were that reshape a copy, as it would be of a gathered array
    # that is not C-contiguous, the tail's sums would be lost. These 19
    # rows are all tail. A binding passes only a C-contiguous out, so the
    # planned add is called directly.
    rng = np.random.default_rng(9)
    _, dense = _random_csr(rng, 19, 23, density=0.5)
    m = CsrMatrix.from_dense(dense)
    x = rng.standard_normal((23, 5))
    start = rng.standard_normal((19, 5))
    expected = sequential_spmm(m.row_offsets, m.col_indices, m.values, x, start)
    out = {"C": start.copy(), "F": np.asfortranarray(start),
           "strided": np.repeat(start, 2, axis=1)[:, ::2]}[layout]
    _csr_np.add_planned(_csr_np.plan_rows(m.row_offsets), m.col_indices,
                        m.values, x, out)
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
    bound = kernel.bind_csr(3, 3, m.row_offsets, m.col_indices, m.values)
    with pytest.raises(ValueError, match="indices must be a C-contiguous 1-D int64"):
        kernel.bind_csr(3, 3, m.row_offsets, m.col_indices.astype(np.int32),
                        m.values)(x, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="out must be"):
        bound(x, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="out must be"):
        bound(x, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="x must be"):
        bound(np.ones((2, 3)).T, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="row_offsets must hold 4 offsets "
                                         "from 0 to the 2 stored entries"):
        kernel.bind_csr(3, 3, m.row_offsets, m.col_indices[:2],
                        m.values[:2])(x, np.zeros((3, 2)))


@needs_c
def test_c_wrapper_rejects_out_overlapping_an_input():
    kernel = _csr_c.load()
    m = CsrMatrix.from_dense(np.eye(3))
    x = np.ones((3, 2))
    bound = kernel.bind_csr(3, 3, m.row_offsets, m.col_indices, m.values)
    with pytest.raises(ValueError, match="out must not share memory with x"):
        bound(x, x)
    with pytest.raises(ValueError, match="out must not share memory with x"):
        bound(x, x.view())
    buffer = np.ones(8)
    with pytest.raises(ValueError, match="out must not share memory with values"):
        kernel.bind_csr(3, 3, m.row_offsets, m.col_indices, buffer[:3])(
            x, buffer[2:].reshape(3, 2))


# (row_offsets, col_indices) of a 3 x 3 matrix that stores three ones,
# built with the dataclass constructor, which checks nothing
MALFORMED_CSR = {
    "column-past-n-cols": ([0, 1, 2, 3], [0, 3, 1]),
    "column-negative": ([0, 1, 2, 3], [0, -1, 1]),
    "offsets-decrease": ([0, 2, 1, 3], [0, 1, 2]),
    "offset-past-nnz": ([0, 10**8, 2, 3], [0, 1, 2]),
    "last-offset-past-nnz": ([0, 1, 2, 4], [0, 1, 2]),
}


def _gate_messages(offsets, cols):
    """The ValueError message of each kernel entry point that takes a
    CsrMatrix, given the malformed one, under the active backend."""
    m = CsrMatrix(3, 3, np.array(offsets, dtype=np.int64),
                  np.array(cols, dtype=np.int64), np.ones(3))
    y = np.eye(3)[:, :2].copy()
    calls = {
        "dot": lambda: m.dot(np.ones((3, 2))),
        "relabel": lambda: kernels.relabel(
            m, np.zeros(3, dtype=np.int64), np.arange(3), np.zeros((3, 2)),
            np.zeros((2, 2)), 2),
        "bind_logistic": lambda: kernels.bind_logistic(
            m, CsrMatrix.identity(3), y,
            {"w": np.zeros((3, 2)), "b": np.zeros((1, 2))}, 0.0, 0.1, 0.9,
            0.999, 1e-8),
    }
    messages = {}
    for name, call in calls.items():
        try:
            call()
        except ValueError as exc:
            messages[name] = str(exc)
    return messages


# run in a child process, so that a C read out of bounds kills the child
# and fails one test rather than the whole run
GATE_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from modgcn import kernels
from test_kernels import MALFORMED_CSR, _gate_messages
kernels.set_backend("c")
print(json.dumps(_gate_messages(*MALFORMED_CSR[sys.argv[3]])))
"""


@pytest.mark.parametrize("case", sorted(MALFORMED_CSR))
def test_malformed_csr_is_one_value_error_on_every_backend(case,
                                                           restore_backend):
    kernels.set_backend("numpy")
    want = _gate_messages(*MALFORMED_CSR[case])
    assert sorted(want) == ["bind_logistic", "dot", "relabel"]
    assert len(set(want.values())) == 1, want
    if "c" not in kernels.available_backends():
        pytest.skip("C kernel not built")
    paths = (str(Path(modgcn.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", GATE_SCRIPT, *paths, case],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == want


@pytest.mark.skipif(shutil.which(_csr_c.COMPILER) is None, reason="no C compiler")
def test_c_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        [_csr_c.COMPILER, *_csr_c.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-x", "c", "-", "-o", str(tmp_path / "lib.so")],
        input=_csr_c.SOURCE, capture_output=True, text=True,
        timeout=_csr_c.COMPILE_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_flags_keep_every_machine_on_the_same_bits():
    assert "-ffp-contract=off" in _csr_c.FLAGS
    for flag in _csr_c.FLAGS:
        assert not flag.startswith(("-march", "-mtune=native", "-ffast-math",
                                    "-Ofast", "-funsafe-math-optimizations",
                                    "-ffinite-math-only", "-fassociative-math",
                                    "-freciprocal-math", "-fno-signed-zeros")), flag


@pytest.mark.skipif(shutil.which(_csr_c.COMPILER) is None, reason="no C compiler")
def test_build_writes_only_the_library(monkeypatch, tmp_path):
    monkeypatch.setattr(_csr_c, "CACHE_DIR", tmp_path / "cache")
    kernel = _csr_c.load()
    assert kernel is not None
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [_csr_c.LIB_NAME]
    out = np.zeros((2, 1))
    kernel.bind_csr(2, 2, np.array([0, 1, 2]), np.array([1, 0]),
                    np.array([2.0, 3.0]))(np.array([[5.0], [7.0]]), out)
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


def test_matrix_keeps_one_binding_per_backend(restore_backend):
    rng = np.random.default_rng(4)
    m, _ = _random_csr(rng, 9, 6)
    x = rng.standard_normal((6, 3))
    for name in kernels.available_backends():
        kernels.set_backend(name)
        first = m.dot(x)
        bound = m._bindings[name]
        assert m.dot(x).tobytes() == first.tobytes()
        assert m._bindings[name] is bound
    assert sorted(m._bindings) == kernels.available_backends()


@pytest.mark.parametrize("width", [None, 1, 5])
def test_dot_into_a_buffer_gives_the_bytes_of_dot(width, restore_backend):
    rng = np.random.default_rng(5)
    m, _ = _random_csr(rng, 11, 8)
    shape = (8,) if width is None else (8, width)
    x = rng.standard_normal(shape)
    for name in kernels.available_backends():
        kernels.set_backend(name)
        buf = rng.standard_normal((11,) + shape[1:])  # overwritten, not added to
        assert m.dot(x, out=buf) is buf
        assert buf.tobytes() == m.dot(x).tobytes()


def test_dot_refuses_a_bad_buffer_before_writing(restore_backend):
    rng = np.random.default_rng(6)
    m, _ = _random_csr(rng, 4, 4, density=1.0)  # 16 stored entries
    x = rng.standard_normal((4, 4))
    for name in kernels.available_backends():
        kernels.set_backend(name)
        for out, problem in (
                (x, "share memory with x"),
                (x[:, :], "share memory with x"),
                (np.zeros((4, 3)), "out must be a writeable"),
                (np.zeros((4, 4), dtype=np.float32), "out must be a C-contiguous"),
                (np.zeros((4, 8))[:, ::2], "out must be a C-contiguous")):
            before = x.copy()
            with pytest.raises(ValueError, match=problem):
                m.dot(x, out=out)
            assert x.tobytes() == before.tobytes()
        # a buffer laid over the matrix's own arrays
        for field in ("values", "col_indices", "row_offsets"):
            stored = getattr(m, field)
            start = stored.copy()
            over = stored.view(np.float64)[:4].reshape(4, 1)
            with pytest.raises(ValueError, match="must not share memory"):
                m.dot(x[:, :1], out=over)
            assert stored.tobytes() == start.tobytes()


@pytest.mark.parametrize("what", ["matrix", "graph"])
def test_pickle_after_a_product(what, restore_backend):
    # bindings hold pointers into the process that made them: a pickle
    # leaves them out, and the copy binds its own
    g = cora_like_graph(n=40, n_feats=12)
    x = np.random.default_rng(7).standard_normal((12, 3))
    for name in kernels.available_backends():
        kernels.set_backend(name)
        want = g.feature_csr.dot(x)
        g.adjacency.dot(want)
        copy = pickle.loads(pickle.dumps(g if what == "graph" else g.feature_csr))
        m = copy.feature_csr if what == "graph" else copy
        assert "_bindings" not in m.__dict__
        assert m.dot(x).tobytes() == want.tobytes()
        if what == "graph":
            assert (copy.adjacency.dot(want).tobytes()
                    == g.adjacency.dot(want).tobytes())


def _logistic_operands():
    """A 4 x 3 input whose row 2 stores nothing, one-hot targets over three
    classes, and initial weights and bias."""
    x = CsrMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, -1.5, 0.0],
                                       [0.0, 0.0, 0.0], [0.5, 0.0, 0.25]]))
    y = _onehot(np.array([0, 1, 2, 0]), 3)
    rng = np.random.default_rng(7)
    return x, y, rng.standard_normal((3, 3)), rng.standard_normal((1, 3))


def _bind(x, y, w, b, l2=0.0):
    return kernels.bind_logistic(x, x.T, y, {"clf.w": w, "clf.b": b}, l2, 0.1,
                                 0.9, 0.999, 1e-8)


# an infinite target in a row that stores entries makes the weight gradient
# non-finite, so nothing is stepped; in row 2, which stores nothing, it
# reaches only the bias gradient, so the weights are stepped and the bias not
@pytest.mark.parametrize("row, name", [(0, "clf.w"), (2, "clf.b")])
def test_non_finite_logistic_gradient_names_its_parameter(row, name,
                                                          restore_backend):
    x, y, w0, b0 = _logistic_operands()
    y[row, 1] = np.inf
    states = []
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        w, b = w0.copy(), b0.copy()
        fit = _bind(x, y, w, b)
        with pytest.raises(ValueError) as err:
            fit.step()
        assert str(err.value) == f"non-finite gradient in {name!r}"
        assert b.tobytes() == b0.tobytes()
        assert (w.tobytes() == w0.tobytes()) == (name == "clf.w")
        states.append([fit.t, *(a.tobytes() for a in (
            w, b, *fit.m.values(), *fit.v.values()))])
    assert all(state == states[0] for state in states)


@pytest.mark.parametrize("backend", ["numpy", "c"])
def test_logistic_binding_refuses_bad_operands(backend, restore_backend):
    if backend not in kernels.available_backends():
        pytest.skip("C kernel not built")
    kernels.set_backend(backend)
    x, y, w, b = _logistic_operands()
    with pytest.raises(ValueError, match="clf.w must be a writeable"):
        _bind(x, y, w[:2].copy(), b)
    with pytest.raises(ValueError, match="clf.b must be a C-contiguous"):
        _bind(x, y, w, b.astype(np.float32))
    with pytest.raises(ValueError, match="y must be a C-contiguous"):
        _bind(x, np.asfortranarray(y[:, :2]), w[:, :2].copy(), b[:, :2].copy())
    with pytest.raises(ValueError, match="shape mismatch"):
        _bind(x, y[:3].copy(), w, b)
    with pytest.raises(ValueError, match="must not share memory with y"):
        _bind(x, y, y[:3], b)
    with pytest.raises(ValueError, match="clf.b must not share memory with clf.w"):
        _bind(x, y, w, w[:1])
    read_only = w.copy()
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="clf.w must be a writeable"):
        _bind(x, y, read_only, b)


@needs_c
def test_c_logistic_binding_runs_the_compiled_step_from_two_classes(
        restore_backend):
    kernels.set_backend("c")
    x, y, w, b = _logistic_operands()
    assert isinstance(_bind(x, y, w, b), _csr_c.CompiledLogistic)
    # one class: NumPy would sum the bias gradient's one column pairwise,
    # not row by row as C does, so neither backend runs it
    with pytest.raises(ValueError, match="at least 2 classes, got 1"):
        _bind(x, y[:, :1].copy(), w[:, :1].copy(), b[:, :1].copy())


def _adam_operands(fault):
    """A parameter, its moment buffers and a gradient, with ``fault``."""
    p = np.arange(6.0).reshape(2, 3)
    m, v, g = np.zeros_like(p), np.zeros_like(p), np.ones_like(p)
    if fault == "m-is-the-parameter":
        m = p
    elif fault == "v-overlaps-m":
        buffer = np.zeros(9)
        m, v = buffer[:6].reshape(2, 3), buffer[3:].reshape(2, 3)
    elif fault == "gradient-is-the-parameter":
        g = p
    elif fault == "fortran-order":
        p = np.asfortranarray(p)
    elif fault == "read-only":
        p.flags.writeable = False
    return p, m, v, g


def _logistic_operands_with(fault):
    x, y, w, b = _logistic_operands()
    if fault == "bias-in-the-weights":
        b = w[:1]
    elif fault == "fortran-order":
        w = np.asfortranarray(w)
    elif fault == "read-only":
        w.flags.writeable = False
    elif fault == "one-class":
        y, w, b = y[:, :1].copy(), w[:, :1].copy(), b[:, :1].copy()
    return x, y, w, b


@needs_c
@pytest.mark.parametrize("fault", [
    ("adam", "m-is-the-parameter"), ("adam", "v-overlaps-m"),
    ("adam", "gradient-is-the-parameter"), ("adam", "fortran-order"),
    ("adam", "read-only"), ("logistic", "bias-in-the-weights"),
    ("logistic", "fortran-order"), ("logistic", "read-only"),
    ("logistic", "one-class")], ids="-".join)
def test_both_backends_refuse_the_same_operands(fault, restore_backend):
    kind, fault = fault
    messages = []
    for backend in ("numpy", "c"):
        kernels.set_backend(backend)
        if kind == "adam":
            p, m, v, g = _adam_operands(fault)
            before = p.copy()
            with pytest.raises(ValueError) as err:
                kernels.bind_adam(p, m, v, 0.9, 0.999, 1e-8)(g, 0.1, 0.1, 0.001)
            assert p.tobytes() == before.tobytes()
        else:
            with pytest.raises(ValueError) as err:
                _bind(*_logistic_operands_with(fault))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def _sweep_operands():
    """A 4-node path 0-1-2-3 in 2 classes, nodes 1 and 2 swept."""
    adjacency = build_graph([(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)),
                            np.zeros(4)).adjacency
    state = np.array([0, 1, 0, 1], dtype=np.int64)
    base_logits = np.array([[0.0, 1.0]] * 4)
    w_rel = np.array([[2.0, 0.0], [0.0, 1.0]])
    return adjacency, state, np.array([1, 2]), base_logits, w_rel, 5


def _strided(state):
    every_other = np.repeat(state, 2)[::2]
    assert not every_other.flags.c_contiguous
    return every_other


def _read_only(state):
    state.flags.writeable = False
    return state


@pytest.mark.parametrize("backend", ["numpy", "c"])
@pytest.mark.parametrize("which, bad, message", [
    (1, lambda s: np.array([0, 2, 0, 1]), "every label must lie in \\[0, 2\\)"),
    (1, lambda s: np.array([0, -1, 0, 1]), "every label must lie"),
    (1, lambda s: s.astype(np.int32), "state must be a writeable"),
    (1, _strided, "state must be a writeable"),
    (1, _read_only, "state must be a writeable"),
    (2, lambda ids: np.array([1, 4]), "unlabeled ids must lie in \\[0, 4\\)"),
    (2, lambda ids: np.array([-1]), "unlabeled ids must lie"),
    (2, lambda ids: np.array([1.0]), "integer node ids"),
    (3, lambda b: b[:3].copy(), "base_logits \\(3, 2\\)"),
    (3, lambda b: b.T.copy(), "base_logits \\(2, 4\\)"),
    (3, lambda b: b.astype(np.float32), "base_logits must be a float64"),
    (4, lambda w: w[:1].copy(), "w_rel \\(1, 2\\)"),
    (5, lambda m: 2.5, "max_iters must be an int >= 1"),
    (5, lambda m: 0, "max_iters must be an int >= 1"),
    (5, lambda m: True, "max_iters must be an int >= 1"),
], ids=["label-high", "label-negative", "state-int32", "state-strided",
        "state-read-only", "id-high", "id-negative", "id-float", "logits-rows", "logits-shape",
        "logits-float32", "w-rel-shape", "max-iters-float", "max-iters-zero",
        "max-iters-bool"])
def test_sweep_refuses_bad_operands_before_it_runs(backend, which, bad,
                                                   message, restore_backend):
    if backend not in kernels.available_backends():
        pytest.skip("C kernel not built")
    kernels.set_backend(backend)
    operands = list(_sweep_operands())
    operands[which] = bad(operands[which])
    state = operands[1]
    before = state.copy()
    with pytest.raises(ValueError, match=message):
        kernels.relabel(*operands)
    assert state.tobytes() == before.tobytes()


@needs_c
@pytest.mark.parametrize("leaves, k", [
    (127, 9), (128, 9), (128, 7), (512, 7), (600, 9)])
def test_compiled_sweep_scores_a_wide_hub_in_c(leaves, k, monkeypatch,
                                               restore_backend):
    # a hub's relational term adds one w_rel row per leaf, and C adds them
    # with no help from the NumPy sweeps at any degree or class count
    n = leaves + 1
    adjacency = build_graph([(0, j) for j in range(1, n)], np.zeros((n, 1)),
                            np.zeros(n)).adjacency
    rng = np.random.default_rng(leaves + k)
    state = rng.integers(0, k, n)
    base_logits, w_rel = rng.standard_normal((n, k)), rng.standard_normal((k, k))
    want = state.copy()
    kernels.set_backend("numpy")
    result = kernels.relabel(adjacency, want, np.arange(n), base_logits,
                             w_rel, 10)
    monkeypatch.setattr(_csr_np, "sweeps", lambda *a: pytest.fail(
        "the compiled sweep called the NumPy sweeps"))
    got = state.copy()
    kernels.set_backend("c")
    assert kernels.relabel(adjacency, got, np.arange(n), base_logits, w_rel,
                           10) == result
    assert got.tobytes() == want.tobytes()


@needs_c
def test_compiled_sweep_reads_a_strided_w_rel_as_numpy_does(restore_backend):
    # w_rel is every other column of a wider array, whose raw memory holds
    # other weights; the C sweep must read the view's values
    n, k = 40, 4
    rng = np.random.default_rng(7)
    edges = [tuple(e) for e in rng.integers(0, n, (120, 2))]
    adjacency = build_graph(edges, np.zeros((n, 1)), np.zeros(n)).adjacency
    state = rng.integers(0, k, n)
    base_logits = rng.standard_normal((n, k))
    wide = rng.standard_normal((k, 2 * k)) * 4.0
    w_rel = wide[:, ::2]
    assert not w_rel.flags.c_contiguous
    kernels.set_backend("numpy")
    want = state.copy()
    result = kernels.relabel(adjacency, want, np.arange(n), base_logits,
                             w_rel.copy(), 10)
    raw = state.copy()
    kernels.relabel(adjacency, raw, np.arange(n), base_logits,
                    wide.reshape(-1)[:k * k].reshape(k, k), 10)
    assert raw.tobytes() != want.tobytes()  # the raw memory scores otherwise
    got = state.copy()
    kernels.set_backend("c")
    assert kernels.relabel(adjacency, got, np.arange(n), base_logits, w_rel,
                           10) == result
    assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(shutil.which(_csr_c.COMPILER) is None, reason="no C compiler")
def test_build_removes_the_libraries_of_earlier_sources(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    keep = ["_csr_c.0123456789abcdef.so.999.tmp",  # another build in flight
            "other.so", "_csr_c.py"]
    for name in ["_csr_c.0123456789abcdef.so", "_csr_c.fedcba9876543210.so",
                 *keep]:
        (cache / name).write_bytes(b"")
    monkeypatch.setattr(_csr_c, "CACHE_DIR", cache)
    assert _csr_c.load() is not None
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [_csr_c.LIB_NAME, *keep])
