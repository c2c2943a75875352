"""Each entry point of the compiled kernel, the baseline one and the AVX
one, called directly and held to the NumPy backend byte for byte: the
CSR product, the Adam step, and the layers' bias add (with and without
ReLU), column sums and ReLU gradient. Cases reach widths 0 to 40, zero
rows, signed zeros, NaN, infinities and subnormals, and neither backend
warns of an overflow or an invalid operation. The AVX half skips, with
its reason, on a CPU without AVX (needs the `test` extras)."""

import math
import re
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from modgcn import kernels  # noqa: E402
from modgcn.kernels import _csr_c, _csr_np  # noqa: E402
from modgcn.optim import BETA1, BETA2, EPS  # noqa: E402
from modgcn.sparse import CsrMatrix  # noqa: E402

# The NaN that this machine's arithmetic makes (inf - inf). Where both
# operands of an addition are NaNs with other bits, which one survives
# follows the operand order a compiler picks, in NumPy's loops as in C,
# and the order differs between NumPy's own SIMD and scalar loops. With
# one NaN in play, as in training, where every NaN comes from arithmetic,
# a NaN's bits are fixed.
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = float(np.float64(np.inf) - np.inf)
# every kind of entry that can move a bit
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, DEFAULT_NAN, 5e-324, -5e-324,
               2.2e-308, 1e300, -1e300]
ENTRIES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-50.0, 50.0))
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300]),
                   st.floats(-50.0, 50.0))
ROWS = st.integers(0, 6)
WIDTHS = st.integers(0, 40)
SETTINGS = settings(max_examples=80, deadline=None, database=None,
                    derandomize=True)


def matrix(shape, elements=ENTRIES):
    return arrays(np.float64, shape, elements=elements, fill=st.nothing())


@pytest.fixture(scope="module", params=_csr_c.ISAS)
def compiled(request):
    """The compiled kernel with the entry points of one instruction set."""
    loaded = kernels._BACKENDS.get("c")
    if loaded is None:
        pytest.skip("C kernel not built")
    if request.param not in loaded.supported:
        pytest.skip(f"this CPU runs only the {list(loaded.supported)} entry "
                    f"points, not {request.param!r}")
    return _csr_c.CompiledKernel(_csr_c.CACHE_DIR / _csr_c.LIB_NAME,
                                 request.param)


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def products(draw):
    """(A, x, out): a CSR matrix with empty rows, an operand and a start."""
    n_rows, n_cols, width = draw(ROWS), draw(st.integers(0, 8)), draw(WIDTHS)
    values = draw(matrix((n_rows, n_cols)))
    stored = draw(arrays(np.bool_, (n_rows, n_cols), elements=st.booleans(),
                         fill=st.nothing()))
    dense = np.where(stored & (values != 0.0), values, 0.0)
    rows, cols = np.nonzero(dense)
    m = CsrMatrix.from_coo(n_rows, n_cols, rows, cols, dense[rows, cols])
    return (m, draw(matrix((n_cols, width))), draw(matrix((n_rows, width))))


@SETTINGS
@given(case=products())
def test_spmm_gives_the_bytes_of_numpy(compiled, case):
    m, x, start = case
    arrays_ = (m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values)
    want, got = start.copy(), start.copy()
    _csr_np.bind_csr(*arrays_).add(x, want)
    compiled.bind_csr(*arrays_).add(x, got)
    _same(got, want)


@SETTINGS
@given(n=st.integers(0, 40), data=st.data())
def test_adam_gives_the_bytes_of_numpy(compiled, n, data):
    p, m = data.draw(matrix((n,), FINITE)), data.draw(matrix((n,), FINITE))
    v = np.abs(data.draw(matrix((n,), FINITE)))
    g = data.draw(matrix((n,), st.one_of(FINITE, st.sampled_from(
        [math.inf, DEFAULT_NAN]))))
    t = data.draw(st.integers(1, 3))
    outcomes = []
    for backend in (_csr_np, compiled):
        state = [p.copy(), m.copy(), v.copy()]
        step = backend.bind_adam(*state, BETA1, BETA2, EPS)
        try:
            step(g, 0.01, 1.0 - BETA1 ** t, 1.0 - BETA2 ** t)
            error = None
        except ValueError as exc:
            error = str(exc)
        outcomes.append([error, *(a.tobytes() for a in state)])
    assert outcomes[0] == outcomes[1]


@SETTINGS
@given(rows=ROWS, width=WIDTHS, relu=st.booleans(), data=st.data())
def test_add_bias_gives_the_bytes_of_numpy(compiled, rows, width, relu, data):
    pre = data.draw(matrix((rows, width)))
    bias = data.draw(matrix((1, width)))
    want_pre, got_pre = pre.copy(), pre.copy()
    want = _csr_np.add_bias(want_pre, bias, relu)
    got = compiled.add_bias(got_pre, bias, relu)
    _same(got_pre, want_pre)
    # in place, with ReLU as without
    assert want is want_pre and got is got_pre


@SETTINGS
@given(rows=ROWS, width=WIDTHS, data=st.data())
def test_column_sums_give_the_bytes_of_numpy(compiled, rows, width, data):
    m = data.draw(matrix((rows, width)))
    want = _csr_np.column_sums(m)
    with np.errstate(all="ignore"):
        _same(want, m.sum(axis=0, keepdims=True))
    _same(compiled.column_sums(m), want)


@SETTINGS
@given(rows=ROWS, width=WIDTHS, data=st.data())
def test_relu_backward_gives_the_bytes_of_numpy(compiled, rows, width, data):
    g, out = (data.draw(matrix((rows, width))) for _ in range(2))
    _same(compiled.relu_backward(g, out), _csr_np.relu_backward(g, out))


@SETTINGS
@given(rows=ROWS, width=WIDTHS, data=st.data())
def test_relu_backward_reads_the_mask_of_pre_from_the_output(compiled, rows,
                                                             width, data):
    # ReLU's output is above zero exactly where its pre-activation is,
    # signed zeros, NaN, infinities and subnormals included
    g, pre = (data.draw(matrix((rows, width))) for _ in range(2))
    out = np.maximum(pre, 0.0)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        want = g * (pre > 0.0)
    for backend in (_csr_np, compiled):
        _same(backend.relu_backward(g, out), want)


BIG = np.full((2, 3), 1e308)


def _adam_overflow(backend):
    p, m, v = np.zeros(3), np.zeros(3), np.zeros(3)
    backend.bind_adam(p, m, v, BETA1, BETA2, EPS)(
        np.full(3, 1e300), 0.01, 1.0 - BETA1, 1.0 - BETA2)  # g * g overflows
    return p, m, v


def _product_overflow(backend):
    m = CsrMatrix.from_dense(BIG[:, :2])
    return (backend.bind_csr(m.n_rows, m.n_cols, m.row_offsets,
                             m.col_indices, m.values)(BIG[:2]),)


# each overflows, or makes inf * 0.0, in a NumPy-backend op, and returns
# the arrays it made or changed
OVERFLOWS = {
    "add_bias": lambda b: (b.add_bias(BIG.copy(), BIG[:1].copy()),),
    "add_bias-relu":
        lambda b: (b.add_bias(BIG.copy(), BIG[:1].copy(), relu=True),),
    "relu_backward":
        lambda b: (b.relu_backward(np.full((2, 3), math.inf),
                                   np.zeros((2, 3))),),
    "column_sums": lambda b: (b.column_sums(BIG),),
    "column_sums-one-column": lambda b: (b.column_sums(BIG[:, :1].copy()),),
    "product": _product_overflow,
    "adam": _adam_overflow,
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_gives_the_same_bytes_without_a_warning(compiled, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, got = OVERFLOWS[case](_csr_np), OVERFLOWS[case](compiled)
    assert not all(np.isfinite(a).all() for a in want)  # the case overflows
    for w, g in zip(want, got, strict=True):
        _same(g, w)


@pytest.mark.parametrize("rows", [2708, 20000])
@pytest.mark.parametrize("width", [1, 2, 7, 16, 33])
def test_column_sums_of_tall_matrices_give_the_bytes_of_numpy(compiled,
                                                              rows, width):
    rng = np.random.default_rng(rows + width)
    m = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
        -8, 8, (rows, width))
    _same(compiled.column_sums(m), m.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("op, args, message", [
    ("add_bias", (np.zeros((2, 3)).T, np.zeros((1, 2))), "pre must be a C"),
    ("add_bias", (np.zeros((2, 3)), np.zeros((1, 2))), "bias must have shape"),
    ("add_bias", (np.zeros((2, 3)), np.zeros(3)), "bias must be a C"),
    ("column_sums", (np.zeros(3),), "m must be a C"),
    ("relu_backward", (np.zeros((2, 3)), np.zeros((3, 2))), "one shape"),
    ("relu_backward", (np.zeros((2, 3)), np.zeros((2, 3), np.float32)),
     "out must be a C"),
])
def test_row_passes_refuse_the_same_operands(compiled, op, args, message):
    for backend in (_csr_np, compiled):
        with pytest.raises(ValueError, match=message):
            getattr(backend, op)(*args)


def test_add_bias_refuses_a_bias_inside_pre(compiled):
    pre = np.zeros((3, 2))
    for backend in (_csr_np, compiled):
        with pytest.raises(ValueError, match="bias must not share memory "
                                             "with pre"):
            backend.add_bias(pre, pre[1:2], relu=True)


def test_the_kernel_runs_the_widest_entry_points_the_cpu_has():
    loaded = kernels._BACKENDS.get("c")
    if loaded is None:
        pytest.skip("C kernel not built")
    assert loaded.supported[0] == "baseline"
    assert kernels.compiled_isa() == loaded.isa == loaded.supported[-1]
    missing = [isa for isa in _csr_c.ISAS if isa not in loaded.supported]
    for isa in [*missing, "avx2"]:
        with pytest.raises(ValueError, match="not available here"):
            _csr_c.CompiledKernel(_csr_c.CACHE_DIR / _csr_c.LIB_NAME, isa)


def test_source_names_no_target_but_avx():
    # FMA or AVX2 would move bits or, measured, run slower; a target
    # attribute is the only way the source selects an instruction set
    assert re.findall(r'target\s*\(\s*"([^"]*)"', _csr_c.SOURCE) == ["avx"]
    assert "__x86_64__" in _csr_c.SOURCE
