"""Each entry point of the compiled kernel, the baseline one and the AVX
one, called directly and held to the NumPy backend byte for byte: the
CSR product, the Adam step, the layers' bias add (with and without
ReLU), column sums and ReLU gradient, and the objective's row passes
(softmax, its gradient, the output logits' gradient and the modularity
operator's rank-one part). Cases reach widths 0 to 40 (0 to 12
for the objective's passes, which run in C from 1 to 7 columns), zero
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


# the objective's row passes: the C widths 1 to 7 and both NumPy sides
OBJECTIVE_WIDTHS = st.integers(0, 12)
ALPHAS = st.sampled_from([0.0, 0.5, 1.0])


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: the shape and bytes of the array it
    returns, or its ValueError's message."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return str(exc)
    return result.shape, result.tobytes()


@SETTINGS
@given(rows=ROWS, width=OBJECTIVE_WIDTHS, data=st.data())
def test_softmax_rows_gives_the_bytes_of_numpy(compiled, rows, width, data):
    m = data.draw(matrix((rows, width)))
    want = _outcome(_csr_np.softmax_rows, m)
    assert _outcome(compiled.softmax_rows, m) == want
    assert isinstance(want, tuple) or width == 0  # no columns, no max


@SETTINGS
@given(rows=ROWS, width=OBJECTIVE_WIDTHS, data=st.data())
def test_softmax_rows_backward_gives_the_bytes_of_numpy(compiled, rows,
                                                        width, data):
    out, g = (data.draw(matrix((rows, width))) for _ in range(2))
    _same(compiled.softmax_rows_backward(out, g),
          _csr_np.softmax_rows_backward(out, g))


@SETTINGS
@given(rows=ROWS, width=OBJECTIVE_WIDTHS, alpha=ALPHAS,
       scored=st.booleans(), data=st.data())
def test_output_delta_gives_the_bytes_of_numpy(compiled, rows, width, alpha,
                                               scored, data):
    z, onehot = (data.draw(matrix((rows, width))) for _ in range(2))
    train = data.draw(arrays(np.bool_, (rows,), elements=st.booleans(),
                             fill=st.nothing()))
    grad_q = data.draw(matrix((rows, width))) if scored else None
    _same(compiled.output_delta(z, onehot, train, alpha, grad_q),
          _csr_np.output_delta(z, onehot, train, alpha, grad_q))


@SETTINGS
@given(rows=ROWS, width=OBJECTIVE_WIDTHS, data=st.data())
def test_subtract_outer_gives_the_bytes_of_numpy(compiled, rows, width,
                                                 data):
    m = data.draw(matrix((rows, width)))
    u, v = data.draw(matrix((rows,))), data.draw(matrix((width,)))
    d = data.draw(st.sampled_from([2.0, 10556.0, 5e-324, 1e300, -3.0]))
    want, got = m.copy(), m.copy()
    assert _csr_np.subtract_outer(want, u, v, d) is want
    assert compiled.subtract_outer(got, u, v, d) is got
    _same(got, want)


@pytest.mark.parametrize("width", range(1, 13))
def test_a_negative_nan_first_in_a_row_gives_the_bytes_of_numpy(compiled,
                                                                width):
    # a row's max is its first NaN; at a negative NaN first NumPy's own
    # max would return a positive one (see _csr_np.row_max)
    rng = np.random.default_rng(width)
    m = rng.standard_normal((4, width))
    m[0, 0] = DEFAULT_NAN
    m[1, -1] = DEFAULT_NAN
    m[2] = [math.inf, -math.inf, *([0.0] * (width - 2))][:width]
    out = _csr_np.softmax_rows(m)
    assert math.isnan(out[0, 0]) and np.signbit(out[0, 0])
    _same(compiled.softmax_rows(m), out)
    train = np.array([True, False, True, True])
    for backend in (_csr_np, compiled):
        _same(backend.softmax_rows_backward(out, m),
              _csr_np.softmax_rows_backward(out, m))
        _same(backend.output_delta(out, m, train, 0.5, m),
              _csr_np.output_delta(out, m, train, 0.5, m))


@pytest.mark.parametrize("width", [3, 7, 9])
def test_output_delta_at_alpha_one_keeps_the_sign_of_zero(compiled, width):
    # (1 - 1) * (z - y) is -0.0 where z < y, and (1 - 1) * 0.0 is +0.0
    z = np.full((2, width), 0.25)
    onehot = np.zeros((2, width))
    onehot[:, 0] = 1.0
    train = np.array([True, False])
    for backend in (_csr_np, compiled):
        delta = backend.output_delta(z, onehot, train, 1.0)
        assert np.signbit(delta[0, 0]) and not np.signbit(delta[0, 1])
        assert not np.signbit(delta[1]).any() and not delta.any()


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
    "softmax_rows":  # inf - inf in the shift
        lambda b: (b.softmax_rows(np.array([[math.inf, 0.0, -math.inf],
                                            [1.0, 2.0, 3.0]])),),
    "softmax_rows_backward": lambda b: (b.softmax_rows_backward(BIG, BIG),),
    "output_delta": lambda b: (b.output_delta(BIG, -BIG, np.ones(2, bool),
                                              0.5),),
    "output_delta-modularity":
        lambda b: (b.output_delta(BIG, BIG, np.ones(2, bool), 0.5, BIG),),
    "subtract_outer": lambda b: (b.subtract_outer(
        np.zeros((2, 3)), np.full(2, 1e308), np.full(3, 1e308), 1.0),),
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
    ("softmax_rows", (np.zeros(3),), "m must be a 2-D float64"),
    ("softmax_rows", (np.zeros((2, 3), np.float32),), "m must be a 2-D"),
    ("softmax_rows_backward", (np.zeros((2, 3)), np.zeros((3, 2))),
     "out and grad_out must have one shape"),
    ("output_delta", (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), 0.5),
     "rows must be a 1-D bool array of 2"),
    ("output_delta", (np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3, bool),
                      0.5), "rows must be a 1-D bool array of 2"),
    ("output_delta", (np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2, bool),
                      0.5, np.zeros((3, 2))), "one shape"),
    ("subtract_outer", (np.zeros((3, 2)).T, np.zeros(2), np.zeros(3), 2.0),
     "m must be a C"),
    ("subtract_outer", (np.zeros((2, 3)), np.zeros(3), np.zeros(3), 2.0),
     "u must hold 2 entries"),
    ("subtract_outer", (np.zeros((2, 3)), np.zeros(2), np.zeros((1, 3)),
                        2.0), "v must be a C"),
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


def test_subtract_outer_refuses_a_vector_inside_m(compiled):
    m = np.zeros((3, 2))
    for backend in (_csr_np, compiled):
        with pytest.raises(ValueError, match="v must not share memory "
                                             "with m"):
            backend.subtract_outer(m, np.zeros(3), m[1], 2.0)


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
