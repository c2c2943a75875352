"""Property-based tests: the CSR operations and kernels against dense
oracles, the CSR feature parse and row normalisation against their dense
forms, the softmax's class-axis reductions against NumPy's bits, ICA's
stale-node sweeps against full sweeps, and exact round trips of the
results CSV, of checkpoints and of the graph cache's features (need the
`test` extras)."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import two_cliques_graph  # noqa: E402
from modgcn import kernels  # noqa: E402
from modgcn.datasets import (DatasetSource, load_graph_cache,  # noqa: E402
                             load_linqs, preprocess_features,
                             save_graph_cache)
from modgcn.harness import (MODEL_ORDER, RunResult, read_results_csv,  # noqa: E402
                            write_results_csv)
from modgcn.ica import relabel  # noqa: E402
from modgcn.layers import (row_max, row_sum, softmax_rows,  # noqa: E402
                           softmax_rows_backward)
from modgcn.model import (ENCODERS, VARIANTS, ModelSpec, build_model,  # noqa: E402
                          load_checkpoint, save_checkpoint)
from modgcn.sparse import CsrMatrix, build_graph, sparse_add  # noqa: E402

# small exact values, so duplicates can cancel to exact zeros and every
# sum below is exact
VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
DIMS = st.integers(0, 7)  # 0 gives 0 x n and n x 0 shapes


def every_element(dtype, shape, elements):
    """An array strategy that draws each element: under ``arrays``' default
    fill most of an array repeats one value, which the checks below would
    then hardly exercise."""
    return arrays(dtype, shape, elements=elements, fill=st.nothing())


@st.composite
def coo_matrix(draw, n_rows, n_cols):
    """A CsrMatrix.from_coo of triplets with duplicates, duplicates that
    cancel, stored zeros and empty rows, with its dense np.add.at oracle."""
    entries = []
    if n_rows and n_cols:
        entries = draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                          st.integers(0, n_cols - 1), VALUES),
                                max_size=25))
        # repeat a prefix negated: duplicates that must sum to zero and drop
        entries += [(r, c, -v) for r, c, v in entries[:draw(st.integers(0, len(entries)))]]
        entries = draw(st.permutations(entries))
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    dense = np.zeros((n_rows, n_cols))
    np.add.at(dense, (rows, cols), vals)
    return CsrMatrix.from_coo(n_rows, n_cols, rows, cols, vals), dense


@st.composite
def coo_and_operand(draw):
    n_rows, n_cols = draw(DIMS), draw(DIMS)
    m, dense = draw(coo_matrix(n_rows, n_cols))
    x = draw(every_element(np.float64, (n_cols, draw(st.integers(0, 20))),
                           st.floats(-1.0, 1.0)))
    return m, dense, x


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coo_and_operand())
def test_every_backend_matches_dense_product(case):
    m, dense, x = case
    m.validate()
    previous = kernels.backend_name()
    try:
        for name in kernels.available_backends():
            kernels.set_backend(name)
            got = kernels.csr_dense_matmul(m.n_rows, m.n_cols, m.row_offsets,
                                           m.col_indices, m.values, x)
            np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12)
    finally:
        kernels.set_backend(previous)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coo_and_operand())
def test_from_coo_is_canonical_and_sums_duplicates(case):
    m, dense, _ = case
    m.validate()
    assert m.shape == dense.shape
    assert m.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(m.to_dense(), dense)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coo_and_operand())
def test_transpose_matches_dense_transpose(case):
    m, dense, _ = case
    m.T.validate()
    assert m.T.shape == dense.T.shape
    np.testing.assert_array_equal(m.T.to_dense(), dense.T)


@st.composite
def matrix_pair(draw):
    n_rows, n_cols = draw(DIMS), draw(DIMS)
    a, dense_a = draw(coo_matrix(n_rows, n_cols))
    # b is sometimes a itself, so that ca = -cb cancels every entry
    b, dense_b = draw(st.one_of(st.just((a, dense_a)),
                                coo_matrix(n_rows, n_cols)))
    return a, dense_a, b, dense_b, draw(VALUES), draw(VALUES)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(matrix_pair())
def test_sparse_add_is_canonical_and_matches_dense(case):
    a, dense_a, b, dense_b, ca, cb = case
    got = sparse_add(a, b, ca, cb)
    got.validate()
    assert got.shape == dense_a.shape
    np.testing.assert_array_equal(got.to_dense(), ca * dense_a + cb * dense_b)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coo_and_operand())
def test_dot_matches_dense_product(case):
    m, dense, x = case
    got = m.dot(x)
    assert got.shape == (m.n_rows, x.shape[1])
    np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12)
    # a vector operand takes the same path as one column
    v = x[:, 0] if x.shape[1] else np.ones(m.n_cols)
    np.testing.assert_allclose(m.dot(v), dense @ v, rtol=1e-12, atol=1e-12)


# attribute matrices as LINQS files hold them: bag-of-words rows of 0/1
# or of small counts, mostly zeros of either sign
BINARY = st.sampled_from([0.0, 0.0, -0.0, 1.0])
COUNTS = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, 2.0, 3.0, 7.0])
# non-integer attributes, far enough from the underflow range that no
# normalised entry rounds to zero
REALS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e3),
                  st.floats(-1e3, -1e-3))
ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def attribute_matrices(draw, elements):
    """An (n, C) attribute matrix whose drawn rows include an empty row and
    a long one, with every one of its C columns set."""
    n_rows, n_cols = draw(st.integers(2, 6)), draw(st.integers(1, 20))
    m = draw(every_element(np.float64, (n_rows, n_cols), elements))
    empty, long = draw(st.permutations(range(n_rows)))[:2]
    m[empty] = draw(every_element(np.float64, n_cols, ZEROS))
    m[long] = np.where(m[long] == 0.0, 1.0, m[long])
    return m


def dense_row_normalize(x):
    """Row normalisation as it was done on the dense matrix."""
    norms = np.abs(x).sum(axis=1, keepdims=True)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return x * scale


def parse_both_ways(m):
    """(CSR parse, then row normalisation, densified; dense parse, then
    dense row normalisation) of ``m`` written as LINQS tokens."""
    tokens = [[repr(v) for v in row] for row in m.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        content, cites = Path(tmp) / "m.content", Path(tmp) / "m.cites"
        content.write_text("".join(
            f"n{i}\t" + "\t".join(row) + f"\tc{i % 2}\n"
            for i, row in enumerate(tokens)))
        cites.write_text("")
        parsed = load_linqs(DatasetSource(content, cites, "m"))
    parsed.feature_csr.validate()
    normalised = preprocess_features(parsed)
    normalised.feature_csr.validate()
    dense = np.empty(m.shape)
    for i, row in enumerate(tokens):
        dense[i] = row  # numpy's parse of a row of tokens
    # -0 is not stored, so it reads back as +0.0; adding +0.0 makes every
    # -0.0 of the dense forms +0.0 and leaves every other bit as it is
    return (parsed.features, normalised.features,
            dense + 0.0, dense_row_normalize(dense) + 0.0)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.one_of(attribute_matrices(BINARY), attribute_matrices(COUNTS)))
def test_csr_parse_and_row_normalize_match_the_dense_oracle(m):
    # integer-valued rows: every order of summing a row's norm is exact
    parsed, normalised, want_parsed, want_normalised = parse_both_ways(m)
    _same(parsed, want_parsed)
    _same(normalised, want_normalised)


# Both norms sum at most 20 positive terms, so each is within 19 units of
# roundoff of the exact sum, whatever the order; the reciprocal and the
# product add one rounding each. 1e-14 bounds what that can reach.
NON_INTEGER_RTOL = 1e-14


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(attribute_matrices(REALS))
def test_non_integer_row_normalize_is_within_roundoff_of_the_dense_oracle(m):
    parsed, normalised, want_parsed, want_normalised = parse_both_ways(m)
    _same(parsed, want_parsed)
    np.testing.assert_array_equal(normalised != 0.0, want_normalised != 0.0)
    np.testing.assert_allclose(normalised, want_normalised,
                               rtol=NON_INTEGER_RTOL, atol=0.0)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.one_of(attribute_matrices(COUNTS), attribute_matrices(REALS),
                 attribute_matrices(st.floats())))
def test_feature_csr_cache_round_trip_is_bitwise(m):
    # any float64 bit pattern that is stored must survive: nan, inf,
    # subnormals
    g = build_graph([], m, np.arange(len(m)) % 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.npz"
        save_graph_cache(g, path)
        back = load_graph_cache(path).feature_csr
    want = g.feature_csr
    assert back.shape == want.shape
    for name in ("row_offsets", "col_indices", "values"):
        _same(getattr(back, name), getattr(want, name))


UNIT = st.floats(0.0, 1.0)
COUNT = st.integers(0, 2**62)


@st.composite
def run_results(draw):
    accuracy = draw(st.one_of(UNIT, st.just(float("nan"))))
    return RunResult(draw(st.sampled_from(MODEL_ORDER)),
                     draw(st.sampled_from(VARIANTS)), draw(UNIT),
                     draw(COUNT), draw(COUNT), draw(COUNT), accuracy,
                     draw(COUNT), failed=math.isnan(accuracy))


def _exact(r: RunResult) -> tuple:
    # repr tells nan from nan and -0.0 from 0.0, which == does not
    return (r.model_name, r.variant, repr(r.alpha), r.labels_per_class,
            r.run_index, r.split_seed, repr(r.test_accuracy), r.epochs_run,
            r.final_losses, r.failed, r.note)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.lists(run_results(), max_size=12))
def test_results_csv_round_trip_is_exact(runs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_results_csv(path, runs)
        back = read_results_csv(path)
    assert [_exact(r) for r in back] == [_exact(r) for r in runs]


@st.composite
def model_specs(draw):
    """Valid specs only: alpha, k_aux and lambda_max keep their defaults
    where the run would ignore them."""
    variant = draw(st.sampled_from(VARIANTS))
    encoder = draw(st.sampled_from(ENCODERS))
    return ModelSpec(encoder=encoder,
                     cheb_order=draw(st.integers(0, 3)), variant=variant,
                     hidden_dim=draw(st.integers(1, 6)),
                     alpha=0.0 if variant == "plain" else draw(UNIT),
                     k_aux=draw(st.integers(0, 4)) if variant == "aux" else 0,
                     epochs=draw(st.integers(0, 10**6)),
                     lr=draw(st.floats(1e-300, 1e3)),
                     seed=draw(st.integers(0, 2**31)),
                     lambda_max=draw(st.one_of(st.none(),
                                               st.floats(1e-3, 1e3)))
                     if encoder == "chebnet" else None)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model_specs(), st.data())
def test_checkpoint_round_trip_is_bitwise(spec, data):
    model = build_model(spec, two_cliques_graph())
    # any float64 bit pattern must survive: nan, inf, -0.0, subnormals
    model.set_params({
        name: data.draw(every_element(np.float64, p.shape, st.floats()),
                        label=name)
        for name, p in model.params().items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        loaded_spec, arrays_back = load_checkpoint(path)
    assert loaded_spec == spec
    params = model.params()
    assert list(arrays_back) == list(params)
    for name, value in params.items():
        assert arrays_back[name].shape == value.shape
        assert arrays_back[name].tobytes() == value.tobytes()


# The class-axis reductions against NumPy's own: every entry kind that can
# change a bit (signed zeros, infinities, nan, subnormals, overflow-sized
# magnitudes), at widths on both sides of NumPy's 8-column switch. Inputs
# carry the positive default nan (a leading negative nan is the one case
# row_max documents); negative nans still arise inside the softmax
# (inf - inf), which the reference comparisons cover.
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1e300, -1e300, 1e-300, -1e-300]
ENTRIES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-50.0, 50.0))


def softmax_reference(m):
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward_reference(out, grad_out):
    return out * (grad_out - np.sum(grad_out * out, axis=1, keepdims=True))


@st.composite
def class_matrices(draw, shape=None):
    """A float64 matrix, C-ordered or, half the time, a transposed view."""
    if shape is None:
        # widths reach past the 8-column switch; every entry is drawn, so
        # the shapes stay small
        shape = (draw(st.integers(0, 10)), draw(st.integers(0, 12)))
    if draw(st.booleans()):
        return draw(every_element(np.float64, shape, ENTRIES))
    return draw(every_element(np.float64, shape[::-1], ENTRIES)).T


def cora_shaped(seed):
    """2708 x 7 logits with every edge value sprinkled in."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2708, 7)) * 10.0 ** rng.integers(-3, 4, (2708, 7))
    spots = rng.random(m.shape) < 0.05
    m[spots] = rng.choice(EDGE_VALUES, size=int(spots.sum()))
    return m


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_row_reductions(m):
    _same(row_sum(m), m.sum(axis=1, keepdims=True))
    if m.shape[1] == 0:
        with pytest.raises(ValueError):
            m.max(axis=1)
        with pytest.raises(ValueError):
            row_max(m)
    else:
        _same(row_max(m), m.max(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(class_matrices())
def test_row_reductions_match_numpy_bitwise(m):
    with np.errstate(all="ignore"):
        _check_row_reductions(m)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(class_matrices())
def test_softmax_rows_matches_the_reference_bitwise(m):
    with np.errstate(all="ignore"):
        if m.shape[1] == 0:
            with pytest.raises(ValueError):
                softmax_rows(m)
        else:
            _same(softmax_rows(m), softmax_reference(m))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_softmax_rows_backward_matches_the_reference_bitwise(data):
    out = data.draw(class_matrices(), label="out")
    grad = data.draw(class_matrices(out.shape), label="grad_out")
    with np.errstate(all="ignore"):
        _same(softmax_rows_backward(out, grad),
              softmax_backward_reference(out, grad))


@pytest.mark.parametrize("seed", [0, 1])
def test_class_axis_reductions_on_a_cora_shaped_output(seed):
    m, grad = cora_shaped(seed), cora_shaped(seed + 100)
    with np.errstate(all="ignore"):
        _check_row_reductions(m)
        out = softmax_rows(m)
        _same(out, softmax_reference(m))
        _same(softmax_rows_backward(out, grad),
              softmax_backward_reference(out, grad))


def full_sweeps(adjacency, state, unlabeled, base_logits, w_rel, max_iters):
    """ICA's sweeps re-scoring every unlabeled node on every sweep, in place
    on ``state``; returns the number of sweeps made."""
    offsets, cols = adjacency.row_offsets, adjacency.col_indices
    k = w_rel.shape[0]
    for sweep in range(max_iters):
        changed = 0
        for i in unlabeled:
            nbr_labels = state[cols[offsets[i]:offsets[i + 1]]]
            counts = np.bincount(nbr_labels[nbr_labels >= 0], minlength=k)
            new = int(np.argmax(base_logits[i] + counts @ w_rel))
            if new != state[i]:
                state[i] = new
                changed += 1
        if changed == 0:
            return sweep + 1
    return max_iters


@st.composite
def sweep_inputs(draw):
    """A small graph, a full labelling, the nodes to sweep, and logits and
    weights drawn from few values, so that ties and flips are common.

    Every element is drawn, and at least 10 edges (self-loops drop out):
    sparse or near-constant inputs hardly ever flip a label twice, and then
    cannot tell a correct stale-flag sweep from a wrong one."""
    def each(dtype, shape, elements):
        return draw(every_element(dtype, shape, elements))

    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=10, max_size=60))
    adjacency = build_graph(edges, np.zeros((n, 1)), np.zeros(n)).adjacency
    logits = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    return (adjacency, each(np.int64, n, st.integers(0, k - 1)),
            np.flatnonzero(each(np.bool_, n, st.booleans())),
            each(np.float64, (n, k), logits), each(np.float64, (k, k), logits),
            draw(st.integers(1, 10)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(sweep_inputs())
def test_stale_node_sweeps_match_full_sweeps(inputs):
    adjacency, state, unlabeled, base_logits, w_rel, max_iters = inputs
    want = state.copy()
    iterations = full_sweeps(adjacency, want, unlabeled, base_logits, w_rel,
                             max_iters)
    got = state.copy()
    assert relabel(adjacency, got, unlabeled, base_logits, w_rel,
                   max_iters)[0] == iterations
    _same(got, want)


def test_node_marked_earlier_in_a_sweep_is_visited_in_it():
    # a star: node 0 joined to nodes 1 and 2, all unlabeled, all in class 0.
    # Sweep 1 flips only node 2, so node 1 starts sweep 2 clean. Sweep 2
    # flips node 0 first, and node 1 must be re-scored in that same sweep,
    # where it flips too; deferred to sweep 3, the run takes 4 sweeps.
    adjacency = build_graph([(0, 1), (0, 2)], np.zeros((3, 1)),
                            np.zeros(3)).adjacency
    base_logits = np.array([[0.0, -1.0], [1.0, 1.0], [-2.0, 1.0]])
    w_rel = np.array([[1.0, 1.0], [-2.0, 2.0]])
    state = np.zeros(3, dtype=np.int64)
    want = state.copy()
    assert full_sweeps(adjacency, want, np.arange(3), base_logits, w_rel,
                       10) == 3
    # sweep 3 visits only node 0, which node 1's flip marked
    assert relabel(adjacency, state, np.arange(3), base_logits, w_rel,
                   10) == (3, True, 7)
    _same(state, want)
    np.testing.assert_array_equal(state, [1, 1, 1])
