"""Property-based tests: kernels against dense oracles, and exact round
trips of the results CSV and of checkpoints (need the `test` extras)."""

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
from modgcn.harness import (MODEL_ORDER, RunResult, read_results_csv,  # noqa: E402
                            write_results_csv)
from modgcn.model import (ENCODERS, VARIANTS, ModelSpec, build_model,  # noqa: E402
                          load_checkpoint, save_checkpoint)
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
    variant = draw(st.sampled_from(VARIANTS))
    return ModelSpec(encoder=draw(st.sampled_from(ENCODERS)),
                     cheb_order=draw(st.integers(0, 3)), variant=variant,
                     hidden_dim=draw(st.integers(1, 6)), alpha=draw(UNIT),
                     k_aux=draw(st.integers(0, 4)),
                     epochs=draw(st.integers(0, 10**6)),
                     lr=draw(st.floats(1e-300, 1e3)),
                     seed=draw(st.integers(0, 2**31)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model_specs(), st.data())
def test_checkpoint_round_trip_is_bitwise(spec, data):
    model = build_model(spec, two_cliques_graph())
    # any float64 bit pattern must survive: nan, inf, -0.0, subnormals
    model.set_params({
        name: data.draw(arrays(np.float64, p.shape, elements=st.floats()),
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
