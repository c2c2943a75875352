"""ICA protocol behavior on hand-traceable fixtures."""

import logging
import re

import numpy as np
import pytest

from conftest import sequential_spmm, two_cliques_graph
from modgcn.ica import (IcaConfig, _classifier_input, _onehot,
                        _train_logistic, ica_train_predict,
                        neighbor_label_counts)
from modgcn.layers import DenseLayer
from modgcn.optim import AdamState, adam_step
from modgcn.sparse import CsrMatrix, build_graph


class TestConfig:
    def test_defaults(self):
        cfg = IcaConfig()
        assert cfg.max_iters == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            IcaConfig(max_iters=0)
        with pytest.raises(ValueError):
            IcaConfig(lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("l2", float("nan")), ("l2", float("inf")), ("lr", float("nan")),
        ("lr", float("inf")), ("max_iters", 2.5), ("max_iters", True),
        ("epochs", 200.0), ("epochs", False)])
    def test_non_finite_or_non_integer_value_names_its_field(self, field,
                                                             value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            IcaConfig(**{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = IcaConfig(max_iters=np.int64(3), epochs=np.int32(5))
        assert (cfg.max_iters, cfg.epochs) == (3, 5)


class TestNeighborCounts:
    def test_counts_only_known_labels(self):
        g = two_cliques_graph()
        labels = np.full(8, -1)
        labels[0] = 0
        labels[4] = 1
        counts = neighbor_label_counts(g, labels)
        # nodes 1 and 2 see exactly the one known clique-1 label
        np.testing.assert_array_equal(counts[1], [1.0, 0.0])
        np.testing.assert_array_equal(counts[2], [1.0, 0.0])
        # node 3 also bridges to node 4, whose label is known
        np.testing.assert_array_equal(counts[3], [1.0, 1.0])
        np.testing.assert_array_equal(counts[5], [0.0, 1.0])
        # node 0's own label does not count for itself
        np.testing.assert_array_equal(counts[0], [0.0, 0.0])


def _sigmoid(z):
    """0.5 * (1 + tanh(0.5 * z)), which stays finite for large |z|."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def dense_layer_logistic(x, y_onehot, cfg, seed, layer_id):
    """The local classifier's training loop driven by ``DenseLayer``'s own
    forward and backward_from_pre, input gradient included."""
    layer = DenseLayer.create(x.shape[1], y_onehot.shape[1], "identity",
                              seed, layer_id)
    params = dict(layer.param_items("clf"))
    state = AdamState.create(params, lr=cfg.lr)
    for _ in range(cfg.epochs):
        _, cache = layer.forward(x)
        grad_pre = (_sigmoid(cache.pre) - y_onehot) / x.shape[0]
        _, (grad_w, grad_b) = layer.backward_from_pre(cache, grad_pre)
        if cfg.l2 > 0:
            grad_w = grad_w + cfg.l2 * layer.weight
        adam_step(state, params, dict(zip(params, (grad_w, grad_b), strict=True)))
    return layer


def sequential_steps(x, y, params, state, l2, epochs):
    """``epochs`` of the local classifier's steps on a CsrMatrix ``x``, in
    place on ``params`` (the weights, then the bias) and their Adam
    ``state``, its two products summed one stored entry at a time, as
    every kernel backend must sum them."""
    def product(m, w):
        return sequential_spmm(m.row_offsets, m.col_indices, m.values, w,
                               np.zeros((m.n_rows, w.shape[1])))

    (w_name, weight), (b_name, bias) = params.items()
    for _ in range(epochs):
        pre = product(x, weight) + bias
        grad_pre = (_sigmoid(pre) - y) / x.n_rows
        grad_w = product(x.T, grad_pre)
        if l2 > 0:
            grad_w = grad_w + l2 * weight
        grad_b = grad_pre.sum(axis=0, keepdims=True)
        adam_step(state, params, {w_name: grad_w, b_name: grad_b})


def sequential_logistic(x, y_onehot, cfg, seed, layer_id):
    """The local classifier's training loop on every column of ``x``."""
    layer = DenseLayer.create(x.n_cols, y_onehot.shape[1], "identity",
                              seed, layer_id)
    params = dict(layer.param_items("clf"))
    sequential_steps(x, y_onehot, params, AdamState.create(params, cfg.lr),
                     cfg.l2, cfg.epochs)
    return layer


class TestLogistic:
    @pytest.mark.parametrize("epochs, l2", [(5, 0.0), (20, 0.0), (20, 0.01)])
    def test_weights_equal_the_dense_layer_loop(self, epochs, l2):
        # the relational classifier's input: attributes || neighbor counts,
        # its rows in an order other than the graph's. The weights equal the
        # loop that sums each product in stored order byte for byte, and
        # the dense layer's loop, which BLAS sums in its own order, to
        # within roundoff.
        g = two_cliques_graph(scale=3.0)
        ids = np.array([5, 0, 7, 2, 4, 1, 6, 3])
        x = _classifier_input(g, ids, neighbor_label_counts(g, g.labels)[ids])
        y = _onehot(g.labels[ids], g.num_classes)
        cfg = IcaConfig(epochs=epochs, l2=l2)
        got = _train_logistic(x, y, cfg, seed=3, layer_id=1)
        want = sequential_logistic(x, y, cfg, seed=3, layer_id=1)
        assert got.weight.tobytes() == want.weight.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        dense = dense_layer_logistic(x.to_dense(), y, cfg, seed=3, layer_id=1)
        np.testing.assert_allclose(got.weight, dense.weight, rtol=1e-12)
        np.testing.assert_allclose(got.bias, dense.bias, rtol=1e-12)

    @pytest.mark.parametrize("case, l2", [
        ("unused-columns", 0.0), ("rows-store-nothing", 0.0),
        ("unused-columns", 0.01)])
    def test_weights_equal_the_sequential_loop(self, case, l2):
        # columns 1, 4 and 8 are stored in no row; without L2 their weight
        # rows are never stepped and keep their initial bytes
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.5)
        dense[:, [1, 4, 8]] = 0.0
        if case == "rows-store-nothing":
            dense[:] = 0.0
        x = CsrMatrix.from_dense(dense)
        y = _onehot(np.arange(7) % 3, 3)
        cfg = IcaConfig(epochs=20, l2=l2)
        got = _train_logistic(x, y, cfg, seed=2, layer_id=0)
        want = sequential_logistic(x, y, cfg, seed=2, layer_id=0)
        assert got.weight.tobytes() == want.weight.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        init = DenseLayer.create(9, 3, "identity", 2, 0).weight
        unused = ~np.isin(np.arange(9), x.col_indices)
        same = np.all(got.weight == init, axis=1)
        if l2 == 0:
            assert got.weight[unused].tobytes() == init[unused].tobytes()
            assert not same[~unused].any()
        else:
            assert not same.any()


class TestIca:
    def test_class_absent_from_training_is_an_error(self):
        g = two_cliques_graph()
        with pytest.raises(ValueError, match="absent"):
            ica_train_predict(g, np.array([0, 1]), np.array([5]))

    def test_one_class_graph_is_an_error(self):
        # as build_model refuses it: a regression takes two classes up
        g = build_graph([(0, 1), (1, 2)], np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="at least 2 label classes"):
            ica_train_predict(g, np.array([0]), np.array([2]))

    # a cast or a wrap would read each of these as some other node
    @pytest.mark.parametrize("train, test, message", [
        ([0.7, 4.2], [1, 5], "train ids must be integer"),
        ([0, 4], [1.0, 5.0], "test ids must be integer"),
        ([0, 4], np.arange(8) >= 4, "test ids must be integer"),
        ([0, -4], [1, 5], "train ids out of range"),
        ([0, 4], [1, 8], "test ids out of range"),
        # the classifiers would fit node 4's row twice
        ([0, 4, 4], [1, 5], "train id 4 is repeated"),
    ], ids=["float-train", "float-test", "bool-test", "negative-train",
            "past-end-test", "repeated-train"])
    def test_bad_node_ids_are_an_error(self, train, test, message):
        with pytest.raises(ValueError, match=message):
            ica_train_predict(two_cliques_graph(), train, test)

    def test_two_clique_fixture_fully_recovered(self):
        g = two_cliques_graph(scale=3.0)
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        result = ica_train_predict(g, train, test, IcaConfig(), seed=0)
        np.testing.assert_array_equal(result.predicted, g.labels[test])
        assert 1 <= result.iterations <= 10

    def test_deterministic_given_seed(self):
        g = two_cliques_graph(scale=3.0)
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        a = ica_train_predict(g, train, test, IcaConfig(), seed=3)
        b = ica_train_predict(g, train, test, IcaConfig(), seed=3)
        np.testing.assert_array_equal(a.predicted, b.predicted)
        assert a.iterations == b.iterations

    def test_zero_edge_graph_reduces_to_attributes(self):
        # without edges the relational inputs stay zero, so more sweeps
        # cannot change anything
        rng = np.random.default_rng(1)
        n = 12
        labels = np.arange(n) % 2
        feats = np.zeros((n, 2))
        feats[np.arange(n), labels] = 2.0
        feats += 0.05 * rng.standard_normal((n, 2))
        g = build_graph([], feats, labels)
        train = np.array([0, 1, 2, 3])
        test = np.arange(4, n)
        short = ica_train_predict(g, train, test, IcaConfig(max_iters=1),
                                  seed=0)
        long = ica_train_predict(g, train, test, IcaConfig(max_iters=10),
                                 seed=0)
        np.testing.assert_array_equal(short.predicted, long.predicted)
        assert long.iterations <= 2

    def test_iteration_budget_respected(self):
        g = two_cliques_graph(scale=0.0)  # uninformative attributes
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        result = ica_train_predict(g, train, test, IcaConfig(max_iters=3),
                                   seed=0)
        assert result.iterations <= 3

    def test_log_reports_visits_against_full_sweeps(self, caplog):
        g = two_cliques_graph(scale=3.0)
        with caplog.at_level(logging.INFO, logger="modgcn.ica"):
            result = ica_train_predict(g, [0, 4], [1, 5])
        (record,) = caplog.records
        match = re.fullmatch(r"ica: converged=True after (\d+) sweep\(s\), "
                             r"(\d+) of (\d+) node visits", record.getMessage())
        sweeps, visits, full = map(int, match.groups())
        # 6 unlabeled nodes, each scored at least in the first sweep
        assert sweeps == result.iterations and full == 6 * sweeps
        assert 6 <= visits <= full
