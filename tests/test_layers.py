"""Layer forward/backward mechanics and initialization."""

import numpy as np
import pytest

from conftest import random_graph, two_cliques_graph
from modgcn.layers import (DenseLayer, GraphConvLayer, add_bias_and_activate,
                           glorot_init, softmax_rows)
from modgcn.sparse import CsrMatrix, gcn_support
from modgcn.spectral import ChebFilter, build_chebyshev_supports


def gcn_filter(g):
    return ChebFilter(gcn_support(g), order=1, lowest=1)


class TestInit:
    def test_glorot_bounds_and_shape(self):
        w = glorot_init(40, 60, seed=0)
        assert w.shape == (40, 60)
        limit = np.sqrt(6.0 / 100.0)
        assert np.all(np.abs(w) <= limit)

    def test_glorot_deterministic_and_seed_sensitive(self):
        np.testing.assert_array_equal(glorot_init(5, 5, seed=3),
                                      glorot_init(5, 5, seed=3))
        assert not np.array_equal(glorot_init(5, 5, seed=3),
                                  glorot_init(5, 5, seed=4))

    def test_glorot_accepts_composite_seed(self):
        np.testing.assert_array_equal(glorot_init(4, 4, seed=[1, 2, 0]),
                                      glorot_init(4, 4, seed=[1, 2, 0]))


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4)) * 10
        out = softmax_rows(z)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(out > 0)

    def test_softmax_rows_shift_invariant(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax_rows(z), softmax_rows(z + 100.0),
                                   atol=1e-12)

    def test_softmax_survives_large_logits(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_relu(self):
        pre = np.array([[-1.0, 0.0, 2.0]])
        out = add_bias_and_activate("relu", pre, np.array([[0.5, -0.0, 1.0]]))
        assert out is pre  # the bias and ReLU both work in place
        np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0]])

    def test_unknown_activation(self):
        pre = np.zeros((1, 1))
        with pytest.raises(ValueError, match="activation"):
            add_bias_and_activate("tanh", pre, np.ones((1, 1)))
        assert pre[0, 0] == 0.0  # refused before the bias is added


class TestGraphConvLayer:
    def test_forward_matches_dense_formula(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 7)
        layer = GraphConvLayer.create(gcn_filter(g), 4, 3, "identity", 0, 0)
        h = rng.standard_normal((7, 4))
        out, cache = layer.forward(h)
        want = gcn_support(g).to_dense() @ h @ layer.weights[0] + layer.bias
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert cache.out is out

    def test_multi_support_sums_terms(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6)
        s = gcn_support(g)
        # T_0 = I and T_1 = S
        layer = GraphConvLayer.create(ChebFilter(s, order=1), 3, 2,
                                      "identity", 1, 0)
        h = rng.standard_normal((6, 3))
        out, _ = layer.forward(h)
        want = (h @ layer.weights[0] + s.to_dense() @ h @ layer.weights[1]
                + layer.bias)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_sparse_input_matches_dense_input(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        layer = GraphConvLayer.create(gcn_filter(g), 5, 3, "relu", 2, 0)
        h = rng.standard_normal((8, 5))
        h[rng.random((8, 5)) > 0.3] = 0.0
        dense_out, _ = layer.forward(h)
        sparse_out, _ = layer.forward(CsrMatrix.from_dense(h))
        np.testing.assert_allclose(sparse_out, dense_out, atol=1e-12)

    def test_sparse_features_match_dense_features(self):
        # the same input as CSR (layer 1's operand) and as an ndarray
        g = two_cliques_graph()
        rng = np.random.default_rng(8)
        upstream = rng.standard_normal((8, 3))
        for cheb in (gcn_filter(g), build_chebyshev_supports(g, order=2)):
            layer = GraphConvLayer.create(cheb, 2, 3, "relu", 2, 0)
            dense_out, dense_cache = layer.forward(g.features)
            sparse_out, sparse_cache = layer.forward(
                CsrMatrix.from_dense(g.features))
            np.testing.assert_allclose(sparse_out, dense_out, atol=1e-12)
            _, dense_grads = layer.backward(dense_cache, upstream)
            _, sparse_grads = layer.backward(sparse_cache, upstream)
            for sg, dg in zip(sparse_grads, dense_grads, strict=True):
                np.testing.assert_allclose(sg, dg, atol=1e-12)

    def test_sparse_input_backward_has_no_input_grad(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6)
        layer = GraphConvLayer.create(gcn_filter(g), 4, 2, "relu", 3, 0)
        h = CsrMatrix.from_dense(rng.standard_normal((6, 4)))
        _, cache = layer.forward(h)
        grad_in, (grad_w, grad_b) = layer.backward(
            cache, rng.standard_normal((6, 2)))
        assert grad_in is None
        assert grad_w.shape == (4, 2)
        assert grad_b.shape == (1, 2)

    def test_per_support_seeding_is_stable(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6)
        cheb = ChebFilter(gcn_support(g), order=1)
        a = GraphConvLayer.create(cheb, 4, 2, "relu", 42, layer_id=0)
        b = GraphConvLayer.create(cheb, 4, 2, "relu", 42, layer_id=0)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert not np.array_equal(a.weights[0], a.weights[1])

    def test_param_items_names(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 5)
        layer = GraphConvLayer.create(gcn_filter(g), 3, 2, "relu", 0, 0)
        names = [name for name, _ in layer.param_items("layer1")]
        assert names == ["layer1.w0", "layer1.b"]
        # one weight matrix per Chebyshev term
        cheb = GraphConvLayer.create(build_chebyshev_supports(g, order=3),
                                     3, 2, "relu", 0, 0)
        names = [name for name, _ in cheb.param_items("layer1")]
        assert names == ["layer1.w0", "layer1.w1", "layer1.w2", "layer1.w3",
                         "layer1.b"]

    @pytest.mark.parametrize("make", [
        lambda g: GraphConvLayer.create(gcn_filter(g), 3, 2, "relu", 0, 0),
        lambda g: GraphConvLayer.create(build_chebyshev_supports(g, order=3),
                                        3, 2, "relu", 0, 0),
        lambda g: DenseLayer.create(3, 2, "softmax_rows", 0, 2),
    ], ids=["gcn", "chebnet-3", "dense"])
    def test_backward_returns_grads_in_param_order(self, make):
        rng = np.random.default_rng(9)
        layer = make(random_graph(rng, 6))
        out, cache = layer.forward(rng.standard_normal((6, 3)))
        _, grads = layer.backward(cache, rng.standard_normal(out.shape))
        params = [p for _, p in layer.param_items("x")]
        assert len(grads) == len(params)
        assert [g.shape for g in grads] == [p.shape for p in params]

    def test_input_width_mismatch(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 5)
        layer = GraphConvLayer.create(gcn_filter(g), 3, 2, "relu", 0, 0)
        with pytest.raises(ValueError, match="columns"):
            layer.forward(np.zeros((5, 4)))


class TestDenseLayer:
    def test_forward_oracle(self):
        layer = DenseLayer(np.array([[2.0], [1.0]]), np.array([0.5]),
                           "identity")
        out, _ = layer.forward(np.array([[1.0, 3.0]]))
        np.testing.assert_allclose(out, [[5.5]])

    def test_softmax_head_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        layer = DenseLayer.create(4, 3, "softmax_rows", 0, 2)
        out, _ = layer.forward(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
