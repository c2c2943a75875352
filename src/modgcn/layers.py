"""Dense math for graph-convolution and feed-forward layers.

Forward passes return a cache holding everything the hand-derived backward
pass needs: the input, and the activation's output, from which layers apply
sigma' themselves; callers that fuse softmax with cross-entropy feed the
pre-activation gradient straight into ``backward_from_pre``. The row-wise
passes run in the kernel backend: the bias add with ReLU, ReLU's gradient
and the bias gradient, and the row softmax and its gradient
(``kernels.softmax_rows`` and ``kernels.softmax_rows_backward``, which
compute NumPy's bits). Both backward
methods return (grad_in, grads), where ``grads`` lists one gradient per
``param_items`` entry, in that order.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import softmax_rows, softmax_rows_backward
from .sparse import CsrMatrix
from .spectral import ChebFilter

ACTIVATIONS = ("identity", "relu", "softmax_rows")


def glorot_init(rows: int, cols: int, seed) -> np.ndarray:
    """Uniform Glorot sample in [-a, a] with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    a = np.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-a, a, size=(rows, cols))


def add_bias_and_activate(name: str, pre: np.ndarray, bias) -> np.ndarray:
    """The activation of ``pre + bias``. The bias is added to each row of
    ``pre`` in place, and so is ReLU (``kernels.add_bias``), so
    ``identity`` and ``relu`` return ``pre`` itself."""
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    out = kernels.add_bias(pre, bias, relu=name == "relu")
    return softmax_rows(out) if name == "softmax_rows" else out


def activation_backward(name: str, out, grad_out) -> np.ndarray:
    """Gradient w.r.t. the pre-activation given the activation's output
    and the output gradient."""
    if name == "identity":
        return grad_out
    if name == "relu":
        return kernels.relu_backward(grad_out, out)
    if name == "softmax_rows":
        return softmax_rows_backward(out, grad_out)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class LayerCache:
    h_in: object          # dense ndarray or CsrMatrix
    out: np.ndarray


class GraphConvLayer:
    """Spectral graph convolution sigma(sum_k T_k(S) @ H @ W_k + b).

    The sum runs over the terms of a ChebFilter: one weight matrix for the
    first-order GCN, K+1 for a K-th order Chebyshev layer. All weight
    matrices share the shape (C, F).
    """

    def __init__(self, cheb: ChebFilter, weights, bias, activation):
        if cheb.size != len(weights):
            raise ValueError("need one weight matrix per filter term")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        shapes = {w.shape for w in weights}
        if len(shapes) != 1:
            raise ValueError(f"weight matrices must share one shape, got {shapes}")
        self.filter = cheb
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
        self.bias = np.ascontiguousarray(bias, dtype=np.float64).reshape(1, -1)
        self.activation = activation

    @classmethod
    def create(cls, cheb: ChebFilter, in_dim, out_dim, activation, seed, layer_id):
        weights = [glorot_init(in_dim, out_dim, [seed, layer_id, s])
                   for s in range(cheb.size)]
        return cls(cheb, weights, np.zeros((1, out_dim)), activation)

    def forward(self, h_in):
        c = self.weights[0].shape[0]
        if h_in.shape[1] != c:
            raise ValueError(f"input has {h_in.shape[1]} columns, weights expect {c}")
        pre = self.filter.apply([h_in.dot(w) for w in self.weights])
        out = add_bias_and_activate(self.activation, pre, self.bias)
        return out, LayerCache(h_in, out)

    def backward_from_pre(self, cache: LayerCache, delta: np.ndarray):
        """Gradients given d(loss)/d(pre-activation).

        Returns (grad_in, [*grad_weights, grad_bias]); grad_in is None when
        the layer input was a sparse feature matrix (no upstream layer).
        """
        h_in = cache.h_in
        us = self.filter.basis(delta)
        grad_weights = [h_in.T.dot(u) for u in us]
        grad_in = None if isinstance(h_in, CsrMatrix) else sum(
            u @ w.T for u, w in zip(us, self.weights))
        return grad_in, [*grad_weights, kernels.column_sums(delta)]

    def backward(self, cache: LayerCache, grad_out: np.ndarray):
        delta = activation_backward(self.activation, cache.out, grad_out)
        return self.backward_from_pre(cache, delta)

    def param_items(self, prefix):
        for s, w in enumerate(self.weights):
            yield f"{prefix}.w{s}", w
        yield f"{prefix}.b", self.bias


class DenseLayer:
    """Feed-forward layer sigma(H @ W + b); used by the auxiliary head."""

    def __init__(self, weight, bias, activation):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64).reshape(1, -1)
        self.activation = activation

    @classmethod
    def create(cls, in_dim, out_dim, activation, seed, layer_id):
        return cls(glorot_init(in_dim, out_dim, [seed, layer_id, 0]),
                   np.zeros((1, out_dim)), activation)

    def forward(self, h_in):
        if h_in.shape[1] != self.weight.shape[0]:
            raise ValueError(f"input has {h_in.shape[1]} columns, "
                             f"weights expect {self.weight.shape[0]}")
        pre = h_in @ self.weight
        out = add_bias_and_activate(self.activation, pre, self.bias)
        return out, LayerCache(h_in, out)

    def backward_from_pre(self, cache: LayerCache, delta: np.ndarray):
        grad_w = cache.h_in.T @ delta
        grad_in = delta @ self.weight.T
        return grad_in, [grad_w, kernels.column_sums(delta)]

    def backward(self, cache: LayerCache, grad_out: np.ndarray):
        delta = activation_backward(self.activation, cache.out, grad_out)
        return self.backward_from_pre(cache, delta)

    def param_items(self, prefix):
        yield f"{prefix}.w", self.weight
        yield f"{prefix}.b", self.bias
