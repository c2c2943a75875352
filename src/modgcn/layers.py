"""Dense math for graph-convolution and feed-forward layers.

Forward passes return a cache holding everything the hand-derived backward
pass needs. Layers apply sigma'(pre-activation) themselves; callers that fuse
softmax with cross-entropy feed the pre-activation gradient straight into
``backward_from_pre``. Both backward methods return (grad_in, grads), where
``grads`` lists one gradient per ``param_items`` entry, in that order.
"""

from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix
from .spectral import ChebFilter

ACTIVATIONS = ("identity", "relu", "softmax_rows")


def glorot_init(rows: int, cols: int, seed) -> np.ndarray:
    """Uniform Glorot sample in [-a, a] with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    a = np.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-a, a, size=(rows, cols))


# NumPy reduces a float64 row of fewer than 8 entries one entry at a time,
# left to right. A walk over the columns with whole-column ufuncs does the
# same arithmetic in the same order without NumPy's per-row reduction
# overhead: at the 7-wide class axis the max is about 10x and the sum 3x
# faster. From 8 entries on NumPy's sum switches to pairwise blocks, and
# from 9 its max to SIMD blocks that can keep the other zero of a -0.0/+0.0
# tie, so those widths go to NumPy; so does a 0-column matrix, whose max
# must raise ValueError.
_BLOCKED_FROM = 8


def row_max(m: np.ndarray) -> np.ndarray:
    """``m.max(axis=1, keepdims=True)`` of a float64 matrix, bit for bit,
    but for one nan sign: where a row's first entry is a negative nan,
    NumPy returns a positive one. Only the sign differs: a nan stays a nan."""
    if not 0 < m.shape[1] < _BLOCKED_FROM:
        return m.max(axis=1, keepdims=True)
    acc = m[:, 0].copy()
    for j in range(1, m.shape[1]):
        np.maximum(acc, m[:, j], out=acc)
    return acc[:, None]


def row_sum(m: np.ndarray) -> np.ndarray:
    """``m.sum(axis=1, keepdims=True)`` of a float64 matrix, bit for bit."""
    if not 0 < m.shape[1] < _BLOCKED_FROM:
        return m.sum(axis=1, keepdims=True)
    acc = m[:, 0] + 0.0  # NumPy starts from +0.0: a row of -0.0 sums to +0.0
    for j in range(1, m.shape[1]):
        acc += m[:, j]
    return acc[:, None]


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = m - row_max(m)
    e = np.exp(shifted)
    return e / row_sum(e)


def softmax_rows_backward(out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through a row softmax given its output."""
    return out * (grad_out - row_sum(grad_out * out))


def apply_activation(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "softmax_rows":
        return softmax_rows(pre)
    raise ValueError(f"unknown activation {name!r}")


def activation_backward(name: str, pre, out, grad_out) -> np.ndarray:
    """Gradient w.r.t. the pre-activation given the output gradient."""
    if name == "identity":
        return grad_out
    if name == "relu":
        return grad_out * (pre > 0.0)
    if name == "softmax_rows":
        return softmax_rows_backward(out, grad_out)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class LayerCache:
    h_in: object          # dense ndarray or CsrMatrix
    pre: np.ndarray
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
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.bias = np.asarray(bias, dtype=np.float64).reshape(1, -1)
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
        pre = self.filter.apply([h_in.dot(w) for w in self.weights]) + self.bias
        out = apply_activation(self.activation, pre)
        return out, LayerCache(h_in, pre, out)

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
        return grad_in, [*grad_weights, delta.sum(axis=0, keepdims=True)]

    def backward(self, cache: LayerCache, grad_out: np.ndarray):
        delta = activation_backward(self.activation, cache.pre, cache.out, grad_out)
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
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64).reshape(1, -1)
        self.activation = activation

    @classmethod
    def create(cls, in_dim, out_dim, activation, seed, layer_id):
        return cls(glorot_init(in_dim, out_dim, [seed, layer_id, 0]),
                   np.zeros((1, out_dim)), activation)

    def forward(self, h_in):
        if h_in.shape[1] != self.weight.shape[0]:
            raise ValueError(f"input has {h_in.shape[1]} columns, "
                             f"weights expect {self.weight.shape[0]}")
        pre = h_in @ self.weight + self.bias
        out = apply_activation(self.activation, pre)
        return out, LayerCache(h_in, pre, out)

    def backward_from_pre(self, cache: LayerCache, delta: np.ndarray):
        grad_w = cache.h_in.T @ delta
        grad_in = delta @ self.weight.T
        return grad_in, [grad_w, delta.sum(axis=0, keepdims=True)]

    def backward(self, cache: LayerCache, grad_out: np.ndarray):
        delta = activation_backward(self.activation, cache.pre, cache.out, grad_out)
        return self.backward_from_pre(cache, delta)

    def param_items(self, prefix):
        yield f"{prefix}.w", self.weight
        yield f"{prefix}.b", self.bias
