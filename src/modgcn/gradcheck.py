"""Finite-difference verification of every hand-derived backward pass.

The manual backprop core makes this an operational tool, not just a test:
the ``check-gradients`` CLI subcommand runs the same suite. The numerical
side uses central differences and never calls the analytic backward code.
"""

from dataclasses import dataclass, replace

import numpy as np

from .layers import DenseLayer, GraphConvLayer, softmax_rows
from .model import Model, ModelSpec, build_model, build_supports
from .objectives import (LabelMask, masked_cross_entropy, modularity_loss,
                         objective_for)
from .sparse import Graph, build_graph

DEFAULT_H = 1e-5
DEFAULT_RTOL = 1e-5
# floor for entries whose true gradient is ~0, where central differences
# bottom out at rounding noise
DEFAULT_ATOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_err: float
    ok: bool


def numerical_gradient(f, arr: np.ndarray, h: float = DEFAULT_H) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` w.r.t. ``arr``.

    ``arr`` is perturbed in place entry by entry and restored.
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def gradients_close(analytic, numeric, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> bool:
    return np.allclose(analytic, numeric, rtol=rtol, atol=atol)


def random_instance(rng: np.random.Generator, variant: str, encoder: str,
                    n_max: int = 10):
    """Small random graph + matching model + label mask for one check."""
    n = int(rng.integers(4, n_max + 1))
    n_feats = int(rng.integers(3, 7))
    k = int(rng.integers(2, 5))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    if not edges:
        edges = [(0, 1)]
    features = rng.standard_normal((n, n_feats))
    labels = np.arange(n) % k  # keeps every class populated
    graph = build_graph(edges, features, labels)
    hidden_dim = int(rng.integers(3, 6))
    # drawn for plain too, so that the later draws do not shift
    alpha = float(rng.uniform(0.05, 0.95))
    spec = ModelSpec(encoder=encoder, cheb_order=2, variant=variant,
                     hidden_dim=hidden_dim,
                     alpha=0.0 if variant == "plain" else alpha)
    train_ids = rng.choice(n, size=max(2, n // 2), replace=False)
    mask = LabelMask.from_graph(graph, np.sort(train_ids))
    model_seed = int(rng.integers(0, 2**31))
    model = _build_away_from_relu_kink(spec, graph, model_seed)
    return graph, model, mask


def _build_away_from_relu_kink(spec: ModelSpec, graph: Graph, seed: int,
                               margin: float = 50 * DEFAULT_H) -> Model:
    """Resample the init until no hidden pre-activation sits within the
    finite-difference step of the ReLU kink."""
    for attempt in range(20):
        model = build_model(replace(spec, seed=seed + 7919 * attempt), graph)
        fwd = model.forward(graph.feature_operand)
        if np.min(np.abs(fwd.cache1.pre)) > margin:
            return model
    return model


def check_model_gradients(graph, model, mask, h=DEFAULT_H,
                          rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Compare analytic parameter gradients of the model's objective
    against central finite differences of its total loss."""
    _, grads, _ = objective_for(model, graph, mask)
    results = []
    for name, param in model.params().items():
        numeric = numerical_gradient(
            lambda: objective_for(model, graph, mask)[0].total, param, h)
        err = float(np.max(np.abs(grads[name] - numeric))) if numeric.size else 0.0
        ok = gradients_close(grads[name], numeric, rtol, atol)
        results.append(CheckResult(f"{model.spec.model_name}:{name}", err, ok))
    return results


def check_layer_gradients(rng: np.random.Generator, activation: str):
    """Standalone graph-conv layer checks, for the GCN filter and a K=3
    Chebyshev filter: weights, bias, and input gradient under the loss
    sum(R * layer(H))."""
    n, c = 6, 4
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    edges = edges or [(0, 1)]
    graph = build_graph(edges, rng.standard_normal((n, c)), np.arange(n) % 2)
    results = []
    for encoder in ("gcn", "chebnet"):
        cheb = build_supports(ModelSpec(encoder=encoder, cheb_order=3), graph)
        results.extend(_check_conv_layer(rng, cheb, c, activation,
                                         f"gconv-{encoder}[{activation}]"))
    return results


def _check_conv_layer(rng, cheb, c, activation, label):
    n, f = cheb.operator.n_rows, 3
    layer = GraphConvLayer.create(cheb, c, f, activation,
                                  int(rng.integers(0, 2**31)), layer_id=0)
    h_in = rng.standard_normal((n, c))
    r = rng.standard_normal((n, f))

    def loss():
        out, _ = layer.forward(h_in)
        return float(np.sum(r * out))

    _, cache = layer.forward(h_in)
    grad_in, grad_ws, grad_b = layer.backward(cache, r)
    results = []
    for s, w in enumerate(layer.weights):
        numeric = numerical_gradient(loss, w)
        results.append(CheckResult(
            f"{label}.w{s}",
            float(np.max(np.abs(grad_ws[s] - numeric))),
            gradients_close(grad_ws[s], numeric)))
    numeric = numerical_gradient(loss, layer.bias)
    results.append(CheckResult(f"{label}.b",
                               float(np.max(np.abs(grad_b - numeric))),
                               gradients_close(grad_b, numeric)))
    numeric = numerical_gradient(loss, h_in)
    results.append(CheckResult(f"{label}.input",
                               float(np.max(np.abs(grad_in - numeric))),
                               gradients_close(grad_in, numeric)))
    return results


def check_dense_layer_gradients(rng: np.random.Generator, activation: str):
    n, c, f = 7, 5, 3
    layer = DenseLayer.create(c, f, activation, int(rng.integers(0, 2**31)),
                              layer_id=0)
    h_in = rng.standard_normal((n, c))
    r = rng.standard_normal((n, f))

    def loss():
        out, _ = layer.forward(h_in)
        return float(np.sum(r * out))

    _, cache = layer.forward(h_in)
    grad_in, grad_w, grad_b = layer.backward(cache, r)
    results = []
    for name, analytic, arr in (("w", grad_w, layer.weight),
                                ("b", grad_b, layer.bias),
                                ("input", grad_in, h_in)):
        numeric = numerical_gradient(loss, arr)
        results.append(CheckResult(f"dense[{activation}].{name}",
                                   float(np.max(np.abs(analytic - numeric))),
                                   gradients_close(analytic, numeric)))
    return results


def check_loss_gradients(rng: np.random.Generator):
    """Masked cross-entropy (through the softmax) and the modularity term."""
    n, k = 8, 3
    logits = rng.standard_normal((n, k))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    edges = edges or [(0, 1)]
    graph = build_graph(edges, rng.standard_normal((n, 2)), np.arange(n) % k)
    mask = LabelMask.from_graph(graph, np.arange(0, n, 2))

    def ce_loss():
        return masked_cross_entropy(softmax_rows(logits), mask)[0]

    _, grad_pre = masked_cross_entropy(softmax_rows(logits), mask)
    numeric = numerical_gradient(ce_loss, logits)
    results = [CheckResult("masked_cross_entropy.logits",
                           float(np.max(np.abs(grad_pre - numeric))),
                           gradients_close(grad_pre, numeric))]

    h = rng.standard_normal((n, k))

    def mod_loss():
        return modularity_loss(graph, h)[0]

    _, grad_h = modularity_loss(graph, h)
    numeric = numerical_gradient(mod_loss, h)
    results.append(CheckResult("modularity_loss.h",
                               float(np.max(np.abs(grad_h - numeric))),
                               gradients_close(grad_h, numeric)))
    return results


def run_full_suite(seed: int = 0, instances: int = 20):
    """The complete gradient-verification suite.

    Covers the standalone layers, both loss terms, and ``instances`` random
    full-model checks cycling through every encoder/variant combination.
    """
    rng = np.random.default_rng(seed)
    results = []
    for activation in ("identity", "relu", "softmax_rows"):
        results.extend(check_layer_gradients(rng, activation))
        results.extend(check_dense_layer_gradients(rng, activation))
    results.extend(check_loss_gradients(rng))
    combos = [(e, v) for e in ("gcn", "chebnet") for v in ("plain", "mod", "aux")]
    for i in range(instances):
        encoder, variant = combos[i % len(combos)]
        graph, model, mask = random_instance(rng, variant, encoder)
        results.extend(check_model_gradients(graph, model, mask))
    return results
