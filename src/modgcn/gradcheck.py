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


def random_instance(rng: np.random.Generator, variant: str, encoder: str):
    """Small random graph + matching model + label mask for one check."""
    n = int(rng.integers(4, 11))
    n_feats = int(rng.integers(3, 7))
    k = int(rng.integers(2, 5))
    graph = _random_graph(rng, n, 0.45, n_feats, k)
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


def _random_graph(rng, n, p, n_feats, k) -> Graph:
    """n nodes, each pair an edge with probability p (edge (0, 1) if none
    is drawn), standard-normal features, and labels 0..k-1 in turn, which
    keeps every class populated."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(edges or [(0, 1)], rng.standard_normal((n, n_feats)),
                       np.arange(n) % k)


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


def _compare(loss, checks):
    """One CheckResult per (name, analytic gradient, array) in ``checks``,
    against central differences of the scalar ``loss()`` w.r.t. the array."""
    results = []
    for name, analytic, arr in checks:
        numeric = numerical_gradient(loss, arr)
        err = float(np.max(np.abs(analytic - numeric))) if numeric.size else 0.0
        results.append(CheckResult(name, err, gradients_close(analytic, numeric)))
    return results


def check_model_gradients(graph, model, mask):
    """Compare analytic parameter gradients of the model's objective
    against central finite differences of its total loss."""
    _, grads, _ = objective_for(model, graph, mask)
    return _compare(lambda: objective_for(model, graph, mask)[0].total,
                    [(f"{model.spec.model_name}:{name}", grads[name], param)
                     for name, param in model.params().items()])


def check_layer_gradients(rng: np.random.Generator, activation: str):
    """Standalone layer checks, for a graph-conv layer with the GCN filter
    and with a K=3 Chebyshev filter, and for a dense layer: every parameter
    and the input gradient under the loss sum(R * layer(H))."""
    n, c = 6, 4
    graph = _random_graph(rng, n, 0.5, c, 2)
    results = []
    for encoder in ("gcn", "chebnet"):
        cheb = build_supports(ModelSpec(encoder=encoder, cheb_order=3), graph)
        results.extend(_check_layer(
            rng, n, c, f"gconv-{encoder}[{activation}]",
            lambda seed: GraphConvLayer.create(cheb, c, 3, activation, seed,
                                               layer_id=0)))
    results.extend(_check_layer(
        rng, 7, 5, f"dense[{activation}]",
        lambda seed: DenseLayer.create(5, 3, activation, seed, layer_id=0)))
    return results


def _check_layer(rng, n, c, label, make_layer):
    """Check the layer that ``make_layer(seed)`` builds on an (n, c) input."""
    layer = make_layer(int(rng.integers(0, 2**31)))
    h_in = rng.standard_normal((n, c))
    out, cache = layer.forward(h_in)
    r = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(r * layer.forward(h_in)[0]))

    grad_in, grads = layer.backward(cache, r)
    checks = [(name, g, p) for (name, p), g
              in zip(layer.param_items(label), grads, strict=True)]
    return _compare(loss, checks + [(f"{label}.input", grad_in, h_in)])


def check_loss_gradients(rng: np.random.Generator):
    """Masked cross-entropy (through the softmax) and the modularity term."""
    n, k = 8, 3
    logits = rng.standard_normal((n, k))
    graph = _random_graph(rng, n, 0.4, 2, k)
    mask = LabelMask.from_graph(graph, np.arange(0, n, 2))
    _, grad_pre = masked_cross_entropy(softmax_rows(logits), mask)
    results = _compare(
        lambda: masked_cross_entropy(softmax_rows(logits), mask)[0],
        [("masked_cross_entropy.logits", grad_pre, logits)])

    h = rng.standard_normal((n, k))
    _, grad_h = modularity_loss(graph, h)
    results.extend(_compare(lambda: modularity_loss(graph, h)[0],
                            [("modularity_loss.h", grad_h, h)]))
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
    results.extend(check_loss_gradients(rng))
    combos = [(e, v) for e in ("gcn", "chebnet") for v in ("plain", "mod", "aux")]
    for i in range(instances):
        encoder, variant = combos[i % len(combos)]
        graph, model, mask = random_instance(rng, variant, encoder)
        results.extend(check_model_gradients(graph, model, mask))
    return results
