"""Iterative Classification Algorithm baseline.

Collective classification with a one-vs-rest logistic regression as the
local classifier. Node features for the classifier are the concatenation
[attributes || per-class neighbor-label counts], where the counts only see
labels that are currently known. Inference sweeps nodes in ascending id
order, each update immediately visible to later nodes, and re-scores only
the nodes whose neighbors changed label since their last visit.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .layers import DenseLayer
from .optim import AdamState, adam_step
from .sparse import CsrMatrix, Graph, node_ids, train_node_ids

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IcaConfig:
    """ICA protocol knobs plus the local classifier's training knobs."""

    max_iters: int = 10
    epochs: int = 200
    lr: float = 0.1
    l2: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0 or self.l2 < 0:
            raise ValueError("lr must be > 0 and l2 >= 0")


@dataclass(frozen=True)
class IcaResult:
    predicted: np.ndarray  # labels for test_ids, in the order given
    iterations: int


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form stays finite for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    """One row per label; the row of an unknown label (below zero) is 0."""
    out = np.zeros((labels.size, k))
    known = labels >= 0
    out[np.flatnonzero(known), labels[known]] = 1.0
    return out


def _train_logistic(x, y_onehot, cfg: IcaConfig, seed, layer_id) -> DenseLayer:
    """One-vs-rest logistic regression: a dense layer with per-column
    sigmoid cross-entropy, full-batch Adam.

    Each step makes the products of ``DenseLayer.forward`` and
    ``backward_from_pre`` on the same operands, less the input gradient,
    which nothing here reads."""
    layer = DenseLayer.create(x.shape[1], y_onehot.shape[1], "identity",
                              seed, layer_id)
    params = dict(layer.param_items("clf"))
    state = AdamState.create(params, lr=cfg.lr)
    m = x.shape[0]
    for _ in range(cfg.epochs):
        pre = x @ layer.weight + layer.bias
        grad_pre = (_sigmoid(pre) - y_onehot) / m
        grad_w = x.T @ grad_pre
        if cfg.l2 > 0:
            grad_w = grad_w + cfg.l2 * layer.weight
        grad_b = grad_pre.sum(axis=0, keepdims=True)
        adam_step(state, params, dict(zip(params, (grad_w, grad_b), strict=True)))
    return layer


def neighbor_label_counts(g: Graph, labels: np.ndarray) -> np.ndarray:
    """counts[i, c] = number of neighbors of i currently labeled c.

    Entries of ``labels`` below zero are unknown and contribute nothing.
    """
    return g.adjacency.dot(_onehot(labels, g.num_classes))


def relabel(adjacency: CsrMatrix, state: np.ndarray, unlabeled: np.ndarray,
            base_logits: np.ndarray, w_rel: np.ndarray, max_iters: int):
    """ICA's inference sweeps, in place on ``state``; returns
    ``(iterations, converged, visits)``.

    Each sweep visits ``unlabeled`` in ascending id and sets node i to
    ``argmax(base_logits[i] + counts_i @ w_rel)``, where ``counts_i`` counts
    the current labels of i's neighbors, until a sweep changes nothing or
    ``max_iters`` sweeps. Every node must hold a label (no -1). A node's
    score depends only on its neighbors' labels, so a node none of whose
    neighbors changed since its last visit would score the same bits
    again: it is skipped. A change marks the neighbors stale at once, so
    a later neighbor is still visited in the same sweep. Labels and
    iterations equal those of sweeps that re-score every node.
    """
    stale = np.ones(state.size, dtype=bool)
    offsets = adjacency.row_offsets.tolist()
    cols = adjacency.col_indices
    k = w_rel.shape[0]
    order = unlabeled.tolist()
    visits = 0
    for sweep in range(max_iters):
        changed = 0
        for i in order:
            if not stale[i]:
                continue
            stale[i] = False
            visits += 1
            nbrs = cols[offsets[i]:offsets[i + 1]]
            counts = np.bincount(state[nbrs], minlength=k)
            new = int(np.argmax(base_logits[i] + counts @ w_rel))
            if new != state[i]:
                state[i] = new
                stale[nbrs] = True
                changed += 1
        if changed == 0:
            return sweep + 1, True, visits
    return max_iters, False, visits


def ica_train_predict(g: Graph, train_ids, test_ids,
                      cfg: IcaConfig = IcaConfig(), seed: int = 0) -> IcaResult:
    """Run the full ICA protocol and predict labels for ``test_ids``.

    Training: the local classifier sees [attributes || neighbor counts]
    where counts come from training labels only. Bootstrap: an
    attribute-only classifier labels every non-training node. Iteration:
    sweep unlabeled nodes in ascending id, re-predicting each from its
    attributes plus the counts of its neighbors' current labels, until no
    label changes or max_iters sweeps.
    """
    n, k = g.num_nodes, g.num_classes
    train_ids = train_node_ids(train_ids, n)
    test_ids = node_ids(test_ids, "test ids", n)
    train_labels = g.labels[train_ids]
    present = np.unique(train_labels)
    if present.size < k or present[0] < 0:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise ValueError(f"class(es) {missing} absent from training data")

    state = np.full(n, -1, dtype=np.int64)
    state[train_ids] = train_labels
    y = _onehot(train_labels, k)

    attr_clf = _train_logistic(g.features[train_ids], y, cfg, seed, layer_id=0)
    rel_train = neighbor_label_counts(g, state)[train_ids]
    full_clf = _train_logistic(np.hstack([g.features[train_ids], rel_train]),
                               y, cfg, seed, layer_id=1)

    unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), train_ids,
                             assume_unique=False)
    boot_logits = attr_clf.forward(g.features[unlabeled])[0]
    state[unlabeled] = np.argmax(boot_logits, axis=1)

    # attribute logits are fixed during inference; only counts change
    n_attr = g.features.shape[1]
    w_attr, w_rel = full_clf.weight[:n_attr], full_clf.weight[n_attr:]
    base_logits = g.features @ w_attr + full_clf.bias
    iterations, converged, visits = relabel(
        g.adjacency, state, unlabeled, base_logits, w_rel, cfg.max_iters)
    logger.info("ica: converged=%s after %d sweep(s), %d of %d node visits",
                converged, iterations, visits, iterations * unlabeled.size)
    return IcaResult(state[test_ids].copy(), iterations)
