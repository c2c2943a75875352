"""Iterative Classification Algorithm baseline.

Collective classification with a one-vs-rest logistic regression as the
local classifier. Node features for the classifier are the concatenation
[attributes || per-class neighbor-label counts], where the counts only see
labels that are currently known. Inference sweeps nodes in ascending id
order, each update immediately visible to later nodes.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .layers import DenseLayer
from .optim import AdamState, adam_step
from .sparse import Graph

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
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _train_logistic(x, y_onehot, cfg: IcaConfig, seed, layer_id) -> DenseLayer:
    """One-vs-rest logistic regression: a dense layer with per-column
    sigmoid cross-entropy, full-batch Adam."""
    layer = DenseLayer.create(x.shape[1], y_onehot.shape[1], "identity",
                              seed, layer_id)
    params = dict(layer.param_items("clf"))
    state = AdamState.create(params, lr=cfg.lr)
    m = x.shape[0]
    for _ in range(cfg.epochs):
        _, cache = layer.forward(x)
        grad_pre = (_sigmoid(cache.pre) - y_onehot) / m
        _, grad_w, grad_b = layer.backward_from_pre(cache, grad_pre)
        if cfg.l2 > 0:
            grad_w = grad_w + cfg.l2 * layer.weight
        adam_step(state, params, {"clf.w": grad_w, "clf.b": grad_b})
    return layer


def neighbor_label_counts(g: Graph, labels: np.ndarray) -> np.ndarray:
    """counts[i, c] = number of neighbors of i currently labeled c.

    Entries of ``labels`` below zero are unknown and contribute nothing.
    """
    known = _onehot_known(labels, g.num_classes)
    return g.adjacency.dot(known)


def _onehot_known(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    mask = labels >= 0
    out[np.flatnonzero(mask), labels[mask]] = 1.0
    return out


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
    train_ids = np.asarray(train_ids, dtype=np.int64)
    test_ids = np.asarray(test_ids, dtype=np.int64)
    n, k = g.num_nodes, g.num_classes
    train_labels = g.labels[train_ids]
    present = np.unique(train_labels)
    if present.size < k or present[0] < 0:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise ValueError(f"class(es) {missing} absent from training data")

    state = np.full(n, -1, dtype=np.int64)
    state[train_ids] = train_labels
    y = _onehot(train_labels, k)

    attr_clf = _train_logistic(g.features[train_ids], y, cfg, seed, layer_id=0)
    rel_train = neighbor_label_counts(g, state)
    full_x = np.hstack([g.features, rel_train])
    full_clf = _train_logistic(full_x[train_ids], y, cfg, seed, layer_id=1)

    unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), train_ids,
                             assume_unique=False)
    boot_logits = attr_clf.forward(g.features[unlabeled])[0]
    state[unlabeled] = np.argmax(boot_logits, axis=1)

    # attribute logits are fixed during inference; only counts change
    n_attr = g.features.shape[1]
    w_attr, w_rel = full_clf.weight[:n_attr], full_clf.weight[n_attr:]
    base_logits = g.features @ w_attr + full_clf.bias
    offsets, cols = g.adjacency.row_offsets, g.adjacency.col_indices

    iterations = 0
    for sweep in range(cfg.max_iters):
        changed = 0
        for i in unlabeled:
            nbr_labels = state[cols[offsets[i]:offsets[i + 1]]]
            counts = np.bincount(nbr_labels[nbr_labels >= 0], minlength=k)
            new = int(np.argmax(base_logits[i] + counts @ w_rel))
            if new != state[i]:
                state[i] = new
                changed += 1
        iterations = sweep + 1
        if changed == 0:
            break
    logger.info("ica: converged=%s after %d sweep(s)",
                changed == 0, iterations)
    return IcaResult(state[test_ids].copy(), iterations)
