"""Iterative Classification Algorithm baseline.

Collective classification with a one-vs-rest logistic regression as the
local classifier. Node features for the classifier are the concatenation
[attributes || per-class neighbor-label counts], where the counts only see
labels that are currently known. The classifier's input is a CSR matrix:
the rows of the graph's feature CSR with the counts appended, so both
regressions and every logit are products of the CSR kernel and the dense
(n, C) features are never built. Without an L2 term a regression steps
only the weight rows of the columns its training rows store; the others
would keep their initial values bit for bit anyway. Inference sweeps
nodes in ascending id order, each update immediately visible to later
nodes, and re-scores only the nodes whose neighbors changed label since
their last visit. The sweeps run in the kernel backend
(``kernels.relabel``), which scores a node's relational term as the sum
of its neighbours' ``w_rel`` rows, added in one fixed order: in exact
arithmetic the counts times ``w_rel``, and the same labels on every
backend and machine, with no BLAS call.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .layers import DenseLayer
from .optim import BETA1, BETA2, EPS
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
        for name in ("max_iters", "epochs"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "l2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.lr <= 0 or self.l2 < 0:
            raise ValueError("lr must be > 0 and l2 >= 0")


@dataclass(frozen=True)
class IcaResult:
    predicted: np.ndarray  # labels for test_ids, in the order given
    iterations: int


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    """One row per label; the row of an unknown label (below zero) is 0."""
    out = np.zeros((labels.size, k))
    known = labels >= 0
    out[np.flatnonzero(known), labels[known]] = 1.0
    return out


def _classifier_input(g: Graph, ids: np.ndarray,
                      counts: np.ndarray | None = None) -> CsrMatrix:
    """Rows ``ids`` of the feature CSR, in that order, with the dense
    ``counts`` (one row per id) appended as columns: [attributes ||
    counts] as a canonical CSR matrix, its zeros not stored."""
    x = g.feature_csr
    lengths = np.diff(x.row_offsets)[ids]
    rows = np.repeat(np.arange(len(ids), dtype=np.int64), lengths)
    # each chosen row's stored entries, in stored order
    pos = (np.repeat(x.row_offsets[ids] - (np.cumsum(lengths) - lengths), lengths)
           + np.arange(len(rows)))
    cols, vals, n_cols = x.col_indices[pos], x.values[pos], x.n_cols
    if counts is not None:
        count_rows, count_cols = np.nonzero(counts)
        rows = np.concatenate([rows, count_rows])
        cols = np.concatenate([cols, x.n_cols + count_cols])
        vals = np.concatenate([vals, counts[count_rows, count_cols]])
        n_cols += counts.shape[1]
    return CsrMatrix.from_coo(len(ids), n_cols, rows, cols, vals)


def _train_logistic(x: CsrMatrix, y_onehot, cfg: IcaConfig, seed,
                    layer_id) -> DenseLayer:
    """One-vs-rest logistic regression: a dense layer's parameters with
    per-column sigmoid cross-entropy, full-batch Adam.

    The steps run in the kernel backend (``kernels.bind_logistic``), which
    checks every operand once and makes the products of
    ``DenseLayer.forward`` and ``backward_from_pre``, less the input
    gradient, which nothing here reads, with the CSR kernel: ``x @ W`` and
    ``x.T @ grad_pre``. A non-finite gradient is a ValueError naming
    ``'clf.w'`` or ``'clf.b'``.

    Without an L2 term, the weight row of a column that no row of ``x``
    stores gets an exact zero gradient at every step, and Adam leaves it
    at its initial value bit for bit. So the steps run on the stored
    columns only: ``x`` compacted to them and their weight rows, which are
    written back into the full initial matrix. Each product adds the same
    stored entries in the same order, so every bit equals that of the
    steps over all rows. With L2 every column is used."""
    layer = DenseLayer.create(x.n_cols, y_onehot.shape[1], "identity",
                              seed, layer_id)
    used = (np.unique(x.col_indices) if cfg.l2 == 0
            else np.arange(x.n_cols, dtype=np.int64))
    x = CsrMatrix(x.n_rows, used.size, x.row_offsets,
                  np.searchsorted(used, x.col_indices), x.values)
    weight = layer.weight[used]
    fit = kernels.bind_logistic(x, x.T, y_onehot,
                                {"clf.w": weight, "clf.b": layer.bias},
                                cfg.l2, cfg.lr, BETA1, BETA2, EPS)
    for _ in range(cfg.epochs):
        fit.step()
    layer.weight[used] = weight
    return layer


def neighbor_label_counts(g: Graph, labels: np.ndarray) -> np.ndarray:
    """counts[i, c] = number of neighbors of i currently labeled c.

    Entries of ``labels`` below zero are unknown and contribute nothing.
    """
    return g.adjacency.dot(_onehot(labels, g.num_classes))


def train_classifiers(g: Graph, train_ids: np.ndarray, cfg: IcaConfig,
                      seed: int) -> tuple[DenseLayer, DenseLayer]:
    """ICA's two local classifiers, fit on the nodes ``train_ids`` (checked
    node ids): the attribute-only one that bootstraps the labels, and the
    one on [attributes || counts of the neighbors' training labels]."""
    train_labels = g.labels[train_ids]
    y = _onehot(train_labels, g.num_classes)
    known = np.full(g.num_nodes, -1, dtype=np.int64)
    known[train_ids] = train_labels
    attr_clf = _train_logistic(_classifier_input(g, train_ids), y, cfg, seed,
                               layer_id=0)
    rel_train = neighbor_label_counts(g, known)[train_ids]
    full_clf = _train_logistic(_classifier_input(g, train_ids, rel_train), y,
                               cfg, seed, layer_id=1)
    return attr_clf, full_clf


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
    if k < 2:
        raise ValueError("graph must carry at least 2 label classes")
    train_ids = train_node_ids(train_ids, n)
    test_ids = node_ids(test_ids, "test ids", n)
    train_labels = g.labels[train_ids]
    present = np.unique(train_labels)
    if present.size < k or present[0] < 0:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise ValueError(f"class(es) {missing} absent from training data")

    attr_clf, full_clf = train_classifiers(g, train_ids, cfg, seed)

    state = np.full(n, -1, dtype=np.int64)
    state[train_ids] = train_labels
    unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), train_ids,
                             assume_unique=False)
    # a row of a CSR product depends on that row alone, so these are the
    # bits of the product of the unlabeled rows
    x = g.feature_csr
    boot_logits = (x.dot(attr_clf.weight) + attr_clf.bias)[unlabeled]
    state[unlabeled] = np.argmax(boot_logits, axis=1)

    # attribute logits are fixed during inference; only counts change
    w_attr, w_rel = full_clf.weight[:x.n_cols], full_clf.weight[x.n_cols:]
    base_logits = x.dot(w_attr) + full_clf.bias
    iterations, converged, visits = kernels.relabel(
        g.adjacency, state, unlabeled, base_logits, w_rel, cfg.max_iters)
    logger.info("ica: converged=%s after %d sweep(s), %d of %d node visits",
                converged, iterations, visits, iterations * unlabeled.size)
    return IcaResult(state[test_ids].copy(), iterations)
