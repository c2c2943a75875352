"""Masked cross-entropy, the modularity term, and the training objective
that combines them.

The cross-entropy is summed (not averaged) over the labeled nodes, so the
trade-off weight alpha keeps the same meaning across label budgets; note
this interacts with the learning rate when changing budgets.

The output logits' gradient runs in the kernel backend
(``kernels.output_delta``) with the bits of the NumPy expression it
replaces. The logarithm, the modularity term's two elementwise products
and the sums of the losses stay in NumPy.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .model import Model
from .sparse import Graph, modularity_apply, train_node_ids

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LabelMask:
    """Training-label selection: node ids plus a one-hot target matrix."""

    train_ids: np.ndarray
    onehot: np.ndarray

    @classmethod
    def from_graph(cls, g: Graph, train_ids) -> "LabelMask":
        # the loss would count a repeated node twice, its fused gradient once
        train_ids = train_node_ids(train_ids, g.num_nodes)
        if len(train_ids) == 0:
            raise ValueError("empty training set")
        labels = g.labels[train_ids]
        if np.any(labels < 0):
            raise ValueError("training set contains unlabeled nodes")
        onehot = np.zeros((g.num_nodes, g.num_classes))
        onehot[train_ids, labels] = 1.0
        return cls(train_ids, onehot)

    @cached_property
    def rows(self) -> np.ndarray:
        """One bool flag per node, set on the training rows."""
        rows = np.zeros(self.onehot.shape[0], dtype=bool)
        rows[self.train_ids] = True
        return rows


@dataclass(frozen=True)
class LossReport:
    """total = (1 - alpha) * supervised - alpha * modularity_term."""

    total: float
    supervised: float
    modularity_term: float
    alpha: float


def masked_cross_entropy(z: np.ndarray, mask: LabelMask):
    """Cross-entropy summed over labeled rows of the probability matrix z.

    Returns (loss, gradient w.r.t. the pre-softmax logits): the softmax and
    cross-entropy backward passes are fused, giving (z - y) on labeled rows
    and zero elsewhere.
    """
    return (_cross_entropy(z, mask),
            kernels.output_delta(z, mask.onehot, mask.rows, 0.0))


def _cross_entropy(z: np.ndarray, mask: LabelMask) -> float:
    ids = mask.train_ids
    if len(ids) == 0:
        raise ValueError("empty training set")
    picked = np.sum(z[ids] * mask.onehot[ids], axis=1)
    return -float(np.sum(np.log(np.maximum(picked, LOG_CLAMP))))


def modularity_loss(g: Graph, h: np.ndarray):
    """Negated normalized modularity: loss = -tr(H^T B H) / 2e.

    Returns (loss, gradient w.r.t. H); B is symmetric, so the gradient is
    -(2 / 2e) * B @ H, computed through the lazy operator. ``h`` must be
    2-D: ``modularity_apply`` makes a 1-D one a column, against which
    ``h * bh`` would broadcast to an n x n matrix.
    """
    if np.ndim(h) != 2:
        raise ValueError(f"h must be a 2-D array, got shape {np.shape(h)}")
    bh = modularity_apply(g, h)
    two_e = 2.0 * g.num_edges
    return -float(np.sum(h * bh)) / two_e, -(2.0 / two_e) * bh


def objective_for(model: Model, graph: Graph, mask: LabelMask):
    """The training objective L = (1 - alpha) * CE - alpha * Q of every
    variant, with alpha = ``model.spec.alpha``, evaluated on
    ``graph.feature_csr``.

    Q is the modularity of the output softmax matrix for ``mod`` (both
    signals share every parameter), of the auxiliary head's output for
    ``aux``, and is not scored for ``plain``. On the aux branch the output
    layer receives only the (1 - alpha)-scaled supervised signal, the head
    only the alpha-scaled modularity signal, and the shared first layer the
    sum of both.

    Returns (LossReport, gradients, ForwardResult); the gradients are a
    dict keyed and ordered like ``model.params()``.
    """
    variant, alpha = model.spec.variant, model.spec.alpha
    fwd = model.forward(graph.feature_csr)
    sup = _cross_entropy(fwd.output, mask)
    q, grad_mod = 0.0, None
    if variant != "plain":
        scored = fwd.output if variant == "mod" else fwd.aux_out
        mod_loss, grad_mod = modularity_loss(graph, scored)
        q = -mod_loss

    # (1 - alpha) * dCE, and for mod alpha * dQ routed through the output
    # softmax, in one pass
    delta2 = kernels.output_delta(
        fwd.output, mask.onehot, mask.rows, alpha,
        grad_mod if variant == "mod" and alpha > 0.0 else None)
    grad_hidden, grads2 = model.layer2.backward_from_pre(fwd.cache2, delta2)
    grads_aux = []
    if model.aux is not None:
        # scaling the upstream gradient by alpha scales every aux gradient
        # with it, so alpha = 0 yields exact zeros
        grad_in_aux, grads_aux = model.aux.backward(fwd.cache_aux,
                                                    alpha * grad_mod)
        grad_hidden = grad_hidden + grad_in_aux
    _, grads1 = model.layer1.backward(fwd.cache1, grad_hidden)

    grads = dict(zip(model.params(), [*grads1, *grads2, *grads_aux],
                     strict=True))
    total = (1.0 - alpha) * sup - alpha * q
    return LossReport(total, sup, q, alpha), grads, fwd
