"""The NumPy backend: the fallback when the compiled one is missing.

A backend offers ICA's sweeps (``relabel``) and three bindings, which
check their fixed operands once so that a later call checks only what
changes: ``bind_csr`` binds a CSR matrix, whose structure
:func:`check_csr` checks (``CsrMatrix.validate`` runs it too),
``bind_adam`` a parameter and its moment buffers, and ``bind_logistic``
a regression on two bound matrices. The compiled backend (``_csr_c``)
subclasses the bindings and calls :func:`check_sweep`, so both backends
refuse the same operands with the same messages.

The product computes the compiled kernel's bits. Every output entry adds
its row's stored entries in stored order, as ``out[i, c] + v * x[j, c]``,
each product rounded before it is added (NumPy fuses no multiply-add). The
rows are visited longest first: step k adds the k-th stored entry of every
row that has one, as one vectorised update of the leading active rows.
Once fewer than ``_TAIL_ROWS`` rows remain active, one flat ``np.add.at``,
which adds in index order, adds every remaining entry of those rows. The
visiting order depends only on the row lengths, so a binding plans it
once per matrix.

The Adam step is a sequence of NumPy ufuncs, each rounding once; the
compiled step makes the same operations in the same order. The sweeps add
a node's neighbors' ``w_rel`` rows in the compiled sweep's order.
"""

import ctypes
from functools import cached_property

import numpy as np

# below this many active rows, a vectorised step costs more than adding
# the rest of their entries one by one with np.add.at
_TAIL_ROWS = 64


def plan_rows(indptr):
    """The row visiting order of A's products: (order, counts, starts,
    active), the rows longest first (a stable sort), their lengths and
    first entries in that order, and ``active[k]``, how many rows hold a
    k-th entry (the first ones in order). None when A stores nothing."""
    if indptr[-1] == 0:
        return None
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    starts = indptr[:-1][order]
    active = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    return order, counts, starts, active


def add_planned(plan, indices, data, x, out):
    """out += A @ x, A's rows visited in ``plan`` (see :func:`plan_rows`)."""
    if plan is None:
        return
    order, counts, starts, active = plan
    acc = out[order]
    k = 0
    while k < len(active) and active[k] >= _TAIL_ROWS:
        n = active[k]
        pos = starts[:n] + k
        acc[:n] += data[pos, None] * x[indices[pos]]
        k += 1
    if k < len(active):
        n, p = active[k], x.shape[1]
        left = counts[:n] - k
        rows = np.repeat(np.arange(n), left)
        # each row's entries from its k-th on, in stored order
        pos = (np.repeat(starts[:n] + k, left) + np.arange(len(rows))
               - np.repeat(np.cumsum(left) - left, left))
        # acc is a fresh C-contiguous array (a fancy index makes one), so
        # its flat reshape is a view that the adds land in. The flat
        # indices run entry by entry, each over its p columns, so every
        # output entry still adds its row's entries in stored order.
        flat = rows[:, None] * p + np.arange(p)
        np.add.at(acc.reshape(-1), flat.reshape(-1),
                  (data[pos, None] * x[indices[pos]]).reshape(-1))
    out[order] = acc


def address(a: np.ndarray) -> int:
    """The address of a C-contiguous array's first byte. A ctypes view of
    a writeable array reads it in a third of the time that
    ``ndarray.ctypes`` takes to build its helper object."""
    if a.size and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def check_array(name: str, arr, dtype, ndim: int) -> None:
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or arr.ndim != ndim or not arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {ndim}-D "
                         f"{np.dtype(dtype).name} array")


def check_writeable(name: str, arr, shape) -> None:
    check_array(name, arr, np.float64, len(shape))
    if arr.shape != shape or not arr.flags.writeable:
        raise ValueError(f"{name} must be a writeable {shape} array, got "
                         f"shape {arr.shape}")


def spans(*named) -> tuple:
    """(name, first byte, end) of each nonempty array of ``named`` pairs."""
    starts = [(name, a, address(a)) for name, a in named if a.size]
    return tuple((name, at, at + a.nbytes) for name, a, at in starts)


def check_apart(name: str, arr, at: int, taken: tuple) -> tuple:
    """Refuse ``arr``, whose first byte is at ``at``, if it overlaps a span
    of ``taken``; returns ``taken`` with ``arr``'s span added."""
    end = at + arr.nbytes
    for other, lo, hi in taken:
        if lo < end and at < hi:
            raise ValueError(f"{name} must not share memory with {other}")
    return (*taken, (name, at, end))


def check_csr(n_rows, n_cols, row_offsets, col_indices, values) -> None:
    """Refuse, with one ValueError raised before any index is read, a CSR
    matrix that a product could read out of bounds: a negative dimension,
    arrays of another kind or length, offsets that do not run from 0 to
    the stored entries without decreasing, or a column outside
    ``[0, n_cols)``."""
    if n_rows < 0 or n_cols < 0:
        raise ValueError(f"CSR shape ({n_rows}, {n_cols}) has a negative "
                         f"dimension")
    for name, arr, dtype in (("row_offsets", row_offsets, np.int64),
                             ("col_indices", col_indices, np.int64),
                             ("values", values, np.float64)):
        check_array(name, arr, dtype, 1)
    if len(col_indices) != len(values):
        raise ValueError("col_indices and values length mismatch")
    nnz = len(values)
    if (len(row_offsets) != n_rows + 1 or row_offsets[0] != 0
            or row_offsets[-1] != nnz):
        raise ValueError(f"row_offsets must hold {n_rows + 1} offsets from 0 "
                         f"to the {nnz} stored entries")
    if np.any(row_offsets[1:] < row_offsets[:-1]):
        raise ValueError("row_offsets must be non-decreasing")
    if nnz and (col_indices.min() < 0 or col_indices.max() >= n_cols):
        raise ValueError(f"column index out of range [0, {n_cols})")


class CsrBinding:
    """An (n_rows, n_cols) CSR matrix's three arrays, checked once by
    :func:`check_csr`.

    Calling it with ``(x, out)`` checks those two and adds A @ x into
    ``out``. Both are C-contiguous 2-D float64 arrays, ``x`` of
    ``n_cols`` rows, ``out`` writeable, of shape ``(n_rows, x.shape[1])``
    and apart from ``x`` and the three arrays. With ``zero_first`` it
    zeroes ``out`` after the checks, so ``out`` receives A @ x.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        check_csr(n_rows, n_cols, indptr, indices, data)
        self.arrays = (indptr, indices, data)
        self.n_rows, self.n_cols = n_rows, n_cols
        self.spans = spans(("values", data), ("col_indices", indices),
                           ("row_offsets", indptr))

    def __call__(self, x, out, zero_first=False):
        check_array("x", x, np.float64, 2)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"shape mismatch: ({self.n_rows}, {self.n_cols}) "
                             f"@ {x.shape}")
        check_writeable("out", out, (self.n_rows, x.shape[1]))
        if not out.size:
            return
        x_at, out_at = address(x), address(out)
        if x.size:
            check_apart("out", out, out_at, (("x", x_at, x_at + x.nbytes),))
        check_apart("out", out, out_at, self.spans)
        if zero_first:
            out.fill(0.0)
        self.add(x, out, x_at, out_at)

    @cached_property
    def plan(self):
        """The rows' visiting order, planned on the first NumPy product."""
        return plan_rows(self.arrays[0])

    def add(self, x, out, x_at, out_at):
        """out += A @ x on operands already checked."""
        add_planned(self.plan, *self.arrays[1:], x, out)


class AdamBinding:
    """One parameter ``p`` and its moment buffers ``m`` and ``v``, checked
    once (writeable C-contiguous float64 arrays of one shape that share no
    memory), with Adam's constants.

    Calling it with ``(g, lr, bc1, bc2)`` makes one bias-corrected Adam
    step in place: ``m*b1 + (1-b1)*g``, then ``v*b2 + ((1-b2)*g)*g``, then
    ``p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``. A gradient of the wrong
    shape, one that shares memory with them, or one with a NaN or
    infinite entry is a ValueError, raised before anything changes.
    """

    def __init__(self, p, m, v, b1, b2, eps):
        self.taken = ()
        for name, arr in (("the parameter", p), ("m", m), ("v", v)):
            check_writeable(name, arr, np.shape(p))
            if arr.size:
                self.taken = check_apart(name, arr, address(arr), self.taken)
        self.p, self.m, self.v = p, m, v
        self.b1, self.b2, self.eps = b1, b2, eps

    def __call__(self, g, lr, bc1, bc2):
        g = np.ascontiguousarray(g, dtype=np.float64)
        if g.shape != self.p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{self.p.shape}")
        at = address(g)
        check_apart("the gradient", g, at, self.taken)
        self.apply(g, at, lr, bc1, bc2)

    def apply(self, g, at, lr, bc1, bc2):
        """The step on a checked gradient ``g`` whose data is at ``at``."""
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
        m, v = self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        self.p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class LogisticBinding:
    """A one-vs-rest logistic regression's operands, checked once, for
    full-batch Adam steps with per-column sigmoid cross-entropy.

    ``x`` and ``x_t`` are the :class:`CsrBinding` of an (m, n) matrix
    and of its transpose; ``y`` holds the (m, p) targets, p >= 2;
    ``params`` maps a name to the (n, p) weights ``W`` and then a name to
    the (1, p) bias ``b``, both stepped in place and sharing no memory;
    ``l2`` adds ``l2 * W`` to the weight gradient when it is above zero;
    ``lr``, ``b1``, ``b2`` and ``eps`` are Adam's constants. The binding
    holds the moment buffers (``m`` and ``v``, keyed like ``params``) and
    the work buffers, and counts its steps in ``t``.

    Each :meth:`step` computes ``pre = x @ W + b``, the loss gradient at
    ``pre``, ``(0.5 * (1 + tanh(0.5 * pre)) - y) / m``, then ``x_t @ pre``
    and the column sums of ``pre`` from +0.0 as the gradients of ``W`` and
    ``b``, and makes one Adam step on ``W`` and then on ``b``. A
    non-finite gradient is a ValueError naming its parameter, and leaves
    that parameter and the one after it unstepped.
    """

    def __init__(self, x, x_t, y, params, l2, lr, b1, b2, eps):
        (w_name, w), (b_name, b) = params.items()
        m, n = x.n_rows, x.n_cols
        check_array("y", y, np.float64, 2)
        p = y.shape[1]
        # one column would be summed pairwise by NumPy, not row by row
        if p < 2:
            raise ValueError(f"a logistic regression needs at least 2 "
                             f"classes, got {p}")
        check_writeable(w_name, w, (n, p))
        check_writeable(b_name, b, (1, p))
        if (x_t.n_rows, x_t.n_cols, y.shape[0]) != (n, m, m):
            raise ValueError(f"shape mismatch: x ({m}, {n}), x_t ({x_t.n_rows}, "
                             f"{x_t.n_cols}), y {y.shape}")
        taken = (*x.spans, *x_t.spans, *spans(("y", y)))
        for name, arr in ((w_name, w), (b_name, b)):
            if arr.size:
                taken = check_apart(name, arr, address(arr), taken)
        self.x, self.x_t = x, x_t
        self.y, self.w, self.b = y, w, b
        self.names = (w_name, b_name)
        self.rows, self.l2, self.lr = m, l2, lr
        self.b1, self.b2, self.eps = b1, b2, eps
        self.m = {w_name: np.zeros_like(w), b_name: np.zeros_like(b)}
        self.v = {w_name: np.zeros_like(w), b_name: np.zeros_like(b)}
        self.t = 0
        self.pre = np.empty((m, p))
        self.grads = (np.empty_like(w), np.empty_like(b))
        self.adam = tuple(AdamBinding(arr, self.m[name], self.v[name],
                                      b1, b2, eps)
                          for name, arr in ((w_name, w), (b_name, b)))

    def step(self):
        self.t += 1
        bc1, bc2 = 1.0 - self.b1 ** self.t, 1.0 - self.b2 ** self.t
        pre, (grad_w, grad_b) = self.pre, self.grads
        self.x(self.w, pre, zero_first=True)
        pre += self.b
        # the sigmoid 0.5 * (1 + tanh(0.5 * z)) stays finite for large |z|
        pre *= 0.5
        np.tanh(pre, out=pre)
        pre += 1.0
        pre *= 0.5
        pre -= self.y
        pre /= self.rows
        self.x_t(pre, grad_w, zero_first=True)
        if self.l2 > 0:
            grad_w += self.l2 * self.w
        np.sum(pre, axis=0, keepdims=True, out=grad_b)
        for name, adam, g in zip(self.names, self.adam, self.grads):
            try:
                adam(g, self.lr, bc1, bc2)
            except ValueError as exc:
                raise ValueError(f"{exc} in {name!r}") from None


def check_sweep(adjacency, state, unlabeled, base_logits, w_rel, max_iters):
    """Check :func:`relabel`'s operands before anything changes; returns
    the swept ids as an int64 array, and ``base_logits`` and ``w_rel``
    C-contiguous.

    ``adjacency`` is the binding of an n x n CSR matrix (see
    :class:`CsrBinding`), so its column indices lie in ``[0, n)``;
    ``state`` a writeable C-contiguous int64 array of n labels, each in
    ``[0, k)``; ``unlabeled`` integer ids in ``[0, n)``; ``base_logits``
    an (n, k) and ``w_rel`` a (k, k) float64 array; ``max_iters`` an int
    >= 1. Anything else is one ValueError."""
    if (not isinstance(state, np.ndarray) or state.dtype != np.int64
            or state.ndim != 1 or not state.flags.c_contiguous
            or not state.flags.writeable):
        raise ValueError("state must be a writeable C-contiguous 1-D int64 "
                         "array")
    n = state.size
    if (adjacency.n_rows, adjacency.n_cols) != (n, n):
        raise ValueError(f"adjacency ({adjacency.n_rows}, {adjacency.n_cols}) "
                         f"does not match {n} labels")
    for name, arr in (("base_logits", base_logits), ("w_rel", w_rel)):
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise ValueError(f"{name} must be a float64 array")
    k = w_rel.shape[0] if w_rel.ndim == 2 else -1
    if base_logits.shape != (n, k) or w_rel.shape != (k, k):
        raise ValueError(f"base_logits {base_logits.shape} and w_rel "
                         f"{w_rel.shape} must be (n, k) and (k, k) with "
                         f"n = {n}")
    if n and (state.min() < 0 or state.max() >= k):
        raise ValueError(f"every label must lie in [0, {k})")
    order = np.asarray(unlabeled)
    if order.ndim != 1 or not (order.dtype.kind in "iu" or order.size == 0):
        raise ValueError("unlabeled must be a 1-D array of integer node ids")
    order = np.ascontiguousarray(order, dtype=np.int64)
    if order.size and (order.min() < 0 or order.max() >= n):
        raise ValueError(f"unlabeled ids must lie in [0, {n})")
    if (not isinstance(max_iters, (int, np.integer))
            or isinstance(max_iters, bool) or max_iters < 1):
        raise ValueError(f"max_iters must be an int >= 1, got {max_iters!r}")
    return (order, np.ascontiguousarray(base_logits),
            np.ascontiguousarray(w_rel))


def sweeps(adjacency, state, order, base_logits, w_rel, max_iters):
    """:func:`relabel`'s sweeps on checked operands."""
    stale = np.ones(state.size, dtype=bool)
    offsets, cols, _ = adjacency.arrays
    offsets = offsets.tolist()
    order = order.tolist()
    visits = 0
    for sweep in range(max_iters):
        changed = 0
        for i in order:
            if not stale[i]:
                continue
            stale[i] = False
            visits += 1
            nbrs = cols[offsets[i]:offsets[i + 1]]
            # adds the rows one at a time from +0.0, as the C sweep does
            rel = w_rel[state[nbrs]].sum(axis=0)
            new = int((base_logits[i] + rel).argmax())
            if new != state[i]:
                state[i] = new
                stale[nbrs] = True
                changed += 1
        if changed == 0:
            return sweep + 1, True, visits
    return max_iters, False, visits


def relabel(adjacency, state, unlabeled, base_logits, w_rel, max_iters):
    """ICA's inference sweeps, in place on ``state``; returns
    ``(iterations, converged, visits)``. The operands are checked first
    (see :func:`check_sweep`).

    Each sweep visits ``unlabeled`` in the order given (ascending in ICA)
    and sets node i to ``argmax(base_logits[i] + rel_i)``, until a sweep
    changes nothing or ``max_iters`` sweeps. ``rel_i`` adds the
    ``w_rel`` rows of i's neighbors' current labels one at a time from
    +0.0, in stored (ascending-column) order: in exact arithmetic the
    neighbor-label counts times ``w_rel``, and in floating point the same
    bits on every machine and in both backends. A node's score
    depends only on its neighbors' labels, so a node none of whose
    neighbors changed since its last visit would score the same bits
    again: it is skipped. A change marks the neighbors stale at once, so
    a later neighbor is still visited in the same sweep. Labels and
    iterations equal those of sweeps that re-score every node.
    """
    order, base_logits, w_rel = check_sweep(adjacency, state, unlabeled,
                                            base_logits, w_rel, max_iters)
    return sweeps(adjacency, state, order, base_logits, w_rel, max_iters)


bind_csr = CsrBinding
bind_adam = AdamBinding
bind_logistic = LogisticBinding
