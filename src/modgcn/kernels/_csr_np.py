"""The NumPy backend: the fallback when the compiled one is missing.

A backend offers ``spmm``, the CSR x dense product added into ``out``,
and three bindings that check their fixed operands once, so that each
later call checks only what changes from call to call: ``bind_csr`` binds
a CSR matrix's three arrays, ``bind_adam`` one parameter and its two
moment buffers, and ``bind_logistic`` a whole logistic regression. The
compiled backend (``_csr_c``) subclasses the bindings, so both backends
accept and refuse the same operands. ``relabel`` runs ICA's inference
sweeps; both backends check its operands with :func:`check_sweep`.

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


def spmm(indptr, indices, data, x, out):
    """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
    add_planned(plan_rows(indptr), indices, data, x, out)


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


def spans(*named) -> tuple:
    """(name, first byte, end) of each nonempty array of ``named`` pairs."""
    starts = [(name, a, address(a)) for name, a in named if a.size]
    return tuple((name, at, at + a.nbytes) for name, a, at in starts)


def check_apart(name: str, arr, at: int, taken: tuple) -> None:
    """Refuse ``arr``, whose first byte is at ``at``, if it overlaps a span
    of ``taken``."""
    end = at + arr.nbytes
    for other, lo, hi in taken:
        if lo < end and at < hi:
            raise ValueError(f"{name} must not share memory with {other}")


class CsrBinding:
    """A CSR matrix's (indptr, indices, data), checked once.

    Calling it with ``(x, out)`` checks those two and adds A @ x into
    ``out``. Both are C-contiguous 2-D float64 arrays, ``out`` writeable,
    of shape ``(n_rows, x.shape[1])`` and apart from ``x`` and the three
    arrays. With ``zero_first`` it zeroes ``out`` after the checks, so
    ``out`` receives A @ x.
    """

    def __init__(self, indptr, indices, data):
        for name, arr, dtype in (("indptr", indptr, np.int64),
                                 ("indices", indices, np.int64),
                                 ("data", data, np.float64)):
            check_array(name, arr, dtype, 1)
        if len(indptr) == 0:
            raise ValueError("indptr must hold at least one offset")
        if indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(data):
            raise ValueError(f"indptr spans [{indptr[0]}, {indptr[-1]}] but "
                             f"{len(indices)} indices and {len(data)} values "
                             f"are stored")
        self.arrays = (indptr, indices, data)
        self.n_rows = len(indptr) - 1
        self.spans = spans(("data", data), ("indices", indices),
                           ("indptr", indptr))

    def __call__(self, x, out, zero_first=False):
        check_array("x", x, np.float64, 2)
        check_array("out", out, np.float64, 2)
        if out.shape != (self.n_rows, x.shape[1]) or not out.flags.writeable:
            raise ValueError(f"out must be a writeable {(self.n_rows, x.shape[1])} "
                             f"array, got shape {out.shape}")
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
    once, with Adam's constants.

    Calling it with ``(g, lr, bc1, bc2)`` makes one bias-corrected Adam
    step in place: ``m*b1 + (1-b1)*g``, then ``v*b2 + ((1-b2)*g)*g``, then
    ``p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``. A gradient of the wrong
    shape or with a NaN or infinite entry is a ValueError, raised before
    anything changes.
    """

    def __init__(self, p, m, v, b1, b2, eps):
        for name, arr in (("m", m), ("v", v)):
            if arr.shape != p.shape:
                raise ValueError(f"{name} shape {arr.shape} != parameter "
                                 f"shape {p.shape}")
        self.p, self.m, self.v = p, m, v
        self.b1, self.b2, self.eps = b1, b2, eps

    def check_shape(self, g):
        if g.shape != self.p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{self.p.shape}")

    def __call__(self, g, lr, bc1, bc2):
        self.check_shape(g)
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

    ``x`` is an (m, n) CSR matrix (``n_rows``, ``n_cols``, ``row_offsets``,
    ``col_indices``, ``values``) and ``x_t`` its transpose; ``y`` holds the
    (m, p) targets; ``params`` maps a name to the (n, p) weights ``W`` and
    then a name to the (1, p) bias ``b``, both stepped in place; ``l2``
    adds ``l2 * W`` to the weight gradient when it is above zero; ``lr``,
    ``b1``, ``b2`` and ``eps`` are Adam's constants. The binding holds
    the moment buffers (``m`` and ``v``, keyed like ``params``) and the
    work buffers, and counts its steps in ``t``.

    Each :meth:`step` computes ``pre = x @ W + b``, the loss gradient at
    ``pre``, ``(0.5 * (1 + tanh(0.5 * pre)) - y) / m``, then ``x_t @ pre``
    and the column sums of ``pre`` from +0.0 as the gradients of ``W`` and
    ``b``, and makes one Adam step on ``W`` and then on ``b``. A
    non-finite gradient is a ValueError naming its parameter, and leaves
    that parameter and the one after it unstepped.
    """

    def __init__(self, x, x_t, y, params, l2, lr, b1, b2, eps):
        (w_name, w), (b_name, b) = params.items()
        self.x = CsrBinding(x.row_offsets, x.col_indices, x.values)
        self.x_t = CsrBinding(x_t.row_offsets, x_t.col_indices, x_t.values)
        m, n = x.n_rows, x.n_cols
        check_array("y", y, np.float64, 2)
        p = y.shape[1]
        for name, arr, shape in ((w_name, w, (n, p)), (b_name, b, (1, p))):
            check_array(name, arr, np.float64, 2)
            if arr.shape != shape or not arr.flags.writeable:
                raise ValueError(f"{name} must be a writeable {shape} array, "
                                 f"got shape {arr.shape}")
        if ((self.x.n_rows, x_t.n_rows, self.x_t.n_rows, x_t.n_cols, y.shape[0])
                != (m, n, n, m, m)):
            raise ValueError(f"shape mismatch: x ({m}, {n}) holds "
                             f"{self.x.n_rows} rows, x_t ({x_t.n_rows}, "
                             f"{x_t.n_cols}) holds {self.x_t.n_rows}, y is "
                             f"{y.shape}")
        taken = (*self.x.spans, *self.x_t.spans, *spans(("y", y)))
        for name, arr in ((w_name, w), (b_name, b)):
            if arr.size:
                at = address(arr)
                check_apart(name, arr, at, taken)
                taken = (*taken, (name, at, at + arr.nbytes))
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

    ``adjacency`` is an n x n CSR matrix whose column indices lie in
    ``[0, n)``, as ``CsrMatrix`` guarantees; ``state`` a writeable
    C-contiguous int64 array of n labels, each in ``[0, k)``;
    ``unlabeled`` integer ids in ``[0, n)``; ``base_logits`` an (n, k)
    and ``w_rel`` a (k, k) float64 array; ``max_iters`` an int >= 1.
    Anything else is one ValueError."""
    if (not isinstance(state, np.ndarray) or state.dtype != np.int64
            or state.ndim != 1 or not state.flags.c_contiguous
            or not state.flags.writeable):
        raise ValueError("state must be a writeable C-contiguous 1-D int64 "
                         "array")
    n = state.size
    indptr, indices = adjacency.row_offsets, adjacency.col_indices
    check_array("indptr", indptr, np.int64, 1)
    check_array("indices", indices, np.int64, 1)
    if (adjacency.n_rows, adjacency.n_cols, len(indptr)) != (n, n, n + 1):
        raise ValueError(f"adjacency ({adjacency.n_rows}, {adjacency.n_cols}) "
                         f"with {len(indptr)} offsets does not match {n} "
                         f"labels")
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
    offsets = adjacency.row_offsets.tolist()
    cols = adjacency.col_indices
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
