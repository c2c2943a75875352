"""The NumPy backend: the fallback when the compiled one is missing.

A backend offers ICA's sweeps (``relabel``), the layers' row-wise passes
(``add_bias``, ``column_sums`` and ``relu_backward``), the objective's
row passes (``softmax_rows``, ``softmax_rows_backward``,
``output_delta`` and ``subtract_outer``), and three bindings, which
check their fixed operands once so that a later call checks only what
changes: ``bind_csr`` binds a CSR matrix, whose structure
:func:`check_csr` checks (``CsrMatrix.validate`` runs it too),
``bind_adam`` a parameter and its moment buffers, and ``bind_logistic``
a regression on two bound matrices. The compiled backend (``_csr_c``)
subclasses the bindings and calls :func:`check_sweep`,
:func:`check_bias`, :func:`check_rows` and the objective's passes'
checks, so both backends refuse the same operands with the same
messages.

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
a node's neighbors' ``w_rel`` rows in the compiled sweep's order. The
row-wise passes and the objective's row passes are the NumPy
expressions whose order and rounding the compiled ones follow; the
softmax's row max and row sums walk the columns of a row of 1 to 7
entries (:func:`row_max`, :func:`row_sum`). The compiled backend calls
these bodies itself for the operands its C passes do not take (see
:func:`compiled_rows`). All of them run under :func:`quiet`: an overflow
or an invalid operation gives its infinity or NaN without a warning, as
in C.
"""

import ctypes
from functools import cached_property

import numpy as np

# below this many active rows, a vectorised step costs more than adding
# the rest of their entries one by one with np.add.at
_TAIL_ROWS = 64


def quiet():
    """NumPy's overflow and invalid-operation warnings off, as a decorator
    for the arithmetic that the compiled backend runs silently."""
    return np.errstate(over="ignore", invalid="ignore")


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


@quiet()
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

    Calling it with a C-contiguous 2-D float64 ``x`` of ``n_cols`` rows
    checks ``x`` and returns A @ x, a new (n_rows, x.shape[1]) array.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        check_csr(n_rows, n_cols, indptr, indices, data)
        self.arrays = (indptr, indices, data)
        self.n_rows, self.n_cols = n_rows, n_cols
        self.spans = spans(("values", data), ("col_indices", indices),
                           ("row_offsets", indptr))

    def __call__(self, x):
        check_array("x", x, np.float64, 2)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"shape mismatch: ({self.n_rows}, {self.n_cols}) "
                             f"@ {x.shape}")
        out = np.zeros((self.n_rows, x.shape[1]))
        self.add(x, out)
        return out

    @cached_property
    def plan(self):
        """The rows' visiting order, planned on the first NumPy product."""
        return plan_rows(self.arrays[0])

    def add(self, x, out):
        """out += A @ x, unchecked: ``x`` as a call takes it, ``out`` a
        C-contiguous float64 (n_rows, x.shape[1]) array apart from both."""
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

    @quiet()
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


def check_bias(pre, bias) -> None:
    """Refuse, with one ValueError, operands of :func:`add_bias` other
    than a writeable C-contiguous 2-D float64 ``pre`` and a C-contiguous
    float64 ``bias`` of shape ``(1, pre.shape[1])`` apart from it."""
    check_array("pre", pre, np.float64, 2)
    check_writeable("pre", pre, pre.shape)
    check_array("bias", bias, np.float64, 2)
    if bias.shape != (1, pre.shape[1]):
        raise ValueError(f"bias must have shape (1, {pre.shape[1]}), got "
                         f"{bias.shape}")
    if bias.size:
        check_apart("bias", bias, address(bias), spans(("pre", pre)))


def check_rows(*named) -> None:
    """Refuse, with one ValueError, ``(name, array)`` operands other than
    C-contiguous 2-D float64 arrays of one shape."""
    for name, arr in named:
        check_array(name, arr, np.float64, 2)
    check_shapes(named)


def check_matrices(*named) -> None:
    """Refuse, with one ValueError, ``(name, array)`` operands other than
    2-D float64 arrays of one shape, in any memory layout."""
    for name, arr in named:
        if (not isinstance(arr, np.ndarray) or arr.dtype != np.float64
                or arr.ndim != 2):
            raise ValueError(f"{name} must be a 2-D float64 array")
    check_shapes(named)


def check_shapes(named) -> None:
    shapes = [arr.shape for _, arr in named]
    if len(set(shapes)) > 1:
        raise ValueError(f"{' and '.join(name for name, _ in named)} must "
                         f"have one shape, got {' and '.join(map(str, shapes))}")


@quiet()
def add_bias(pre, bias, relu=False):
    """``pre += bias`` in place, the (1, p) ``bias`` added to each row of
    the (n, p) ``pre``, then with ``relu`` ``np.maximum(pre, 0.0)`` in
    place too; returns ``pre``. See :func:`check_bias` for the operands."""
    check_bias(pre, bias)
    pre += bias
    if relu:
        np.maximum(pre, 0.0, out=pre)
    return pre


@quiet()
def column_sums(m):
    """``m.sum(axis=0, keepdims=True)`` of an (n, p) float64 matrix: with
    two or more columns each is added row by row from +0.0, one column
    NumPy sums pairwise."""
    check_rows(("m", m))
    return m.sum(axis=0, keepdims=True)


@quiet()
def relu_backward(g, out):
    """``g * (out > 0.0)``, a new array: ReLU's gradient given the output
    gradient ``g`` and ReLU's output ``out``, which is above zero exactly
    where its pre-activation is (elsewhere it is +0.0 or a NaN)."""
    check_rows(("g", g), ("out", out))
    return g * (out > 0.0)


# NumPy reduces a float64 row of fewer than 8 entries one entry at a time,
# left to right. A walk over the columns with whole-column ufuncs does the
# same arithmetic in the same order without NumPy's per-row reduction
# overhead: at the 7-wide class axis the max is about 10x and the sum 3x
# faster. From 8 entries on NumPy's sum switches to pairwise blocks, and
# from 9 its max to SIMD blocks that can keep the other zero of a -0.0/+0.0
# tie, so those widths go to NumPy; so does a 0-column matrix, whose max
# must raise ValueError. The compiled row passes of the objective take the
# walked widths and leave the others to the NumPy bodies below.
_BLOCKED_FROM = 8


def walked(m) -> bool:
    """Whether ``m``'s rows are walked column by column: 1 to 7 columns."""
    return 0 < m.shape[1] < _BLOCKED_FROM


def compiled_rows(*operands) -> bool:
    """Whether the compiled row passes may take ``operands``: C-contiguous
    arrays whose first has rows of 1 to 7 columns. The others go to the
    NumPy bodies, in both backends: where two NaNs meet, which one NumPy's
    loops keep can follow the operands' memory layout. The C passes also
    hand back operands that hold a NaN (see ``_csr_c``)."""
    return walked(operands[0]) and all(a.flags.c_contiguous
                                       for a in operands)


def row_max(m):
    """``m.max(axis=1, keepdims=True)`` of a float64 matrix, bit for bit,
    but for one nan sign: where a row's first entry is a negative nan,
    NumPy returns a positive one. Only the sign differs: a nan stays a nan.
    Walked rows take ``np.maximum`` column by column, which keeps the
    running max on a tie or when it is a nan, else takes the entry."""
    if not walked(m):
        return m.max(axis=1, keepdims=True)
    acc = m[:, 0].copy()
    for j in range(1, m.shape[1]):
        np.maximum(acc, m[:, j], out=acc)
    return acc[:, None]


def row_sum(m):
    """``m.sum(axis=1, keepdims=True)`` of a float64 matrix, bit for bit."""
    if not walked(m):
        return m.sum(axis=1, keepdims=True)
    acc = m[:, 0] + 0.0  # NumPy starts from +0.0: a row of -0.0 sums to +0.0
    for j in range(1, m.shape[1]):
        # out of place: of two NaNs, an add in place into a one-entry acc
        # keeps the other one than m.sum keeps
        acc = acc + m[:, j]
    return acc[:, None]


@quiet()
def softmax_rows(m):
    """Row-wise softmax with max subtraction for overflow safety, a new
    array: ``e / row_sum(e)`` with ``e = exp(m - row_max(m))``. A matrix of
    no columns is a ValueError, as NumPy's max of no entries is."""
    check_matrices(("m", m))
    shifted = m - row_max(m)
    e = np.exp(shifted)
    return e / row_sum(e)


@quiet()
def softmax_rows_backward(out, grad_out):
    """``out * (grad_out - row_sum(grad_out * out))``, a new array: the
    gradient through a row softmax given its output."""
    check_matrices(("out", out), ("grad_out", grad_out))
    return out * (grad_out - row_sum(grad_out * out))


def check_output_delta(z, onehot, rows, grad_q) -> None:
    """Refuse, with one ValueError, operands of :func:`output_delta` other
    than 2-D float64 ``z``, ``onehot`` and (unless None) ``grad_q`` of one
    shape, and a 1-D bool ``rows`` with one flag per row of ``z``."""
    named = [("z", z), ("onehot", onehot)]
    if grad_q is not None:
        named.append(("grad_q", grad_q))
    check_matrices(*named)
    if (not isinstance(rows, np.ndarray) or rows.dtype != np.bool_
            or rows.shape != z.shape[:1]):
        raise ValueError(f"rows must be a 1-D bool array of {z.shape[0]} "
                         f"flags")


@quiet()
def output_delta(z, onehot, rows, alpha, grad_q=None):
    """The gradient of ``(1 - alpha) * CE - alpha * Q`` w.r.t. the logits
    under the output softmax ``z``, a new array: ``(1 - alpha) * (z -
    onehot)`` on the training ``rows``, ``(1 - alpha) * 0.0`` on the
    others, and with ``grad_q``, Q's gradient w.r.t. ``z`` scaled as the
    loss takes it, ``alpha * softmax_rows_backward(z, grad_q)`` added.
    See :func:`check_output_delta` for the operands."""
    check_output_delta(z, onehot, rows, grad_q)
    grad = np.zeros_like(z)
    grad[rows] = z[rows] - onehot[rows]
    delta = (1.0 - alpha) * grad
    if grad_q is not None:
        delta += alpha * softmax_rows_backward(z, grad_q)
    return delta


def check_outer(m, u, v) -> None:
    """Refuse, with one ValueError, operands of :func:`subtract_outer`
    other than a writeable C-contiguous (n, p) float64 ``m`` and
    C-contiguous 1-D float64 ``u`` of n and ``v`` of p entries apart from
    it."""
    check_array("m", m, np.float64, 2)
    check_writeable("m", m, m.shape)
    for name, arr, size in (("u", u, m.shape[0]), ("v", v, m.shape[1])):
        check_array(name, arr, np.float64, 1)
        if arr.size != size:
            raise ValueError(f"{name} must hold {size} entries, got "
                             f"{arr.size}")
        if arr.size:
            check_apart(name, arr, address(arr), spans(("m", m)))


@quiet()
def subtract_outer(m, u, v, d):
    """``m -= np.outer(u, v) / d`` in place; returns ``m``. See
    :func:`check_outer` for the operands."""
    check_outer(m, u, v)
    m -= np.outer(u, v) / d
    return m


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

    @quiet()
    def step(self):
        self.t += 1
        bc1, bc2 = 1.0 - self.b1 ** self.t, 1.0 - self.b2 ** self.t
        pre, (grad_w, grad_b) = self.pre, self.grads
        pre.fill(0.0)
        self.x.add(self.w, pre)
        pre += self.b
        # the sigmoid 0.5 * (1 + tanh(0.5 * z)) stays finite for large |z|
        pre *= 0.5
        np.tanh(pre, out=pre)
        pre += 1.0
        pre *= 0.5
        pre -= self.y
        pre /= self.rows
        grad_w.fill(0.0)
        self.x_t.add(pre, grad_w)
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


@quiet()
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
