"""The CSR x dense product, the Adam step, a logistic-regression step and
ICA's inference sweeps, each with a compiled core and a NumPy fallback.

The backend is chosen on first use: the C kernel if it compiled and loaded
at import (see ``_csr_c``), else the pure-NumPy implementation.
``MODGCN_KERNELS=py|c|auto`` in the environment forces a choice. It is read
on first use, not at import, so that a name that cannot be honoured (``c``
with no compiler) is one ``ValueError`` from the first product or
:func:`backend_name` rather than a failed ``import modgcn``.
:func:`set_backend` exists for tests and benchmarks. Both backends add
each output entry's terms in the same order, and make each Adam and
regression operation in the same order, so they compute the same bits for
every input. The sweeps (:func:`relabel`) add a node's neighbours'
``w_rel`` rows one at a time from +0.0 in both backends, rather than
multiplying label counts by ``w_rel`` with BLAS, whose bits follow the
CPU kernel OpenBLAS selects; so their labels are the same on every
machine.

A backend checks the operands that stay fixed once, in a binding, and
both backends make the same checks (see ``_csr_np``). A CSR matrix's
binding checks its structure once per backend; a ``CsrMatrix`` keeps it
(``csr_dense_matmul``'s ``bindings``) for its products, regressions and
sweeps. A binding belongs to the backend that made it, so a caller that
keeps one keeps it under :func:`backend_name`.
"""

import os

import numpy as np

from . import _csr_c, _csr_np

_BACKENDS = {"numpy": _csr_np}
_compiled = _csr_c.load()
if _compiled is not None:
    _BACKENDS["c"] = _compiled

_KNOWN = ("numpy", "c")
_ALIASES = {"py": "numpy", "auto": None}


def available_backends():
    return sorted(_BACKENDS)


def set_backend(name):
    """Select the kernel backend ('numpy' or 'c'). Returns the old name."""
    global _active_name
    name = _ALIASES.get(name, name)
    if name is None:
        name = "c" if "c" in _BACKENDS else "numpy"
    if name not in _BACKENDS:
        problem = (f"kernel backend {name!r} is not available" if name in _KNOWN
                   else f"unknown kernel backend {name!r}")
        raise ValueError(f"{problem}; available: {available_backends()}")
    old, _active_name = _active_name, name
    return old


def backend_name():
    """The active backend's name, selected from ``MODGCN_KERNELS`` if unset."""
    if _active_name is None:
        value = os.environ.get("MODGCN_KERNELS", "auto")
        try:
            set_backend(value)
        except ValueError as exc:
            raise ValueError(f"MODGCN_KERNELS={value!r}: {exc}") from None
    return _active_name


_active_name = None


def _bound(n_rows, n_cols, indptr, indices, data, bindings):
    """The active backend's binding of an (n_rows, n_cols) CSR matrix,
    which checks its structure once. ``bindings``, a dict kept with the
    matrix or None, holds it under the backend's name for later calls."""
    name = backend_name()
    bound = None if bindings is None else bindings.get(name)
    if bound is None:
        bound = _BACKENDS[name].bind_csr(n_rows, n_cols, indptr, indices, data)
        if bindings is not None:
            bindings[name] = bound
    return bound


def _bound_matrix(m):
    """:func:`_bound` for a ``CsrMatrix``, kept with the matrix."""
    return _bound(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values,
                  m._bindings)


def _as_dense(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got shape {x.shape}")
    return x


def csr_dense_matmul(n_rows, n_cols, indptr, indices, data, x, out=None,
                     bindings=None):
    """A @ x where A is (n_rows, n_cols) CSR and x is dense (n_cols, p).

    ``out``, if given, receives the product and is returned: a writeable,
    C-contiguous float64 (n_rows, p) array that overlaps neither x nor A.
    ``bindings`` is a dict that the caller keeps with A's three arrays:
    the active backend's binding of them is kept in it under the backend's
    name, so a later product with the same dict checks only x and out.
    """
    bound = _bound(n_rows, n_cols, indptr, indices, data, bindings)
    x = _as_dense(x)
    if out is None:
        out = np.zeros((n_rows, x.shape[1]))
        bound(x, out)
    else:
        bound(x, out, zero_first=True)
    return out


def bind_adam(p, m, v, b1, b2, eps):
    """The active backend's Adam step for parameter ``p`` and its moment
    buffers ``m`` and ``v``; see ``_csr_np.AdamBinding``."""
    return _BACKENDS[backend_name()].bind_adam(p, m, v, b1, b2, eps)


def bind_logistic(x, x_t, y, params, l2, lr, b1, b2, eps):
    """The active backend's logistic regression on ``CsrMatrix`` ``x``
    (with its transpose ``x_t``) and targets ``y``, stepping ``params``'
    weights and bias in place; see ``_csr_np.LogisticBinding``."""
    bound = _bound_matrix(x), _bound_matrix(x_t)
    return _BACKENDS[backend_name()].bind_logistic(*bound, y, params, l2, lr,
                                                   b1, b2, eps)


def relabel(adjacency, state, unlabeled, base_logits, w_rel, max_iters):
    """ICA's inference sweeps in the active backend, in place on ``state``,
    on the ``CsrMatrix`` ``adjacency``; returns ``(iterations, converged,
    visits)``. See ``_csr_np.relabel`` for what they compute and
    ``_csr_np.check_sweep`` for the operands."""
    bound = _bound_matrix(adjacency)
    return _BACKENDS[backend_name()].relabel(bound, state, unlabeled,
                                             base_logits, w_rel, max_iters)
