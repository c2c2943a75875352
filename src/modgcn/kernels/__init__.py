"""The CSR x dense product, with a compiled core and a NumPy fallback.

The backend is chosen on first use: the C kernel if it compiled and loaded
at import (see ``_csr_c``), else the pure-NumPy implementation.
``MODGCN_KERNELS=py|c|auto`` in the environment forces a choice. It is read
on first use, not at import, so that a name that cannot be honoured (``c``
with no compiler) is one ``ValueError`` from the first product or
:func:`backend_name` rather than a failed ``import modgcn``.
:func:`set_backend` exists for tests and benchmarks. Both backends produce
deterministic results for a fixed input.
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
    global _active, _active_name
    name = _ALIASES.get(name, name)
    if name is None:
        name = "c" if "c" in _BACKENDS else "numpy"
    if name not in _BACKENDS:
        problem = (f"kernel backend {name!r} is not available" if name in _KNOWN
                   else f"unknown kernel backend {name!r}")
        raise ValueError(f"{problem}; available: {available_backends()}")
    old = _active_name
    _active_name = name
    _active = _BACKENDS[name]
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
_active = None


def _as_dense(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got shape {x.shape}")
    return x


def csr_dense_matmul(n_rows, n_cols, indptr, indices, data, x):
    """A @ x where A is (n_rows, n_cols) CSR and x is dense (n_cols, p)."""
    x = _as_dense(x)
    if x.shape[0] != n_cols:
        raise ValueError(f"shape mismatch: ({n_rows}, {n_cols}) @ {x.shape}")
    if _active is None:
        backend_name()
    out = np.zeros((n_rows, x.shape[1]))
    _active.spmm(indptr, indices, data, x, out)
    return out

