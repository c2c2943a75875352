"""Adam optimizer over named parameter dictionaries.

The arithmetic runs in the active kernel backend (``kernels.bind_adam``):
a single C pass per parameter, or the NumPy ufunc sequence, with the same
bits, and the same refusals. ``AdamState`` binds each parameter with its
moment buffers once, so a step checks and passes only the gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels

# Kingma & Ba's defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam; moment buffers are keyed like the parameters.

    ``bound`` holds, per key, the parameter array, the backend and their
    binding. A key is bound again when ``params[key]`` is another array
    or the backend changed. A copy or a pickle starts without bindings.
    """

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    bound: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @classmethod
    def create(cls, params: dict, lr: float) -> "AdamState":
        state = cls(lr)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state

    def __getstate__(self):
        return {**self.__dict__, "bound": {}}


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One Adam update, in place on ``params`` and ``state``.

    Parameters are stepped in order. Raises ValueError naming the
    parameter whose binding or gradient ``kernels.bind_adam`` refuses;
    that parameter and the ones after it are left unchanged.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    backend = kernels.backend_name()
    for key, p in params.items():
        g = grads[key]
        held = state.bound.get(key)
        try:
            if held is None or held[0] is not p or held[1] != backend:
                held = state.bound[key] = (p, backend, kernels.bind_adam(
                    p, state.m[key], state.v[key], BETA1, BETA2, EPS))
            held[2](g, state.lr, bc1, bc2)
        except ValueError as exc:
            raise ValueError(f"{exc} in {key!r}") from None
