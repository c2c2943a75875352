"""Adam optimizer over named parameter dictionaries."""

from dataclasses import dataclass, field

import numpy as np

# Kingma & Ba's defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam; moment buffers are keyed like the parameters."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def create(cls, params: dict, lr: float) -> "AdamState":
        state = cls(lr)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One Adam update, in place on ``params`` and ``state``.

    Raises ValueError naming the offending parameter if a gradient contains
    NaN or Inf.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{p.shape} for {key!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
