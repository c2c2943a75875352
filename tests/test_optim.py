"""Adam update rule against hand-computed steps."""

import numpy as np
import pytest

from modgcn.optim import BETA1, BETA2, EPS, AdamState, adam_step


def test_first_step_moves_by_lr_for_large_gradient():
    # with bias correction, step 1 gives mhat = g and vhat = g*g, so the
    # update is lr * g / (|g| + eps): essentially lr * sign(g)
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([10.0, -0.5, 2.0])}
    state = AdamState.create(params, lr=0.1)
    adam_step(state, params, grads)
    want = np.array([1.0, -2.0, 3.0]) - 0.1 * np.sign([10.0, -0.5, 2.0])
    np.testing.assert_allclose(params["w"], want, atol=1e-8)


def test_two_steps_match_manual_recurrence():
    lr, b1, b2, eps = 0.05, BETA1, BETA2, EPS
    p = np.array([0.7])
    params = {"w": p.copy()}
    state = AdamState.create(params, lr=lr)
    g1, g2 = np.array([0.3]), np.array([-0.2])

    m = v = np.zeros(1)
    ref = p.copy()
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)

    adam_step(state, params, {"w": g1})
    adam_step(state, params, {"w": g2})
    np.testing.assert_allclose(params["w"], ref, atol=1e-15)
    assert state.step == 2


def test_zero_gradient_keeps_params():
    params = {"w": np.array([[1.0, 2.0]])}
    state = AdamState.create(params, lr=0.1)
    adam_step(state, params, {"w": np.zeros((1, 2))})
    np.testing.assert_array_equal(params["w"], [[1.0, 2.0]])


def test_updates_happen_in_place():
    w = np.array([1.0])
    params = {"w": w}
    state = AdamState.create(params, lr=0.1)
    adam_step(state, params, {"w": np.array([1.0])})
    assert params["w"] is w
    assert w[0] != 1.0


def test_missing_gradient_key_raises():
    params = {"w": np.array([1.0])}
    state = AdamState.create(params, lr=0.1)
    with pytest.raises(KeyError):
        adam_step(state, params, {})


def test_non_finite_gradient_raises():
    params = {"w": np.array([1.0])}
    state = AdamState.create(params, lr=0.1)
    with pytest.raises(ValueError, match="non-finite gradient"):
        adam_step(state, params, {"w": np.array([np.nan])})


def test_shape_mismatch_raises():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.create(params, lr=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(state, params, {"w": np.array([1.0])})
