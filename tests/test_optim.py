"""Adam update rule against hand-computed steps, and its bindings on each
kernel backend."""

import pickle

import numpy as np
import pytest

from modgcn import kernels
from modgcn.kernels import _csr_c, _csr_np
from modgcn.optim import BETA1, BETA2, EPS, AdamState, adam_step

needs_c = pytest.mark.skipif("c" not in kernels.available_backends(),
                             reason="C kernel not built")


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


@pytest.fixture
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.set_backend(previous)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_non_finite_gradient_leaves_that_parameter_untouched(backend,
                                                             restore_backend):
    # parameters step in order: the first is updated, the second, whose
    # gradient holds an infinity, keeps its value and its moments
    kernels.set_backend(backend)
    params = {"a": np.array([[1.0, -2.0]]), "b": np.array([0.5, 0.25])}
    state = AdamState.create(params, lr=0.1)
    with pytest.raises(ValueError, match="non-finite gradient in 'b'"):
        adam_step(state, params, {"a": np.array([[0.3, -0.1]]),
                                  "b": np.array([1.0, np.inf])})
    reference = {"a": np.array([[1.0, -2.0]])}
    adam_step(AdamState.create(reference, lr=0.1), reference,
              {"a": np.array([[0.3, -0.1]])})
    assert params["a"].tobytes() == reference["a"].tobytes()
    assert params["b"].tolist() == [0.5, 0.25]
    assert not state.m["b"].any() and not state.v["b"].any()


@needs_c
def test_non_finite_gradient_updates_the_same_bits_on_every_backend(
        restore_backend):
    got = []
    for backend in ("numpy", "c"):
        kernels.set_backend(backend)
        params = {"a": np.linspace(-1.0, 1.0, 12).reshape(3, 4),
                  "b": np.ones(3)}
        state = AdamState.create(params, lr=0.01)
        with pytest.raises(ValueError, match="'b'"):
            adam_step(state, params, {"a": np.full((3, 4), 0.7),
                                      "b": np.array([0.0, np.nan, 1.0])})
        got.append([a.tobytes() for a in (params["a"], state.m["a"],
                                          state.v["a"], params["b"])])
    assert got[0] == got[1]


def test_binding_follows_a_replaced_parameter_and_the_backend(
        restore_backend):
    old = np.array([1.0, 2.0])
    params = {"w": old}
    state = AdamState.create(params, lr=0.1)
    adam_step(state, params, {"w": np.array([1.0, 1.0])})
    stepped = old.copy()
    params["w"] = new = np.array([3.0, 4.0])
    adam_step(state, params, {"w": np.array([1.0, 1.0])})
    assert old.tolist() == stepped.tolist()
    assert new[0] != 3.0 and new[1] != 4.0
    assert state.bound["w"][0] is new
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        adam_step(state, params, {"w": np.array([1.0, 1.0])})
        assert state.bound["w"][1] == backend
        want = _csr_c.CompiledAdam if backend == "c" else _csr_np.AdamBinding
        assert type(state.bound["w"][2]) is want


def test_every_backend_refuses_a_fortran_order_parameter(restore_backend):
    # a Fortran-order parameter cannot be stepped as one flat C pass, and
    # no backend steps it another way
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        params = {"w": np.asfortranarray(np.arange(6.0).reshape(2, 3))}
        state = AdamState.create(params, lr=0.1)
        with pytest.raises(ValueError) as err:
            adam_step(state, params, {"w": np.full((2, 3), 0.5)})
        assert str(err.value) == ("the parameter must be a C-contiguous "
                                  "2-D float64 array in 'w'")
        assert params["w"].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


@needs_c
def test_c_step_refuses_a_gradient_that_overlaps_the_parameter(
        restore_backend):
    kernels.set_backend("c")
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.create(params, lr=0.1)
    with pytest.raises(ValueError, match="must not share memory"):
        adam_step(state, params, {"w": params["w"]})
    assert params["w"].tolist() == [1.0, 2.0]


def test_a_pickled_state_starts_without_bindings():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.create(params, lr=0.1)
    adam_step(state, params, {"w": np.array([1.0, 1.0])})
    copy = pickle.loads(pickle.dumps(state))
    assert copy.bound == {} and copy.step == 1
    assert copy.m["w"].tobytes() == state.m["w"].tobytes()
