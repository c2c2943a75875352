"""The verification machinery itself: central differences on known
functions, then spot checks of the suite plumbing. The full suite runs as
an acceptance criterion."""

import numpy as np
import pytest

from modgcn import kernels
from modgcn.gradcheck import (_build_away_from_relu_kink, _random_graph,
                              check_layer_gradients, check_loss_gradients,
                              check_model_gradients, gradients_close,
                              numerical_gradient, run_full_suite)
from modgcn.model import ModelSpec
from modgcn.objectives import LabelMask


def test_numerical_gradient_of_quadratic():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    grad = numerical_gradient(lambda: float(np.sum(x * x)), x)
    np.testing.assert_allclose(grad, 2.0 * x, atol=1e-9)


def test_numerical_gradient_restores_argument():
    x = np.array([1.0, 2.0])
    numerical_gradient(lambda: float(np.sum(x)), x)
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_gradients_close_tolerances():
    a = np.array([1.0, 0.0])
    assert gradients_close(a, a + 1e-9)
    assert not gradients_close(a, a + 1e-3)


def test_layer_checks_pass():
    rng = np.random.default_rng(2)
    for activation in ("identity", "relu", "softmax_rows"):
        for result in check_layer_gradients(rng, activation):
            assert result.ok, result


def test_layer_check_names():
    names = [r.name for r in check_layer_gradients(np.random.default_rng(0),
                                                   "relu")]
    assert names == [
        "gconv-gcn[relu].w0", "gconv-gcn[relu].b", "gconv-gcn[relu].input",
        "gconv-chebnet[relu].w0", "gconv-chebnet[relu].w1",
        "gconv-chebnet[relu].w2", "gconv-chebnet[relu].w3",
        "gconv-chebnet[relu].b", "gconv-chebnet[relu].input",
        "dense[relu].w", "dense[relu].b", "dense[relu].input"]


def test_loss_checks_pass():
    rng = np.random.default_rng(3)
    for result in check_loss_gradients(rng):
        assert result.ok, result


def test_small_suite_is_clean_and_labeled():
    results = run_full_suite(seed=5, instances=6)
    assert all(r.ok for r in results)
    names = {r.name.split(":")[0] for r in results if ":" in r.name}
    # all six encoder/variant combinations appear
    assert {"gcn", "gcn-mod", "gcn-aux",
            "chebnet", "chebnet-mod", "chebnet-aux"} <= names


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("variant, classes, k_aux", [("mod", 9, 0),
                                                     ("aux", 3, 9)])
def test_a_nine_wide_head_passes_the_check(backend, variant, classes, k_aux):
    # The objective's row passes run in C on 1 to 7 columns and in NumPy
    # from 8; the suite draws 2 to 4 classes, so it never reaches NumPy's
    # side. Here the scored output is 9 wide: the output softmax of
    # gcn-mod, the aux head of gcn-aux.
    old = kernels.set_backend(backend)
    try:
        rng = np.random.default_rng(9)
        graph = _random_graph(rng, 12, 0.45, 4, classes)
        spec = ModelSpec(encoder="gcn", variant=variant, hidden_dim=4,
                         alpha=0.6, k_aux=k_aux)
        model = _build_away_from_relu_kink(spec, graph, 17)
        scored = model.layer2 if variant == "mod" else model.aux
        assert scored.bias.shape == (1, 9)
        mask = LabelMask.from_graph(graph, np.arange(0, 12, 2))
        results = check_model_gradients(graph, model, mask)
    finally:
        kernels.set_backend(old)
    assert results and all(r.ok for r in results), [r for r in results
                                                     if not r.ok]
