"""Power iteration and the Chebyshev filter basis against closed forms."""

import warnings

import numpy as np
import pytest

from conftest import random_graph
from modgcn.sparse import CsrMatrix, build_graph, normalized_laplacian
from modgcn.spectral import (ChebFilter, build_chebyshev_supports,
                             power_iteration, rescale_laplacian)


def complete_graph(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(edges, np.zeros((n, 1)), np.arange(n) % 2)


def closed_form_supports(lt: np.ndarray, order: int):
    """T_0..T_order of a symmetric matrix, from the explicit polynomials
    rather than the recursion."""
    eye = np.eye(len(lt))
    lt2 = lt @ lt
    forms = [eye, lt, 2.0 * lt2 - eye, 4.0 * lt @ lt2 - 3.0 * lt,
             8.0 * lt2 @ lt2 - 8.0 * lt2 + eye]
    return forms[:order + 1]


class TestPowerIteration:
    def test_k2_lambda_max_is_two(self):
        lap = normalized_laplacian(complete_graph(2))
        assert power_iteration(lap) == pytest.approx(2.0, abs=1e-6)

    def test_k3_lambda_max_is_three_halves(self):
        lap = normalized_laplacian(complete_graph(3))
        assert power_iteration(lap) == pytest.approx(1.5, abs=1e-6)

    def test_matches_dense_eigenvalue(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 15)))
            lap = normalized_laplacian(g)
            want = np.max(np.abs(np.linalg.eigvalsh(lap.to_dense())))
            got = power_iteration(lap, tol=1e-13, max_iters=50_000)
            assert got == pytest.approx(want, abs=1e-6)

    def test_returns_python_float(self):
        lap = normalized_laplacian(complete_graph(2))
        assert type(power_iteration(lap)) is float

    def test_warns_when_budget_exhausted(self):
        g = random_graph(np.random.default_rng(12), 12, p=0.3)
        lap = normalized_laplacian(g)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            power_iteration(lap, max_iters=1)

    def test_zero_matrix_gives_zero(self):
        m = CsrMatrix.from_dense(np.zeros((3, 3)))
        assert power_iteration(m) == 0.0


class TestRescale:
    def test_k2_rescaled_laplacian(self):
        lap = normalized_laplacian(complete_graph(2))
        lt = rescale_laplacian(lap, 2.0).to_dense()
        np.testing.assert_allclose(lt, [[0.0, -1.0], [-1.0, 0.0]],
                                   atol=1e-15)

    def test_rejects_nonpositive_lambda(self):
        lap = normalized_laplacian(complete_graph(2))
        with pytest.raises(ValueError, match="lambda_max"):
            rescale_laplacian(lap, 0.0)

    def test_matches_dense(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 9)
        lap = normalized_laplacian(g)
        lam = power_iteration(lap)
        want = 2.0 * lap.to_dense() / lam - np.eye(9)
        np.testing.assert_allclose(rescale_laplacian(lap, lam).to_dense(),
                                   want, atol=1e-13)


def random_filter(rng, order):
    g = random_graph(rng, int(rng.integers(3, 21)))
    lap = normalized_laplacian(g)
    return ChebFilter(rescale_laplacian(lap, power_iteration(lap)), order)


class TestChebyshevRecursion:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cheb = random_filter(rng, order=4)
            n = cheb.operator.n_rows
            want = closed_form_supports(cheb.operator.to_dense(), 4)
            got = cheb.basis(np.eye(n))
            assert len(got) == 5
            for t, ref in zip(got, want):
                np.testing.assert_allclose(t, ref, atol=1e-10)
            zs = [rng.standard_normal((n, 3)) for _ in range(5)]
            np.testing.assert_allclose(
                cheb.apply(zs), sum(t @ z for t, z in zip(want, zs)),
                atol=1e-10)

    def test_apply_and_basis_are_adjoint(self):
        # <sum_k T_k z_k, y> = sum_k <z_k, T_k y>, which is what lets the
        # backward pass run the forward recurrence
        rng = np.random.default_rng(17)
        for order in range(6):
            cheb = random_filter(rng, order)
            n = cheb.operator.n_rows
            zs = [rng.standard_normal((n, 2)) for _ in range(order + 1)]
            y = rng.standard_normal((n, 2))
            lhs = np.sum(cheb.apply(zs) * y)
            rhs = sum(np.sum(z * u) for z, u in zip(zs, cheb.basis(y)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_lowest_drops_leading_terms(self):
        rng = np.random.default_rng(18)
        full = random_filter(rng, order=3)
        tail = ChebFilter(full.operator, order=3, lowest=2)
        n = full.operator.n_rows
        x = rng.standard_normal((n, 2))
        zs = [rng.standard_normal((n, 2)) for _ in range(2)]
        assert tail.size == 2
        for got, want in zip(tail.basis(x), full.basis(x)[2:]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(
            tail.apply(zs), full.apply([np.zeros((n, 2))] * 2 + zs),
            atol=1e-12)

    def test_k2_second_order_support_is_identity(self):
        # L~ for K2 is the swap matrix, so T_2 = 2*L~^2 - I = I
        lap = normalized_laplacian(complete_graph(2))
        cheb = ChebFilter(rescale_laplacian(lap, 2.0), order=2)
        np.testing.assert_allclose(cheb.basis(np.eye(2))[2], np.eye(2),
                                   atol=1e-15)

    def test_order_zero_is_identity_only(self):
        lap = normalized_laplacian(complete_graph(3))
        cheb = ChebFilter(rescale_laplacian(lap, 1.5), order=0)
        x = np.arange(6.0).reshape(3, 2)
        assert cheb.size == 1
        np.testing.assert_array_equal(cheb.basis(x)[0], x)
        np.testing.assert_array_equal(cheb.apply([x]), x)

    def test_rejects_negative_order(self):
        lap = normalized_laplacian(complete_graph(3))
        with pytest.raises(ValueError, match="order"):
            ChebFilter(rescale_laplacian(lap, 1.5), order=-1)
        with pytest.raises(ValueError, match="filter inputs"):
            ChebFilter(lap, order=1).apply([np.ones((3, 1))])


class TestBuildSupports:
    def test_orchestration_and_lambda_override(self):
        g = complete_graph(3)
        auto = build_chebyshev_supports(g, order=2)
        assert auto.lambda_max == pytest.approx(1.5, abs=1e-6)
        assert auto.order == 2
        forced = build_chebyshev_supports(g, order=2, lambda_max=1.5)
        assert forced.lambda_max == 1.5
        np.testing.assert_allclose(auto.operator.to_dense(),
                                   forced.operator.to_dense(), atol=1e-6)

    def test_supports_are_symmetric(self):
        # the backward pass applies each T_k(L~) as its own transpose
        rng = np.random.default_rng(15)
        g = random_graph(rng, 10)
        cheb = build_chebyshev_supports(g, order=3)
        lt = cheb.operator.to_dense()
        np.testing.assert_array_equal(lt, lt.T)
        for t in cheb.basis(np.eye(10)):
            np.testing.assert_allclose(t, t.T, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 10)
        a = build_chebyshev_supports(g, order=2)
        b = build_chebyshev_supports(g, order=2)
        assert a.lambda_max == b.lambda_max
        np.testing.assert_array_equal(a.operator.to_dense(),
                                      b.operator.to_dense())
        x = rng.standard_normal((10, 3))
        for ta, tb in zip(a.basis(x), b.basis(x)):
            np.testing.assert_array_equal(ta, tb)

    def test_empty_graph_supports(self):
        # no edges: L = I, so every T_k is diagonal
        g = build_graph([], np.zeros((3, 1)), np.array([0, 1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cheb = build_chebyshev_supports(g, order=2)
        for t in cheb.basis(np.eye(3)):
            np.testing.assert_array_equal(t, np.diag(np.diag(t)))
