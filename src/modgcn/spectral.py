"""Largest-eigenvalue estimation and Chebyshev polynomial filters."""

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, Graph, normalized_laplacian, sparse_add

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChebFilter:
    """The filter sum_{k=lowest}^{order} T_k(S) Z_k of a symmetric sparse S.

    No T_k(S) is ever formed. ``apply`` evaluates the sum by Clenshaw's
    backward recurrence and ``basis`` gives [T_k(S) x] by the forward
    recurrence T_k = 2 S T_{k-1} - T_{k-2}; each takes ``order`` products
    with S. Every T_k(S) of a symmetric S is symmetric, so ``basis`` is
    the adjoint of ``apply``. ChebNet filters with S = Lt and lowest = 0;
    the first-order GCN is the single term T_1(A^) = A^.
    """

    operator: CsrMatrix
    order: int
    lowest: int = 0
    lambda_max: float = math.nan

    def __post_init__(self):
        if self.operator.n_rows != self.operator.n_cols:
            raise ValueError("filter operator must be square")
        if not 0 <= self.lowest <= self.order:
            raise ValueError(f"need 0 <= lowest <= order, got lowest={self.lowest}, "
                             f"order={self.order}")

    @property
    def size(self) -> int:
        """Number of terms, one weight matrix each."""
        return self.order - self.lowest + 1

    def basis(self, x: np.ndarray) -> list:
        """[T_k(S) @ x for k = lowest..order]."""
        s = self.operator
        terms = [x]
        if self.order >= 1:
            terms.append(s.dot(x))
        for _ in range(2, self.order + 1):
            terms.append(2.0 * s.dot(terms[-1]) - terms[-2])
        return terms[self.lowest:]

    def apply(self, zs) -> np.ndarray:
        """sum_k T_k(S) @ zs[k - lowest] for k = lowest..order."""
        if len(zs) != self.size:
            raise ValueError(f"need {self.size} filter inputs, got {len(zs)}")
        coef = [0.0] * self.lowest + list(zs)
        if self.order == 0:
            return coef[0]
        s = self.operator
        # b_k = c_k + 2 S b_{k+1} - b_{k+2} from b_K = c_K down to b_1;
        # the sum is then c_0 + S b_1 - b_2
        b1, b2 = coef[self.order], 0.0
        for k in range(self.order - 1, 0, -1):
            b1, b2 = coef[k] + 2.0 * s.dot(b1) - b2, b1
        return coef[0] + s.dot(b1) - b2


def power_iteration(m: CsrMatrix, tol: float = 1e-6, max_iters: int = 1000,
                    seed=0) -> float:
    """Estimate the dominant eigenvalue of a symmetric matrix.

    Iterates from a seeded random start vector and stops when successive
    Rayleigh quotients differ by less than ``tol``. If the budget runs out
    first, the best estimate is returned and a RuntimeWarning is emitted.
    """
    if m.n_rows != m.n_cols:
        raise ValueError("power iteration needs a square matrix")
    if m.nnz == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.n_rows)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = m.dot(v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # start vector happened to lie in the nullspace
            v = rng.standard_normal(m.n_rows)
            v /= np.linalg.norm(v)
            continue
        lam_new = float(v @ w)
        v = w / norm_w
        if abs(lam_new - lam) < tol:
            return lam_new
        lam = lam_new
    warnings.warn(f"power iteration did not converge in {max_iters} iterations",
                  RuntimeWarning)
    return lam


def rescale_laplacian(laplacian: CsrMatrix, lambda_max: float) -> CsrMatrix:
    """Map the Laplacian spectrum into [-1, 1]: Lt = 2L/lambda_max - I."""
    if not lambda_max > 0.0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    eye = CsrMatrix.identity(laplacian.n_rows)
    return sparse_add(laplacian.scaled(2.0 / lambda_max), eye, cb=-1.0)


def build_chebyshev_supports(g: Graph, order: int,
                             lambda_max: float | None = None) -> ChebFilter:
    """The order-K ChebNet filter of ``g``: Laplacian, lambda_max by power
    iteration (unless given), rescaled to Lt."""
    lap = normalized_laplacian(g)
    if lambda_max is None:
        lambda_max = power_iteration(lap)
        log.debug("power iteration lambda_max = %.8f", lambda_max)
    return ChebFilter(rescale_laplacian(lap, lambda_max), order, lambda_max=lambda_max)
