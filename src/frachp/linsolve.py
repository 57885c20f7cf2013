"""Direct solution of the SPD Galerkin system by dense Cholesky."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = ["Solution", "NotSPDError", "cholesky_solve"]

# columns per block of the factorization and the triangular solves
_BLOCK = 64


class NotSPDError(RuntimeError):
    """Raised when a non-positive pivot is met during factorization."""


@dataclass(frozen=True)
class Solution:
    """Coefficients c of A c = b, the residual norm ||b - A c||, and the
    discrete energy 2 b^T c - c^T A c.

    The energy equals c^T A c = b^T c at the exact solution and is
    stationary there, so a solve error moves it only to second order.
    """

    coeffs: np.ndarray
    residual_norm: float
    energy: float


def _cho_factor(A):
    """Lower Cholesky factor L of A (only its lower triangle is read), with
    the inverses of its diagonal blocks.

    Left-looking in column blocks: each block column takes the update of
    the columns before it, its diagonal block is factored, and the panel
    below is multiplied by the inverse of that block.  The copy of A is the
    one N x N array; its upper triangle is cleared block by block.
    """
    L = np.array(A, dtype=float)
    n = L.shape[0]
    inverses = []
    for j in range(0, n, _BLOCK):
        k = min(j + _BLOCK, n)
        if j:
            L[j:, j:k] -= L[j:, :j] @ L[j:k, :j].T
        try:
            diag = np.linalg.cholesky(L[j:k, j:k])
        except np.linalg.LinAlgError:
            raise NotSPDError(
                "matrix is not positive definite: the Cholesky factor fails "
                f"in the diagonal block of rows {j}..{k - 1}") from None
        L[j:k, j:] = 0.0
        L[j:k, j:k] = diag
        inverses.append(np.linalg.inv(diag))
        L[k:, j:k] = L[k:, j:k] @ inverses[-1].T
    return L, inverses


def _cho_solve(factor, b):
    """Solve L L^T c = b by blocked forward and back substitution."""
    L, inverses = factor
    c = np.array(b, dtype=float)
    starts = range(0, L.shape[0], _BLOCK)
    for j, inv in zip(starts, inverses):
        k = j + inv.shape[0]
        c[j:k] = inv @ (c[j:k] - L[j:k, :j] @ c[:j])
    for j, inv in zip(reversed(starts), reversed(inverses)):
        k = j + inv.shape[0]
        c[j:k] = inv.T @ (c[j:k] - L[k:, j:k].T @ c[k:])
    return c


# scipy.linalg's names, called through this namespace so that a caller can
# wrap the two steps (the traced benchmark times them separately)
linalg = SimpleNamespace(cho_factor=_cho_factor, cho_solve=_cho_solve)


def cholesky_solve(system):
    """Solve the system by one Cholesky factorization and one solve.

    The residual r = b - A c gives the energy 2 b^T c - c^T A c as
    c^T b + c^T r, with no second matrix-vector product.
    """
    A = system.stiffness
    b = system.load
    if A.ndim != 2 or b.ndim != 1 or not A.shape[0] == A.shape[1] == len(b):
        raise ValueError("inconsistent system dimensions")
    for name, array in (("A", A), ("b", b)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has non-finite entries")
    c = linalg.cho_solve(linalg.cho_factor(A), b)
    r = b - A @ c
    return Solution(coeffs=c, residual_norm=float(np.linalg.norm(r)),
                    energy=float(c @ b + c @ r))
