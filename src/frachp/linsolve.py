"""Direct solution of the SPD Galerkin system by dense Cholesky.

The factor is computed left-looking in blocks of _BLOCK columns, from the
lower triangle of A alone, and kept as its block columns L[j:, j:j+_BLOCK]:
about N^2 / 2 entries, so a solve holds A and half as much again.  The
blocked forward and back substitutions walk the same block columns.
"""

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
    """Lower Cholesky factor L of A, read from A's lower triangle only, as
    its block columns L[j:, j:k], with the inverses of their diagonal
    blocks.

    Left-looking: each block column of A is copied, takes the update of the
    block columns before it, its diagonal block is factored, and the panel
    below is multiplied by the inverse of that block.  The block columns
    hold the lower triangle alone, about half of an N x N array.
    """
    n = A.shape[0]
    panels, inverses = [], []
    for j in range(0, n, _BLOCK):
        k = min(j + _BLOCK, n)
        P = np.array(A[j:, j:k], dtype=float)
        for Q in panels:  # Q = L[i:, i:i + _BLOCK]
            i = n - len(Q)
            P -= Q[j - i:] @ Q[j - i:k - i].T
        try:
            diag = np.linalg.cholesky(P[:k - j])
        except np.linalg.LinAlgError:
            raise NotSPDError(
                "matrix is not positive definite: the Cholesky factor fails "
                f"in the diagonal block of rows {j}..{k - 1}") from None
        P[:k - j] = diag
        inverses.append(np.linalg.inv(diag))
        P[k - j:] = P[k - j:] @ inverses[-1].T
        panels.append(P)
    return panels, inverses


def _cho_solve(factor, b):
    """Solve L L^T c = b by blocked forward and back substitution, one
    block column of L at a time."""
    panels, inverses = factor
    c = np.array(b, dtype=float)
    n = len(c)
    for P, inv in zip(panels, inverses):
        j = n - len(P)
        k = j + len(inv)
        c[j:k] = inv @ c[j:k]
        c[k:] -= P[k - j:] @ c[j:k]
    for P, inv in zip(reversed(panels), reversed(inverses)):
        j = n - len(P)
        k = j + len(inv)
        c[j:k] = inv.T @ (c[j:k] - P[k - j:].T @ c[k:])
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
