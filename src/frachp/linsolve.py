"""Direct solution of the SPD Galerkin system by dense Cholesky."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

__all__ = ["Solution", "NotSPDError", "cholesky_solve"]


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


def cholesky_solve(system):
    """Solve the system by one Cholesky factorization and one solve.

    The residual r = b - A c gives the energy 2 b^T c - c^T A c as
    c^T b + c^T r, with no second matrix-vector product.
    """
    A = system.stiffness
    b = system.load
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise ValueError("inconsistent system dimensions")
    try:
        factor = linalg.cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"matrix is not positive definite: {exc}") from exc
    c = linalg.cho_solve(factor, b)
    r = b - A @ c
    return Solution(coeffs=c, residual_norm=float(np.linalg.norm(r)),
                    energy=float(c @ b + c @ r))
