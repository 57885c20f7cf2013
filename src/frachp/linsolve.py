"""Direct solution of the SPD Galerkin system by dense Cholesky."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import linalg

__all__ = ["Solution", "NotSPDError", "cholesky_solve"]

log = logging.getLogger(__name__)


class NotSPDError(RuntimeError):
    """Raised when a non-positive pivot is met during factorization."""


@dataclass(frozen=True)
class Solution:
    """Coefficients c with A c = b, the residual norm, and c^T A c."""

    coeffs: np.ndarray
    residual_norm: float
    energy: float


def cholesky_solve(system):
    """Solve the system by Cholesky factorization with iterative refinement.

    Two refinement steps keep the residual at the 1e-10*||b|| level even for
    the ill-conditioned high-degree nodal bases.  A 1-norm condition estimate
    is logged at DEBUG level.
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
    b_norm = np.linalg.norm(b)
    for _ in range(2):
        r = b - A @ c
        if np.linalg.norm(r) <= 1e-14 * b_norm:
            break
        c = c + linalg.cho_solve(factor, r)
    residual = float(np.linalg.norm(b - A @ c))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solved N=%d system, cond_1 ~ %.3e, residual %.3e",
                  A.shape[0], np.linalg.cond(A, 1), residual)
    energy = float(c @ (A @ c))
    return Solution(coeffs=c, residual_norm=residual, energy=energy)
