"""Direct solution of the SPD Galerkin system by dense Cholesky.

The factor is computed left-looking in blocks of _BLOCK columns, from the
lower triangle of A alone, and kept as its block columns L[j:, j:j+_BLOCK]:
about N^2 / 2 entries, so a solve holds A and half as much again.  The
blocked forward and back substitutions walk the same block columns.

A persymmetric A, equal to A[::-1, ::-1] as the stiffness matrix of a
mirror-symmetric dof map is, maps even vectors (c = c[::-1]) to even ones
and odd to odd.  Above one block it is solved as two half-size systems,
the even half E = A[:h, :h] + A[:h, ::-1][:, :h], h = ceil(N/2), and the
odd half O = A[:m, :m] - A[:m, ::-1][:, :m], m = floor(N/2), each SPD
(y^T E y is half the energy of the even vector built from y).  Their
factors take a quarter of the flops of A's together and hold about N^2 / 8
entries each; they are built panel by panel straight from A, so neither
half is ever held whole.
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


def _cho_factor(A, half=None):
    """Lower Cholesky factor L of A, read from A's lower triangle only, as
    its block columns L[j:, j:k], with the inverses of their diagonal
    blocks; with half "even" or "odd", that of the even half E or the odd
    half O of a persymmetric A (module docstring), read from both of A's
    triangles.

    Left-looking: each block column of A is copied, takes the update of the
    block columns before it, its diagonal block is factored, and the panel
    below is multiplied by the inverse of that block.  The block columns
    hold the lower triangle alone, about half of an N x N array.  A block
    column of a half is that of A plus or minus A's mirrored columns
    n-k..n-j-1, reversed.
    """
    n = A.shape[0]
    size = {None: n, "even": (n + 1) // 2, "odd": n // 2}[half]
    panels, inverses = [], []
    for j in range(0, size, _BLOCK):
        k = min(j + _BLOCK, size)
        P = np.array(A[j:size, j:k], dtype=float)
        if half is not None:
            mirrored = A[j:size, n - k:n - j][:, ::-1]
            (np.add if half == "even" else np.subtract)(P, mirrored, out=P)
        for Q in panels:  # Q = L[i:, i:i + _BLOCK]
            i = size - len(Q)
            P -= Q[j - i:] @ Q[j - i:k - i].T
        try:
            diag = np.linalg.cholesky(P[:k - j])
        except np.linalg.LinAlgError:
            of = "" if half is None else f" of the {half} half"
            raise NotSPDError(
                f"matrix is not positive definite: the Cholesky factor{of} "
                f"fails in the diagonal block of rows {j}..{k - 1}") from None
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


# the factor and solve steps, called through this namespace so that a
# caller can wrap them (the traced benchmark times them separately)
linalg = SimpleNamespace(cho_factor=_cho_factor, cho_solve=_cho_solve)


def cholesky_solve(system):
    """Solve the system by one Cholesky factorization and one solve, or,
    for a persymmetric A of more than one block, by one each for its even
    half E and its odd half O (module docstring): E y and O v equal the
    first h and m entries of (b + b[::-1]) / 2 and (b - b[::-1]) / 2, and
    c = y + y[::-1] + v - v[::-1], y and v padded with zeros to length N.

    The residual r = b - A c gives the energy 2 b^T c - c^T A c as
    c^T b + c^T r, with no second matrix-vector product.
    """
    A = system.stiffness
    b = system.load
    if A.ndim != 2 or b.ndim != 1 or not A.shape[0] == A.shape[1] == len(b):
        raise ValueError("inconsistent system dimensions")
    n = len(b)
    h = (n + 1) // 2
    # one pass over the top h rows, a tile of 64 at a time with no N x N
    # temporary: each tile is finite and, above one block, equal to its
    # mirror tile reversed; row r >= h of a persymmetric A is row n-1-r
    # reversed, so only an A that does not split has those rows checked
    split = n > _BLOCK
    for r0 in range(0, h, _BLOCK):
        r1 = min(r0 + _BLOCK, h)
        if not np.isfinite(A[r0:r1]).all():
            raise ValueError("A has non-finite entries")
        split = split and np.array_equal(A[r0:r1],
                                         A[n - r1:n - r0][::-1, ::-1])
    if not (split or all(np.isfinite(A[r0:r0 + _BLOCK]).all()
                         for r0 in range(h, n, _BLOCK))):
        raise ValueError("A has non-finite entries")
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    if split:
        c = np.zeros(n)
        for half, size, sign in (("even", h, 1), ("odd", n // 2, -1)):
            y = linalg.cho_solve(linalg.cho_factor(A, half),
                                 0.5 * (b + sign * b[::-1])[:size])
            c[:size] += y
            c[n - size:] += sign * y[::-1]
    else:
        c = linalg.cho_solve(linalg.cho_factor(A), b)
    r = b - A @ c
    return Solution(coeffs=c, residual_norm=float(np.linalg.norm(r)),
                    energy=float(c @ b + c @ r))
