"""Gauss rules and singular product-domain schemes for the kernel |x-z|^(1-2s).

For continuous piecewise polynomials the bilinear-form numerator
(u(x)-u(z))(v(x)-v(z)) vanishes to second order on the diagonal, so every
element-pair contribution reduces to

    I = iint g(x, z) |x - z|^(1-2s) dz dx

with g smooth on the pair domain (after a Duffy split at the shared vertex
for adjacent pairs).  The schemes below absorb the kernel factor into the
weights:

* identical pairs T x T are split along the diagonal, and the scheme is
  the triangle z < x alone, the other being its mirror; the diagonal
  distance carries a Gauss-Jacobi weight with exponent 1-2s (the triangular
  measure factor is absorbed as well), tensored with Gauss-Legendre along
  the element;
* adjacent pairs use distances from the shared vertex, normalized per
  element, and a Duffy substitution; the radial variable carries a
  Gauss-Jacobi weight (kernel exponent 1-2s plus the Duffy Jacobian) and
  the angular variable is Gauss-Legendre;
* disjoint pairs use tensor Gauss-Legendre with the (smooth) kernel
  evaluated pointwise, adding ceil(log2(size/dist)) points per direction
  when the pair is near-singular.

The identical and adjacent schemes are defined in per-element reference
coordinates and the disjoint points are Gauss-Legendre points of each
element, so the points seen by an element's shape functions never depend on
the element lengths; only the weights do.  The assembly tabulates shape
functions on these schemes once per pair class and degree.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = []


@lru_cache(maxsize=None)
def _rule01(n):
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


# Up to this many points the rule comes from the eigenvectors of the Jacobi
# matrix; above it, from Newton's method on the recurrence, which needs no
# n x n matrix (the weighted rules of `approx` reach 1024 points).
_EIGH_MAX = 64

_JACOBI_CACHE = 128  # the paper's studies use 74 distinct rules


@lru_cache(maxsize=_JACOBI_CACHE)
def _jacobi01(n, exp0, exp1):
    """Rule on (0, 1) with the weight t^exp0 (1-t)^exp1 absorbed.

    The rules are kept, read-only, for the _JACOBI_CACHE most recently used
    (n, exp0, exp1).  The exponents of the singular schemes move with s, so
    an unbounded cache would grow with every new s; this bound holds the
    whole working set of the paper's studies, the 128- to 1024-point
    Newton rules of the weighted integrals included, and a sweep over many
    s evicts only its own older rules.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"number of points must be >= 1, got {n}")
    if not (exp0 > -1.0 and exp1 > -1.0):
        raise ValueError(
            f"weight exponents must exceed -1, got {exp0} and {exp1}")
    if exp0 == 0.0 and exp1 == 0.0:
        return _rule01(n)
    if n <= _EIGH_MAX:
        t, wt = _golub_welsch(n, exp0, exp1)
    else:
        t, wt = _jacobi_newton(n, exp0, exp1)
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


def _jacobi_matrix(n, alpha, beta):
    """Recurrence coefficients of the Jacobi polynomials orthonormal for
    (1-x)^alpha (1+x)^beta on (-1, 1): x p_k = b_{k+1} p_{k+1} + a_k p_k
    + b_k p_{k-1}.  Returns (a_0..a_{n-1}, b_1..b_n)."""
    ab = alpha + beta
    s = 2.0 * np.arange(1, n) + ab
    a = np.empty(n)
    a[0] = (beta - alpha) / (ab + 2.0)
    a[1:] = (beta - alpha) * (beta + alpha) / (s * (s + 2.0))
    b2 = np.empty(n)
    # k = 1 apart: the factor 1 + ab cancels there, and vanishes at ab = -1
    b2[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))
    k = np.arange(2.0, n + 1.0)
    s = 2.0 * k + ab
    b2[1:] = (4.0 * k * (k + alpha) * (k + beta) * (k + ab)
              / (s * s * (s + 1.0) * (s - 1.0)))
    return a, np.sqrt(b2)


def _weight_mass(exp0, exp1):
    """int_0^1 t^exp0 (1-t)^exp1 dt = B(exp0 + 1, exp1 + 1)."""
    return math.exp(math.lgamma(exp0 + 1.0) + math.lgamma(exp1 + 1.0)
                    - math.lgamma(exp0 + exp1 + 2.0))


def _golub_welsch(n, exp0, exp1):
    """Nodes as eigenvalues of the Jacobi matrix, weights as the mass times
    the squared first eigenvector components (Golub & Welsch, 1969)."""
    a, b = _jacobi_matrix(n, exp1, exp0)
    x, V = np.linalg.eigh(np.diag(a) + np.diag(b[:-1], -1))
    return 0.5 * (x + 1.0), _weight_mass(exp0, exp1) * V[0] ** 2


def _orthonormal_sweep(x, a, b):
    """(p_{n-1}(x), p_n(x), sum_{k<n} p_k(x)^2) by the recurrence, p_0 = 1."""
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(len(a)):
        p_prev, p = p, ((x - a[k]) * p - b[k - 1] * p_prev) / b[k]
        if k < len(a) - 1:
            total += p * p
    return p_prev, p, total


def _jacobi_newton(n, exp0, exp1):
    """Nodes by Newton's method in the angle theta, x = cos(theta), on the
    orthonormal recurrence, started from the interior asymptotic guesses of
    Gatteschi's type (Hale & Townsend, 2013); weights are the Christoffel
    numbers mass / sum_{k<n} p_k^2."""
    alpha, beta = exp1, exp0  # x = 2t - 1, so (1-x)^alpha carries (1-t)^exp1
    a, b = _jacobi_matrix(n, alpha, beta)
    ab = alpha + beta
    rho = n + 0.5 * (ab + 1.0)
    phi = (np.arange(n, 0, -1) + 0.5 * alpha - 0.25) * (np.pi / rho)
    theta = phi + ((0.25 - alpha * alpha) / np.tan(0.5 * phi)
                   - (0.25 - beta * beta) * np.tan(0.5 * phi)) / (2.0 * rho) ** 2
    # (1 - x^2) p_n' = n ((alpha - beta) / (2n + ab) - x) p_n
    #                  + (2n + ab + 1) b_n p_{n-1}
    c0 = n * (alpha - beta) / (2.0 * n + ab)
    c1 = (2.0 * n + ab + 1.0) * b[-1]
    for _ in range(20):
        x = np.cos(theta)
        p_prev, p, _ = _orthonormal_sweep(x, a, b)
        step = p * np.sin(theta) / ((c0 - n * x) * p + c1 * p_prev)
        theta += step
        # Newton converges quadratically, so after a step this small the
        # nodes sit at roundoff, where steps stop shrinking; exponents near
        # -1 have the poorest guesses and take the most passes (7 at -0.999)
        if np.max(np.abs(step)) <= 1e-10:
            break
    _, _, total = _orthonormal_sweep(np.cos(theta), a, b)
    half = np.cos(0.5 * theta)
    return half * half, _weight_mass(exp0, exp1) / total


def _check_s(s):
    if not 0.0 < float(s) < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")


def _identical_scheme(s, n):
    """Identical pair T x T on the reference element T = (0, 1).

    Returns (tx, tz, w) on the triangle z < x: a Gauss-Jacobi rule in the
    diagonal distance tx - tz tensored with Gauss-Legendre along the
    element, with |tx - tz|^(1-2s) absorbed into w.  The triangle z > x is
    its mirror (tz, tx, w).  On an element of length h the points scale by
    h and the weights by h^(3-2s).
    """
    tj, wj = _jacobi01(n, 1.0 - 2.0 * s, 1.0)
    tu, wu = _rule01(n)
    span = ((1.0 - tj)[:, None] * tu[None, :]).ravel()
    return tj.repeat(n) + span, span, np.outer(wj, wu).ravel()


def _adjacent_scheme(s, n):
    """Duffy scheme for two elements that share a vertex.

    Points are distances from the shared vertex normalised per element,
    rho_x = |x - v| / h_x and rho_z = |z - v| / h_z, so they do not depend
    on the element lengths.  Returns (rho_x, rho_z, xi, wq):
    rho_x, rho_z have shape (2, n, n), indexed (triangle, xi, tau); on
    triangle 0 (rho_z <= rho_x) rho_x = xi and rho_z = xi * tau, on
    triangle 1 the roles swap.  For lengths h_x, h_z the distance is
    |x - z| = xi * ell with ell = _adjacent_lengths(tu, h_x, h_z) on the
    angular rule (tu, wu) = _rule01(n), and the weight with |x - z|^(1-2s)
    absorbed is h_x h_z wq wu ell^(1-2s), the Jacobi weight in xi carrying
    xi^(1-2s) and the Duffy Jacobian xi.
    """
    xi, wq = _jacobi01(n, 2.0 - 2.0 * s, 0.0)
    tu, wu = _rule01(n)
    radial = np.broadcast_to(xi[:, None], (n, n))
    angular = xi[:, None] * tu[None, :]
    rho_x = np.stack((radial, angular))
    rho_z = np.stack((angular, radial))
    return rho_x, rho_z, xi, wq


def _adjacent_lengths(tu, hx, hz):
    """ell[..., t, u] = |x - z| / xi on triangle t of the adjacent scheme;
    hx, hz broadcast against tu (shape (nb, 1) gives (nb, 2, n))."""
    return np.stack((hx + hz * tu, hx * tu + hz), axis=-2)


def _disjoint_n(n, hx, hz, gap):
    """Gauss-Legendre points per direction on a disjoint pair: n, plus
    ceil(log2(size / gap)) when the gap is below the larger length (a
    near-singular pair).  Vectorised over arrays of lengths and gaps."""
    size = np.maximum(hx, hz)
    extra = np.where(gap < size, np.ceil(np.log2(size / gap)), 0.0)
    return n + extra.astype(int)
