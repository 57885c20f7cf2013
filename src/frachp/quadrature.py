"""Gauss rules and singular product-domain schemes for the kernel |x-z|^(1-2s).

For continuous piecewise polynomials the bilinear-form numerator
(u(x)-u(z))(v(x)-v(z)) vanishes to second order on the diagonal, so every
element-pair contribution reduces to

    I = iint g(x, z) |x - z|^(1-2s) dz dx

with g smooth on the pair domain (after a Duffy split at the shared vertex
for adjacent pairs).  The schemes below absorb the kernel factor into the
weights:

* identical pairs T x T are split along the diagonal; the diagonal distance
  carries a Gauss-Jacobi weight with exponent 1-2s (the triangular measure
  factor is absorbed as well), tensored with Gauss-Legendre along the
  element;
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

from functools import lru_cache

import numpy as np
from scipy import special

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


def _jacobi01(n, exp0, exp1):
    """Rule on (0, 1) with the weight t^exp0 (1-t)^exp1 absorbed.

    Not cached: the exponents of the singular schemes move with s, so a
    cache keyed by them would grow by a few rules with every new s.
    """
    if exp0 == 0.0 and exp1 == 0.0:
        return _rule01(n)
    x, w = special.roots_jacobi(int(n), exp1, exp0)
    t = 0.5 * (x + 1.0)
    wt = w * 0.5 ** (exp0 + exp1 + 1.0)
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


def _check_s(s):
    if not 0.0 < float(s) < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")


def _identical_scheme(s, n):
    """Identical pair T x T on the reference element T = (0, 1).

    Returns (tx, tz, w): the two triangles z < x and z > x, each a
    Gauss-Jacobi rule in the diagonal distance tensored with Gauss-Legendre
    along the element, with |tx - tz|^(1-2s) absorbed into w.  On an
    element of length h the points scale by h and the weights by h^(3-2s).
    """
    tj, wj = _jacobi01(n, 1.0 - 2.0 * s, 1.0)
    tu, wu = _rule01(n)
    span = ((1.0 - tj)[:, None] * tu[None, :]).ravel()
    shifted = (tj[:, None] + (1.0 - tj)[:, None] * tu[None, :]).ravel()
    w = np.outer(wj, wu).ravel()
    return (np.concatenate((shifted, span)), np.concatenate((span, shifted)),
            np.concatenate((w, w)))


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
