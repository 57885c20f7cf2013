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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = ["PairClass", "classify_pair", "pair_quadrature"]


@lru_cache(maxsize=None)
def _rule01(n):
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


@lru_cache(maxsize=None)
def _jacobi01(n, exp0, exp1):
    """Rule on (0, 1) with the weight t^exp0 (1-t)^exp1 absorbed."""
    if exp0 == 0.0 and exp1 == 0.0:
        return _rule01(n)
    x, w = special.roots_jacobi(int(n), exp1, exp0)
    t = 0.5 * (x + 1.0)
    wt = w * 0.5 ** (exp0 + exp1 + 1.0)
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


@dataclass(frozen=True)
class PairClass:
    """Classification of an ordered element pair by closure intersection.

    kind is one of 'identical', 'adjacent', 'disjoint'.  For adjacent pairs
    shared_side records on which side of the first element the shared
    vertex sits ('right' when the second element follows the first).
    """

    kind: str
    shared_side: str | None = None


def classify_pair(mesh, i, j):
    """Classify elements i, j (1-based) of a mesh as a pair."""
    ne = mesh.n_elements
    for idx in (i, j):
        if not 1 <= idx <= ne:
            raise ValueError(f"element index {idx} out of range 1..{ne}")
    if i == j:
        return PairClass("identical")
    if abs(i - j) == 1:
        return PairClass("adjacent", "right" if j == i + 1 else "left")
    return PairClass("disjoint")


def _check_s(s):
    if not 0.0 < float(s) < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")


def _identical_scheme(s, n, element):
    a, b = element
    h = b - a
    tj, wj = _jacobi01(n, 1.0 - 2.0 * s, 1.0)
    tu, wu = _rule01(n)
    delta = (h * tj)[:, None]
    span = (h - h * tj)[:, None]
    x_upper = a + delta + span * tu[None, :]  # triangle z < x
    x_lower = a + span * tu[None, :]          # triangle z > x
    w = (h ** (3.0 - 2.0 * s)) * np.outer(wj, wu)
    x = np.concatenate((x_upper.ravel(), x_lower.ravel()))
    z = np.concatenate(((x_upper - delta).ravel(), (x_lower + delta).ravel()))
    return x, z, np.concatenate((w.ravel(), w.ravel()))


def _adjacent_scheme(s, n, elements):
    (a1, b1), (a2, b2) = elements
    if b1 == a2:
        v, sx, sz = b1, -1.0, 1.0
    elif a1 == b2:
        v, sx, sz = a1, 1.0, -1.0
    else:
        raise ValueError(f"elements ({a1},{b1}) and ({a2},{b2}) share no vertex")
    hx, hz = b1 - a1, b2 - a2
    tq, wq = _jacobi01(n, 2.0 - 2.0 * s, 0.0)
    tu, wu = _rule01(n)
    kernel_pow = 1.0 - 2.0 * s
    # triangle with rho_z/hz <= rho_x/hx: zeta = xi * tau
    xi = tq[:, None]
    xa = v + sx * hx * xi + 0.0 * tu[None, :]
    za = v + sz * hz * xi * tu[None, :]
    wa = hx * hz * np.outer(wq, wu * (hx + hz * tu) ** kernel_pow)
    # symmetric triangle: xi = zeta * tau
    xb = v + sx * hx * xi * tu[None, :]
    zb = v + sz * hz * xi + 0.0 * tu[None, :]
    wb = hx * hz * np.outer(wq, wu * (hx * tu + hz) ** kernel_pow)
    x = np.concatenate((xa.ravel(), xb.ravel()))
    z = np.concatenate((za.ravel(), zb.ravel()))
    return x, z, np.concatenate((wa.ravel(), wb.ravel()))


def _disjoint_scheme(s, n, elements):
    (a1, b1), (a2, b2) = elements
    h1, h2 = b1 - a1, b2 - a2
    gap = max(a2 - b1, a1 - b2)
    if gap <= 0:
        raise ValueError("disjoint scheme requires separated elements")
    size = max(h1, h2)
    n_eff = n + (math.ceil(math.log2(size / gap)) if gap < size else 0)
    t1, w1 = _rule01(n_eff)
    t2, w2 = _rule01(n_eff)
    x = (a1 + h1 * t1)[:, None] + 0.0 * t2[None, :]
    z = a2 + h2 * t2[None, :] + 0.0 * t1[:, None]
    w = h1 * h2 * np.outer(w1, w2) * np.abs(x - z) ** (1.0 - 2.0 * s)
    return x.ravel(), z.ravel(), w.ravel()


def pair_quadrature(pair, s, n, elements):
    """Quadrature for iint g(x, z) |x-z|^(1-2s) dz dx over an element pair.

    Parameters
    ----------
    pair : PairClass for (T1, T2)
    s : fractional order in (0, 1)
    n : points per direction
    elements : ((a1, b1), (a2, b2)), the two element intervals

    Returns (x, z, w): nodes strictly inside T1 x T2 and positive weights
    with the kernel factor absorbed, so sum(w * g(x, z)) approximates the
    integral and is exact (up to the Jacobi-rule degree) for bivariate
    polynomial g.
    """
    s = float(s)
    n = int(n)
    _check_s(s)
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if pair.kind == "identical":
        if elements[0] != elements[1]:
            raise ValueError("identical pair requires equal elements")
        return _identical_scheme(s, n, elements[0])
    if pair.kind == "adjacent":
        return _adjacent_scheme(s, n, elements)
    if pair.kind == "disjoint":
        return _disjoint_scheme(s, n, elements)
    raise ValueError(f"unknown pair kind {pair.kind!r}")
