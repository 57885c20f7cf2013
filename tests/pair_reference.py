"""Per-pair quadrature on physical element intervals: the reference that the
quadrature and assembly tests hold the package's reference-coordinate
schemes to, one element pair at a time."""

import numpy as np

from frachp.quadrature import (_adjacent_lengths, _adjacent_scheme, _check_s,
                               _disjoint_n, _identical_scheme, _rule01)


def pair_quadrature(s, n, elements):
    """Quadrature for iint g(x, z) |x-z|^(1-2s) dz dx over an element pair.

    Parameters
    ----------
    s : fractional order in (0, 1)
    n : points per direction
    elements : ((a1, b1), (a2, b2)), the two element intervals

    The pair class is read off the intervals: equal intervals are an
    identical pair, a shared endpoint makes an adjacent pair and a positive
    gap a disjoint one; overlapping intervals raise ValueError.

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
    (a1, b1), (a2, b2) = elements
    hx, hz = b1 - a1, b2 - a2
    gap = max(a2 - b1, a1 - b2)
    if (a1, b1) == (a2, b2):
        # the scheme is the triangle z < x; the other is its mirror
        tx, tz, w = _identical_scheme(s, n)
        x, z = np.concatenate((tx, tz)), np.concatenate((tz, tx))
        return a1 + hx * x, a1 + hx * z, hx ** (3.0 - 2.0 * s) * np.tile(w, 2)
    if gap == 0:
        v, sx, sz = (b1, -1.0, 1.0) if b1 == a2 else (a1, 1.0, -1.0)
        rho_x, rho_z, xi, wq = _adjacent_scheme(s, n)
        tu, wu = _rule01(n)
        ell = _adjacent_lengths(tu, hx, hz)
        w = (hx * hz * wq[None, :, None]
             * (wu * ell ** (1.0 - 2.0 * s))[:, None, :])
        return ((v + sx * hx * rho_x).ravel(), (v + sz * hz * rho_z).ravel(),
                w.ravel())
    if gap < 0:
        raise ValueError(f"elements ({a1},{b1}) and ({a2},{b2}) overlap")
    t, wt = _rule01(int(_disjoint_n(n, hx, hz, gap)))
    x = (a1 + hx * t)[:, None]
    z = (a2 + hz * t)[None, :]
    w = hx * hz * np.outer(wt, wt) * np.abs(x - z) ** (1.0 - 2.0 * s)
    return (np.broadcast_to(x, w.shape).ravel(),
            np.broadcast_to(z, w.shape).ravel(), w.ravel())
