"""Galerkin stiffness and load assembly for the integral fractional Laplacian.

For test/trial functions vanishing outside Omega = (a, b), the full-line
bilinear form splits into a double integral over Omega x Omega plus a local
term carrying the complement weight kappa:

    a(u, v) = C(s)/2 * iint_{OxO} (u(x)-u(z))(v(x)-v(z)) |x-z|^(-1-2s) dz dx
            + C(s)   * int_O u v kappa,
    kappa(x) = int_{R \\ O} |x-z|^(-1-2s) dz
             = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s).

kappa is available in closed form, so no unbounded-domain quadrature is
needed.  The double integral runs over element pairs i <= j (twice for
i < j) with the schemes of the quadrature module, batched per pair class:

* identical pairs T x T: h^(1-2s) times one reference block per degree,
  whose rows are divided differences on the reference element; these are
  symmetric in x and z, so the block is twice that of the triangle z < x;
* adjacent pairs T_e x T_e+1: the points are distances from the shared
  vertex normalised per element, so one shape table serves each degree
  pair; a pair only contributes its weights in the angular Duffy variable,
  applied to a table of angular slices;
* disjoint pairs T_i x T_j, j >= i + 2: on the tensor Gauss-Legendre rule,
  with K = |x_a - z_b|^(-1-2s) and the Gauss weights w folded into the
  shape tables S, which depend on neither the element nor s and are cached
  across calls, the cross block is -2 h_i h_j (S_x w) K (S_z w)^T and the
  self terms are h_i h_j w K w and h_i h_j w K^T w.  Pairs are batched over
  the whole mesh per degree pair (p_i, p_j) and point count n, in chunks of
  a fixed number of kernel entries; each chunk scatters its cross blocks and
  sums its self terms per element.

Each element's own block is built in one pass per degree: the identical
pair plus S_n diag(weights) S_n^T for each point count n, the weights being
kappa h w at the p + quad_offset Gauss points and the self sums of the
disjoint pairs.  The near-endpoint part of kappa on the two boundary
elements has a block of its own, its singularity removed by factoring the
first-order zero of the basis functions, leaving one Gauss-Jacobi weight
r^(2-2s) for both ends.

Blocks are added with np.add.at on flat indices into an (N+1) x (N+1) work
array, whose spare row and column N take the constrained endpoint dofs.
The dofs are numbered left to right, so every disjoint cross block lies in
the upper triangle and is scattered once, unmirrored; the adjacent blocks,
once per degree pair, and the elements' own blocks, once per degree, are
scattered whole.  The upper triangle is then scaled by C(s)/2 into the
contiguous N x N result and mirrored there in place, tile by tile, with no
N x N temporary.  The load is batched per degree on the same Gauss-Legendre
shape tables, with points in per-element reference coordinates.

assemble(dofmap, s, quad_offset=6) and assemble_load(f, dofmap,
quad_offset=6) read the element bounds, lengths, degrees and dof rows from
the element table of the dof map, which also carries the mesh.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _shape_matrix
from .quadrature import (_adjacent_lengths, _adjacent_scheme, _check_s,
                         _disjoint_n, _identical_scheme, _jacobi01, _rule01)

__all__ = ["GalerkinSystem", "kernel_constant", "complement_weight",
           "assemble", "assemble_load"]


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric stiffness matrix and load vector; immutable once built."""

    stiffness: np.ndarray
    load: np.ndarray
    s: float

    @property
    def n(self):
        return self.stiffness.shape[0]


def kernel_constant(s):
    """C(s) = -2^(2s) Gamma(s+1/2) / (sqrt(pi) Gamma(-s)) > 0.

    Evaluated through log-Gamma with the reflection formula
    Gamma(-s) = -pi / (sin(pi s) Gamma(1+s)).
    """
    _check_s(s)
    s = float(s)
    log_c = 2.0 * s * math.log(2.0) + math.lgamma(s + 0.5) + math.lgamma(1.0 + s)
    return math.exp(log_c) * math.sin(math.pi * s) / math.pi ** 1.5


def _check_offset(quad_offset):
    """quad_offset as an int; 2.5 raises TypeError, a negative one
    ValueError."""
    quad_offset = operator.index(quad_offset)
    if quad_offset < 0:
        raise ValueError(f"quad_offset must be nonnegative, got {quad_offset}")
    return quad_offset


def complement_weight(domain, s, x):
    """kappa(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s) for interior x."""
    _check_s(s)
    a, b = float(domain[0]), float(domain[1])
    x = np.asarray(x, dtype=float)
    if np.any(x <= a) or np.any(x >= b):
        raise ValueError("complement weight diverges on the boundary; "
                         "points must be strictly interior")
    val = ((x - a) ** (-2.0 * s) + (b - x) ** (-2.0 * s)) / (2.0 * s)
    return val[()]


@lru_cache(maxsize=None)
def _gauss_shapes(p, n):
    """Degree-p shapes at the n Gauss-Legendre points of an element.

    The table serves every disjoint pair, element block and load batch
    with these (p, n); it depends on neither the element nor s.
    """
    t, _ = _rule01(n)
    table = _shape_matrix(p, 2.0 * t - 1.0)
    table.flags.writeable = False
    return table


# kernel entries per disjoint batch: enough to amortise the per-batch numpy
# calls, small enough that K and its temporaries (128 kB each) leave the peak
# RSS of a study where the per-row batches left it; 2^15 raised it by 0.2 MB
_CHUNK = 1 << 14


def _scatter(A, rows, cols, blocks):
    """A[rows[b, k], cols[b, l]] += blocks[b, k, l] on the (N+1) x (N+1)
    work array A.

    A constrained dof (-1) lands in the spare row or column N by index
    arithmetic alone: the flat index r (N+1) - 1 is column N of row r - 1,
    and a negative flat index wraps round to row N.  np.add.at keeps its
    fast path only on 1-D indices and values, into the contiguous A.
    """
    flat = rows[:, :, None] * A.shape[1] + cols[:, None, :]
    np.add.at(A.reshape(-1), flat.ravel(), blocks.ravel())


def _adjacent_table(scheme, pi, pj):
    """Angular slices of the adjacent block for degrees (pi, pj) on the
    scheme (rho_x, rho_z, xi, wq) of _adjacent_scheme(s, n): row (t, u)
    holds sum_q wq/xi^2 r_k r_l over the radial points of triangle t at
    angular point u, r being the divided-difference rows with the shared
    vertex merged; shape (2n, m*m), m = pi + pj + 1."""
    rho_x, rho_z, xi, wq = scheme
    n = len(xi)
    # points ordered (t, u, q): each (k, q) slice below is a strided matrix
    rho_x, rho_z = rho_x.transpose(0, 2, 1), rho_z.transpose(0, 2, 1)
    m = pi + pj + 1
    rows = np.zeros((m, 2 * n * n))
    # local pi of T_e and local 0 of T_e+1 are the shared vertex
    rows[:pi + 1] = _shape_matrix(pi, 1.0 - 2.0 * rho_x.ravel())
    rows[pi:] -= _shape_matrix(pj, 2.0 * rho_z.ravel() - 1.0)
    rows = rows.reshape(m, 2, n, n)
    rows *= np.sqrt(wq) / xi
    rows = rows.transpose(1, 2, 0, 3)  # (t, u, k, q)
    return (rows @ rows.swapaxes(-1, -2)).reshape(2 * n, m * m)


def _adjacent_blocks(A, dm, s, quad_offset):
    """T_e x T_e+1, twice (for the mirrored pair), per degree pair.

    The weight of a point factors into a radial part wq / xi^2, held in the
    table, and a per-pair part h_x h_z wu ell^(-1-2s) in the angular
    variable, so each block is one row of weights times the table.  The
    scheme depends on the point count alone, so degree pairs with the same
    count share it.
    """
    left, right = dm.degrees[:-1], dm.degrees[1:]
    schemes = {}
    for pi, pj in sorted(set(zip(left.tolist(), right.tolist()))):
        es = np.flatnonzero((left == pi) & (right == pj))
        n = max(pi, pj) + quad_offset
        if n not in schemes:
            schemes[n] = _adjacent_scheme(s, n)
        tu, wu = _rule01(n)
        hx, hz = dm.h[es, None], dm.h[es + 1, None]
        weights = 2.0 * hx[:, None] * hz[:, None] * wu * _adjacent_lengths(
            tu, hx, hz) ** (-1.0 - 2.0 * s)
        blocks = weights.reshape(len(es), 2 * n) @ _adjacent_table(
            schemes[n], pi, pj)  # the table is freed before the scatter
        g = np.concatenate((dm.dofs(es)[:, :pi], dm.dofs(es + 1)), axis=1)
        _scatter(A, g, g, blocks.reshape(len(es), pi + pj + 1, -1))


def _disjoint_blocks(A, dm, s, quad_offset):
    """T_i x T_j for j >= i + 2, twice, batched over the whole mesh per
    degree pair and point count, in chunks of _CHUNK kernel entries.

    On a tensor Gauss rule with K_ab = |x_a - z_b|^(-1-2s) the block factors
    into h_i h_j times S_x diag(w K w) S_x^T, -(S_x w) K (S_z w)^T (and its
    transpose) and S_z diag(w K^T w) S_z^T.  The cross blocks lie in the
    upper triangle and are scattered once per chunk; the self terms are
    summed per element and returned as the weights w K w and w K^T w, a
    {(p, n): (elements, n)} table, zero on the elements of other degrees,
    for _element_blocks.
    """
    ne = len(dm.h)
    i, j = np.triu_indices(ne, 2)
    pi, pj = dm.degrees[i], dm.degrees[j]
    n = _disjoint_n(np.maximum(pi, pj) + quad_offset, dm.h[i], dm.h[j],
                    dm.lo[j] - dm.hi[i])
    sums = {}
    for p, q, nq in sorted(set(zip(pi.tolist(), pj.tolist(), n.tolist()))):
        pairs = np.flatnonzero((pi == p) & (pj == q) & (n == nq))
        t, wt = _rule01(nq)
        sxw, szw = _gauss_shapes(p, nq) * wt, _gauss_shapes(q, nq) * wt
        wx = sums.setdefault((p, nq), np.zeros((ne, nq)))
        wz = sums.setdefault((q, nq), np.zeros((ne, nq)))
        step = max(1, _CHUNK // nq ** 2)
        for c in range(0, len(pairs), step):
            ix, jz = i[pairs[c:c + step]], j[pairs[c:c + step]]
            hh = dm.h[ix] * dm.h[jz]
            x = dm.lo[ix, None] + dm.h[ix, None] * t
            z = dm.lo[jz, None] + dm.h[jz, None] * t
            K = z[:, None, :] - x[:, :, None]
            np.power(K, -1.0 - 2.0 * s, out=K)
            hw = hh[:, None] * wt
            np.add.at(wx, ix, hw * (K @ wt))
            np.add.at(wz, jz, hw * (wt @ K))
            cross = (sxw @ K) @ szw.T
            cross *= -2.0 * hh[:, None, None]
            _scatter(A, dm.dofs(ix), dm.dofs(jz), cross)
    return sums


def _endpoint_blocks(dm, s, quad_offset):
    """int_T phi_k phi_l (dist to the near endpoint)^(-2s) / (2s) on the two
    boundary elements, as (element, block) pairs.

    The first-order zero of the active shapes is factored out and r^(2-2s),
    r being the distance to the near endpoint over h, is absorbed into one
    Gauss-Jacobi rule for both ends; the right end evaluates its shapes at
    the mirrored points, so its block is the left one's mirror image.
    """
    two_s = 2.0 * s
    for e in (0, len(dm.h) - 1):
        p = int(dm.degrees[e])
        r, wj = _jacobi01(p + quad_offset, 2.0 - two_s, 0.0)
        x = 2.0 * r - 1.0
        ratios = _shape_matrix(p, x if e == 0 else -x)
        ratios /= r
        weights = wj * dm.h[e] ** (1.0 - two_s) / two_s
        yield e, (ratios * weights) @ ratios.T


def _element_blocks(A, dm, s, quad_offset, sums):
    """Each element's own block, twice, scattered once per degree: the
    identical pair T x T, S_n diag(weights) S_n^T for each point count n,
    and the near-endpoint block on the two boundary elements.

    The identical pair is h^(1-2s) times one reference block per degree,
    whose rows are the divided differences on the reference element; they
    are symmetric in x and z, so the factor 2 also counts the triangle
    z > x.  The weights are kappa h w at n = p + quad_offset, with the
    distances to the endpoints in reference coordinates, (lo - a) + h t and
    (b - hi) + h (1 - t), so they keep their relative accuracy on the small
    elements at the boundary (the near-endpoint term of the two boundary
    elements left to _endpoint_blocks), plus the self sums of the disjoint
    pairs at their own point counts.
    """
    a, b = dm.lo[0], dm.hi[-1]
    two_s = 2.0 * s
    last = len(dm.h) - 1
    ends = dict(_endpoint_blocks(dm, s, quad_offset))
    for p in np.unique(dm.degrees).tolist():
        es = np.flatnonzero(dm.degrees == p)
        h, n = dm.h[es, None], p + quad_offset
        tx, tz, w = _identical_scheme(s, n)
        rows = _shape_matrix(p, 2.0 * tx - 1.0)
        rows -= _shape_matrix(p, 2.0 * tz - 1.0)
        rows /= tx - tz
        blocks = h[:, :, None] ** (1.0 - two_s) * ((rows * w) @ rows.T)
        t, w = _rule01(n)
        left = ((dm.lo[es, None] - a) + h * t) ** -two_s
        right = ((b - dm.hi[es, None]) + h * (1.0 - t)) ** -two_s
        left[es == 0] = 0.0
        right[es == last] = 0.0
        weights = {m: table[es] for (q, m), table in sums.items() if q == p}
        weights[n] = weights.get(n, 0.0) + w * h * (left + right) / two_s
        for m, wm in weights.items():
            sx = _gauss_shapes(p, m)
            blocks += (sx * wm[:, None, :]) @ sx.T
        for e, block in ends.items():
            if dm.degrees[e] == p:
                blocks[es == e] += block
        g = dm.dofs(es)
        _scatter(A, g, g, 2.0 * blocks)


def _check_ascending(dm):
    """The active dofs, read element by element, must not descend: only
    then does every disjoint cross block lie in the upper triangle."""
    g = dm.table[dm.table >= 0]  # row by row
    if (np.diff(g) < 0).any():
        raise ValueError("the dof table must number the dofs left to right, "
                         "ascending within and across elements")


# rows per tile of the final scale-and-mirror: 64 was the fastest of
# 32..256 at N = 419 and N = 1199
_TILE = 64
_STRICT_LOWER = np.tri(_TILE, _TILE, -1, dtype=bool)


def _symmetric_from_upper(work, n, scale):
    """The exactly symmetric n x n matrix whose upper triangle is scale
    times that of work[:n, :n], built one tile row at a time: each row of
    tiles is scaled into a new contiguous array and mirrored there in
    place, with no n x n temporary.  (Returning the strided view work[:n, :n]
    instead raised the peak RSS of an L = 24 solve by 0.5 MB.)"""
    A = np.empty((n, n))
    for r0 in range(0, n, _TILE):
        r1 = min(r0 + _TILE, n)
        np.multiply(work[r0:r1, r0:n], scale, out=A[r0:r1, r0:])
        diag = A[r0:r1, r0:r1]
        np.copyto(diag, diag.T, where=_STRICT_LOWER[:r1 - r0, :r1 - r0])
        A[r1:, r0:r1] = A[r0:r1, r1:].T
    return A


def assemble(dofmap, s, quad_offset=6):
    """Assemble the stiffness matrix of the weak form (stiffness only).

    The per-direction point count for each element pair is
    max(p_i, p_j) + quad_offset.  The load is zero; attach one with
    dataclasses.replace(system, load=...).  The dof table must ascend left
    to right (ValueError otherwise), as build_dof_map numbers it.
    """
    _check_s(s)
    s = float(s)
    quad_offset = _check_offset(quad_offset)
    _check_ascending(dofmap)
    N = dofmap.n_dofs
    work = np.zeros((N + 1, N + 1))  # row and column N take dropped entries
    _adjacent_blocks(work, dofmap, s, quad_offset)
    sums = _disjoint_blocks(work, dofmap, s, quad_offset)
    _element_blocks(work, dofmap, s, quad_offset, sums)
    A = _symmetric_from_upper(work, N, 0.5 * kernel_constant(s))
    if not np.all(np.isfinite(A)):
        raise RuntimeError("stiffness assembly produced non-finite entries")
    return GalerkinSystem(stiffness=A, load=np.zeros(N), s=s)


def assemble_load(f, dofmap, quad_offset=6):
    """Load vector b_k = int_Omega f phi_k, per-element Gauss-Legendre.

    f is called once per degree on a 1-D array of points.
    """
    quad_offset = _check_offset(quad_offset)
    b = np.zeros(dofmap.n_dofs)
    for p in np.unique(dofmap.degrees).tolist():
        es = np.flatnonzero(dofmap.degrees == p)
        n = p + quad_offset
        t, w = _rule01(n)
        x = dofmap.lo[es, None] + dofmap.h[es, None] * t
        fx = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), (x.size,))
        fx = fx.reshape(x.shape)
        bad = ~np.isfinite(fx).all(axis=1)
        if bad.any():
            raise ValueError(f"load function returned non-finite values on "
                             f"element {es[bad][0] + 1}")
        local = (w * dofmap.h[es, None] * fx) @ _gauss_shapes(p, n).T
        g = dofmap.dofs(es)
        np.add.at(b, g[g >= 0], local[g >= 0])
    return b
