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
  whose rows are divided differences on the reference element, each taken
  exactly as the mean of the shapes' derivative along its segment, so no
  difference of nearby values is divided by their distance; these are
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
the upper triangle and is scattered once, unmirrored; of the symmetric
adjacent blocks, once per degree pair, and the elements' own blocks, once
per degree, only the local upper triangle is scattered, which lands in the
upper triangle too.  The upper triangle is then scaled by C(s)/2 and
mirrored inside the work array, tile by tile, its rows moved forward to
stride N, so that the first N^2 entries are the contiguous result: the
assembly allocates no second N x N array.  The Gauss-Jacobi rules of the
identical, adjacent and endpoint blocks come from the bounded cache of
quadrature._jacobi01, so they are computed once for all calls at one s.
The load is batched per degree on the same Gauss-Legendre shape tables,
with points in per-element reference coordinates.

A dof map that is its own mirror image under x -> a + b - x, bit for bit
(palindromic degrees, mirrored nodes; every uniform and reduced map on
(-1, 1)), maps dof g to N-1-g, so A equals A[::-1, ::-1].  Then only the
blocks that reach an entry r + c <= N - 1 are built, those whose first
row and column dofs sum to at most N - 1: about half the element pairs.  A
disjoint pair whose mirror pair is skipped adds its self weights, reversed,
to the mirror elements, and the upper entries r + c > N - 1 are copied
from (N-1-c, N-1-r) when the work array is mirrored, so A comes out
exactly persymmetric.  Any other map builds every block.

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

from .basis import _diff_matrix, _shape_matrix, _shape_matrix01
from .quadrature import (_adjacent_lengths, _adjacent_scheme, _check_s,
                         _disjoint_n, _identical_scheme, _jacobi01, _rule01)

__all__ = ["GalerkinSystem", "kernel_constant", "assemble", "assemble_load"]


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


def _scatter(A, flat, values):
    """A.flat[flat] += values, entry by entry, on the (N+1) x (N+1) work
    array A, with the flat indices r (N+1) + c of rows r and columns c.

    A constrained dof (-1) lands in the spare row or column N by index
    arithmetic alone: the flat index r (N+1) - 1 is column N of row r - 1,
    and a negative flat index wraps round to row N.  np.add.at keeps its
    fast path only on 1-D indices and values, into the contiguous A.
    """
    np.add.at(A.reshape(-1), flat.ravel(), values.ravel())


@lru_cache(maxsize=None)
def _triu(n, k=0):
    """np.triu_indices(n, k) as read-only arrays, kept across calls."""
    rows, cols = np.triu_indices(n, k)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _upper(blocks):
    """The local upper triangles k <= l of the square blocks[b], in
    np.triu_indices order."""
    k, l = _triu(blocks.shape[-1])
    return blocks[:, k, l]


def _scatter_upper(A, g, upper):
    """Scatter upper = _upper(blocks) of symmetric blocks, entry (k, l) of
    block b at (g[b, k], g[b, l]).  The dofs of each row of g ascend, so
    every entry lands on or above the diagonal of A (or in its spare row
    and column); the strict lower triangle, which the mirror overwrites,
    gets none."""
    k, l = _triu(g.shape[1])
    flat = (g * A.shape[1])[:, k]
    flat += g[:, l]
    _scatter(A, flat, upper)


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


def _adjacent_blocks(A, dm, s, quad_offset, limit):
    """T_e x T_e+1, twice (for the mirrored pair), per degree pair, for
    the pairs whose first dof, twice, is at most limit.

    The weight of a point factors into a radial part wq / xi^2, held in the
    table, and a per-pair part h_x h_z wu ell^(-1-2s) in the angular
    variable, so each block is one row of weights times the table.  The
    scheme depends on the point count alone.
    """
    kept = np.flatnonzero(2 * dm.table[:-1, 0] <= limit)
    left, right = dm.degrees[kept], dm.degrees[kept + 1]
    for pi, pj in sorted(set(zip(left.tolist(), right.tolist()))):
        es = kept[(left == pi) & (right == pj)]
        n = max(pi, pj) + quad_offset
        tu, wu = _rule01(n)
        hx, hz = dm.h[es, None], dm.h[es + 1, None]
        weights = 2.0 * hx[:, None] * hz[:, None] * wu * _adjacent_lengths(
            tu, hx, hz) ** (-1.0 - 2.0 * s)
        # the table and the whole blocks are freed before the scatter
        upper = _upper((weights.reshape(len(es), 2 * n) @ _adjacent_table(
            _adjacent_scheme(s, n), pi, pj)).reshape(
                len(es), pi + pj + 1, -1))
        g = np.concatenate((dm.dofs(es)[:, :pi], dm.dofs(es + 1)), axis=1)
        _scatter_upper(A, g, upper)


def _disjoint_blocks(A, dm, s, quad_offset, limit):
    """T_i x T_j for j >= i + 2, twice, batched over the whole mesh per
    degree pair and point count, in chunks of _CHUNK kernel entries, for
    the pairs whose first dofs sum to at most limit.

    On a tensor Gauss rule with K_ab = |x_a - z_b|^(-1-2s) the block factors
    into h_i h_j times S_x diag(w K w) S_x^T, -(S_x w) K (S_z w)^T (and its
    transpose) and S_z diag(w K^T w) S_z^T.  The cross blocks lie in the
    upper triangle and are scattered once per chunk; the self terms are
    summed per element and returned as the weights w K w and w K^T w, a
    {(p, n): (elements, n)} table, zero on the elements of other degrees,
    for _element_blocks.  On a mirror image (see assemble) a pair whose
    mirror pair (ne-1-j, ne-1-i) is skipped also adds its self weights,
    reversed, to the mirror elements ne-1-i and ne-1-j, which are theirs.
    """
    ne = len(dm.h)
    first = dm.table[:, 0]
    i, j = _triu(ne, 2)
    kept = first[i] + first[j] <= limit
    i, j = i[kept], j[kept]
    flip = first[ne - 1 - j] + first[ne - 1 - i] > limit
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
            batch = pairs[c:c + step]
            ix, jz, f = i[batch], j[batch], flip[batch]
            hh = dm.h[ix] * dm.h[jz]
            x = dm.lo[ix, None] + dm.h[ix, None] * t
            z = dm.lo[jz, None] + dm.h[jz, None] * t
            K = z[:, None, :] - x[:, :, None]
            np.power(K, -1.0 - 2.0 * s, out=K)
            hw = hh[:, None] * wt
            sx, sz = hw * (K @ wt), hw * (wt @ K)
            np.add.at(wx, np.concatenate((ix, ne - 1 - ix[f])),
                      np.concatenate((sx, sx[f, ::-1])))
            np.add.at(wz, np.concatenate((jz, ne - 1 - jz[f])),
                      np.concatenate((sz, sz[f, ::-1])))
            cross = (sxw @ K) @ szw.T
            cross *= -2.0 * hh[:, None, None]
            flat = dm.dofs(ix)[:, :, None] * A.shape[1]
            _scatter(A, flat + dm.dofs(jz)[:, None, :], cross)
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


# shape values per batch of _divided_differences: the whole segment rule in
# one batch up to p = 14 (n = 20) at quad_offset 6, five of its twelve
# points per batch at p = 24 (1 MB); one point per batch took 1.7 (p = 4)
# to 2.5 times (p = 14, 24) as long
_SEGMENT_BATCH = 1 << 17


def _divided_differences(p, tx, tz):
    """Rows (S(tx) - S(tz)) / (tx - tz) of the degree-p shapes S on the
    reference element (0, 1), taken exactly as the mean of S' over
    [tz, tx]: S' has degree p - 1, so the ceil(p/2)-point Gauss-Legendre
    rule on the segment integrates it exactly, and no difference of nearby
    values is divided by their distance.  The shape values are summed over
    the rule's points, in batches of _SEGMENT_BATCH values, then
    differentiated once."""
    theta, weights = _rule01((p + 1) // 2)
    span = tx - tz
    step = max(1, _SEGMENT_BATCH // ((p + 1) * len(tx)))
    mean = np.zeros((p + 1, len(tx)))
    for c in range(0, len(theta), step):
        points = tz + theta[c:c + step, None] * span
        values = _shape_matrix01(p, points.ravel())
        mean += weights[c:c + step] @ values.reshape(p + 1, len(points), -1)
    return 2.0 * (_diff_matrix(p).T @ mean)


def _element_blocks(A, dm, s, quad_offset, sums, limit):
    """Each element's own block, twice, scattered once per degree, for the
    elements whose first dof, twice, is at most limit: the identical pair
    T x T, S_n diag(weights) S_n^T for each point count n, and the
    near-endpoint block on the two boundary elements.

    The identical pair is h^(1-2s) times one reference block per degree,
    whose rows are the exact divided differences on the reference element;
    they are symmetric in x and z, so the factor 2 also counts the triangle
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
    kept = np.flatnonzero(2 * dm.table[:, 0] <= limit)
    for p in sorted(set(dm.degrees[kept].tolist())):
        es = kept[dm.degrees[kept] == p]
        h, n = dm.h[es, None], p + quad_offset
        tx, tz, w = _identical_scheme(s, n)
        rows = _divided_differences(p, tx, tz)
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
        _scatter_upper(A, dm.dofs(es), _upper(2.0 * blocks))


def _check_ascending(dm):
    """The active dofs, read element by element, must not descend: only
    then do the disjoint cross blocks and the local upper triangles of the
    other blocks lie in the upper triangle."""
    g = dm.table[dm.table >= 0]  # row by row
    if (np.diff(g) < 0).any():
        raise ValueError("the dof table must number the dofs left to right, "
                         "ascending within and across elements")


def _is_mirror_image(dm):
    """Whether the reflection x -> a + b - x maps the dof map onto itself,
    bit for bit: the degrees are a palindrome and the node distances to a
    are those to b reversed.  The left-to-right numbering then sends local
    k of element e, dof g, to local p_e - k of element E-1-e, dof N-1-g,
    and the stiffness matrix A is persymmetric, A = A[::-1, ::-1]."""
    nodes, deg = dm.mesh.nodes, dm.degrees
    return np.array_equal(deg, deg[::-1]) and np.array_equal(
        nodes - nodes[0], (nodes[-1] - nodes)[::-1])


# rows per tile of the final scale-and-mirror: 64 was the fastest of
# 32..256 at N = 419 and N = 1199
_TILE = 64
_STRICT_LOWER = np.tri(_TILE, _TILE, -1, dtype=bool)


def _symmetric_in_place(work, scale, mirror):
    """The exactly symmetric n x n matrix whose upper triangle is scale
    times that of the (n+1) x (n+1) work array, built in work's own memory
    as the C-contiguous view of its first n^2 entries; with mirror, the
    exactly persymmetric one whose entries r + c <= n - 1 of the upper
    triangle are read from work.

    One tile row at a time, in order: the upper part of the rows is scaled
    to its place at row stride n, the diagonal tile is mirrored, and the
    lower part is copied from the columns of the rows above, which are
    final by then.  Row r moves r entries towards the start, so a tile
    overwrites only rows above it and its own source rows, which numpy
    buffers before it writes over them; the rows below are still intact.
    With mirror, only the first h = ceil(n/2) rows are built so, and of
    their upper part only the columns c < n - r0 are scaled: the entries
    with r + c > n - 1 are copied from (n-1-c, n-1-r), which is final and
    has r + c < n - 1, before the diagonal tile is mirrored.  Each last
    row r >= h is then row n-1-r reversed.  Raises RuntimeError on a
    non-finite entry.
    """
    n = work.shape[0] - 1
    A = work.reshape(-1)[:n * n].reshape(n, n)
    rows = (n + 1) // 2 if mirror else n
    for r0 in range(0, rows, _TILE):
        r1 = min(r0 + _TILE, rows)
        stop = n - r0 if mirror else n
        upper = A[r0:r1, r0:stop]
        np.multiply(work[r0:r1, r0:stop], scale, out=upper)
        if not np.isfinite(upper).all():
            raise RuntimeError("stiffness assembly produced non-finite "
                               "entries")
        if mirror:
            # the square of columns n-r1..n-r0-1 is its own source
            corner = A[r0:r1, n - r1:n - r0]
            np.copyto(corner, corner[::-1, ::-1].T,
                      where=_STRICT_LOWER[:r1 - r0, :r1 - r0][:, ::-1])
            A[r0:r1, n - r0:] = A[:r0, n - r1:n - r0][::-1, ::-1].T
        diag = A[r0:r1, r0:r1]
        np.copyto(diag, diag.T, where=_STRICT_LOWER[:r1 - r0, :r1 - r0])
        A[r0:r1, :r0] = A[:r0, r0:r1].T
    for r0 in range(rows, n, _TILE):
        r1 = min(r0 + _TILE, n)
        A[r0:r1] = A[n - r1:n - r0][::-1, ::-1]
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
    mirror = _is_mirror_image(dofmap)
    # a block is built when its first row and column dofs sum to at most
    # limit: on a mirror image, when it reaches an entry r + c <= N - 1
    limit = N - 1 if mirror else 2 * N
    work = np.zeros((N + 1, N + 1))  # row and column N take dropped entries
    _adjacent_blocks(work, dofmap, s, quad_offset, limit)
    sums = _disjoint_blocks(work, dofmap, s, quad_offset, limit)
    _element_blocks(work, dofmap, s, quad_offset, sums, limit)
    A = _symmetric_in_place(work, 0.5 * kernel_constant(s), mirror)
    return GalerkinSystem(stiffness=A, load=np.zeros(N), s=s)


def assemble_load(f, dofmap, quad_offset=6):
    """Load vector b_k = int_Omega f phi_k, per-element Gauss-Legendre.

    f is called once per degree on a 1-D array of points.
    """
    quad_offset = _check_offset(quad_offset)
    b = np.zeros(dofmap.n_dofs)
    for p in sorted(set(dofmap.degrees.tolist())):
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
