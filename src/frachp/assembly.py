"""Galerkin stiffness and load assembly for the integral fractional Laplacian.

For test/trial functions vanishing outside Omega = (a, b), the full-line
bilinear form splits into a double integral over Omega x Omega plus a local
term carrying the complement weight kappa:

    a(u, v) = C(s)/2 * iint_{OxO} (u(x)-u(z))(v(x)-v(z)) |x-z|^(-1-2s) dz dx
            + C(s)   * int_O u v kappa,
    kappa(x) = int_{R \\ O} |x-z|^(-1-2s) dz
             = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s).

kappa is available in closed form, so no unbounded-domain quadrature is
needed.  The integrand is symmetric in x and z, so a = C(s) W, where W sums
the double integral over unordered element pairs, each pair once (an
element with itself on its triangle z < x), and adds int_O u v kappa.  The
pairs of W are computed with the schemes of the quadrature module, batched
per pair class:

* identical pairs T x T: h^(1-2s) times one reference block per degree,
  whose rows are divided differences on the reference element, each taken
  exactly as the mean of the shapes' derivative along its segment, so no
  difference of nearby values is divided by their distance;
* adjacent pairs T_e x T_e+1: the points are distances from the shared
  vertex normalised per element, so one shape table serves each degree
  pair; a pair only contributes its weights in the angular Duffy variable,
  applied to a table of angular slices.  These blocks and the identical
  reference blocks are built before the work array is allocated, so the
  shape values on the segments and the angular tables are never live
  beside it;
* disjoint pairs T_i x T_j, j >= i + 2: on the tensor Gauss-Legendre rule,
  with K = |x_a - z_b|^(-1-2s) and the Gauss weights w folded into the
  shape tables S, which depend on neither the element nor s and come from
  the one cache of basis._gauss_shapes, the cross block is
  -h_i h_j (S_x w) K (S_z w)^T and the self terms are h_i h_j w K w and
  h_i h_j w K^T w.  Pairs are batched over the whole mesh per degree pair
  (p_i, p_j) and point count n, in chunks of a fixed number of kernel
  entries; each chunk scatters its cross blocks and sums its self terms
  per element.

Each element's own block is built in one pass per degree: the identical
pair plus S_n diag(weights) S_n^T for each point count n, the weights being
kappa h w at the p + quad_offset Gauss points and the self sums of the
disjoint pairs.  The near-endpoint part of kappa on the two boundary
elements is built like the identical pair: h^(1-2s) times one reference
block per boundary degree, whose rows are the exact divided differences of
the shapes against the endpoint, (S(r) - S(0)) / r, on the Gauss-Jacobi
weight r^(2-2s), divided by 2s; the right end takes it with its rows and
columns reversed.  Every singular element-local term is thus h^(1-2s)
times a per-degree Gram matrix of exact divided differences, built with
the identical reference blocks before the work array.

Blocks are added with np.add.at on flat indices into an (N+1) x (N+1) work
array, whose spare row and column N take the constrained endpoint dofs.
The dofs are numbered left to right, so every disjoint cross block lies in
the upper triangle and is scattered once, unmirrored; of the symmetric
adjacent blocks, once per degree pair, and the elements' own blocks, once
per degree, only the local upper triangle is scattered, which lands in the
upper triangle too.  The upper triangle, W's, is then scaled by C(s) and
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

A pair takes max(p_i, p_j) + quad_offset Gauss points per direction and
an element p + quad_offset, quad_offset defaulting to _QUAD_OFFSET, the one
rule of the studies.  assemble(dofmap, s) runs in two stages.
_plan(dofmap) does the work that depends on the mesh alone: the checks,
the mirror decision, and per pair class the kept pairs with their points,
h-products, endpoint distances and dof rows.  _pass(plan, s, load) does the
rest at one s: the reference blocks, the kernel powers, the products, the
scatters and the final mirror, and puts the caller's load beside A, both
marked read-only.  A study of several s on one dof map builds the plan
and the load once.  assemble_load(f, dofmap) and both stages read the
element bounds, lengths, degrees and dof rows from the element table of
the dof map, which also carries the mesh.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .basis import _diff_matrix, _gauss_shapes, _shape_matrix
from .quadrature import (_adjacent_lengths, _adjacent_scheme, _cached,
                         _check_s, _disjoint_n, _identical_scheme, _jacobi01,
                         _rule01)

__all__ = ["GalerkinSystem", "kernel_constant", "assemble", "assemble_load"]


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric stiffness matrix and load vector; immutable once built.

    assemble, assemble_load and postproc.solve_problem hand out read-only
    arrays, so a system built from them is read-only too, the one built by
    hand as dataclasses.replace(system, load=assemble_load(f, dofmap))
    included.
    """

    stiffness: np.ndarray
    load: np.ndarray
    s: float

    @property
    def n(self):
        return self.stiffness.shape[0]


def kernel_constant(s):
    """C(s) = -2^(2s) Gamma(s+1/2) / (sqrt(pi) Gamma(-s)) > 0.

    Evaluated through log-Gamma with the reflection formula
    Gamma(-s) = -pi / (sin(pi s) Gamma(1+s)), and sin(pi s) as
    sin(pi (1 - s)) for s > 1/2: 1 - s is exact there, while pi s rounds
    near pi, where the sine cancels (1e-7 relative at s = 1 - 1e-9).
    """
    s = _check_s(s)
    log_c = 2.0 * s * math.log(2.0) + math.lgamma(s + 0.5) + math.lgamma(1.0 + s)
    sine = math.sin(math.pi * min(s, 1.0 - s))
    return math.exp(log_c) * sine / math.pi ** 1.5


_QUAD_OFFSET = 6


def _check_offset(quad_offset):
    """quad_offset as an int; 2.5 raises TypeError, a negative one
    ValueError."""
    quad_offset = operator.index(quad_offset)
    if quad_offset < 0:
        raise ValueError(f"quad_offset must be nonnegative, got {quad_offset}")
    return quad_offset


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


@_cached()
def _triu(n, k=0):
    """np.triu_indices(n, k) as read-only arrays, kept across calls."""
    return np.triu_indices(n, k)


def _scatter_upper(A, g, blocks):
    """Scatter the local upper triangles k <= l of the symmetric blocks,
    entry (k, l) of blocks[b] at (g[b, k], g[b, l]).  The dofs of each row
    of g ascend, so every entry lands on or above the diagonal of A (or in
    its spare row and column); the strict lower triangle, which the mirror
    overwrites, gets none."""
    k, l = _triu(g.shape[1])
    flat = (g * A.shape[1])[:, k]
    flat += g[:, l]
    _scatter(A, flat, blocks[:, k, l])


def _adjacent_table(xi, wq, tu, pi, pj):
    """Angular slices of the adjacent block for degrees (pi, pj) on the
    radial rule (xi, wq) of _adjacent_scheme(s, n) and the angular points
    tu: row (t, u) holds sum_q wq/xi^2 r_k r_l over the radial points of
    triangle t at angular point u, r being the divided-difference rows with
    the shared vertex merged; shape (2n, m*m), m = pi + pj + 1.  On
    triangle 0 the points are rho_x = xi and rho_z = xi tau, on triangle 1
    the roles swap, so each side's shapes are evaluated once on the n
    radial nodes and once on the n^2 angular points (u, q), and only once
    when pi = pj.  T_e sees its points at 1 - rho_x, so it takes the rows
    of its shapes reversed."""
    n = len(xi)
    angular = (tu[:, None] * xi).ravel()
    shapes = {p: (_shape_matrix(p, xi)[:, None, :],
                  _shape_matrix(p, angular).reshape(p + 1, n, n))
              for p in {pi, pj}}
    (radial_x, angular_x), (radial_z, angular_z) = shapes[pi], shapes[pj]
    m = pi + pj + 1
    rows = np.zeros((m, 2, n, n))  # (k, t, u, q)
    # local pi of T_e and local 0 of T_e+1 are the shared vertex
    rows[:pi + 1, 0] = radial_x[::-1]
    rows[:pi + 1, 1] = angular_x[::-1]
    rows[pi:, 0] -= angular_z
    rows[pi:, 1] -= radial_z
    rows *= np.sqrt(wq) / xi
    rows = rows.transpose(1, 2, 0, 3)  # (t, u, k, q)
    return (rows @ rows.swapaxes(-1, -2)).reshape(2 * n, m * m)


def _adjacent_plan(dm, quad_offset, limit):
    """T_e x T_e+1 per degree pair (pi, pj), for the pairs whose first
    dof, twice, is at most limit: (pi, pj, h_x h_z wu, ell, dofs), with
    the angular lengths ell of _adjacent_lengths on the angular rule
    (tu, wu) and the dof rows with the shared vertex merged."""
    kept = np.flatnonzero(2 * dm.table[:-1, 0] <= limit)
    left, right = dm.degrees[kept], dm.degrees[kept + 1]
    groups = []
    for pi, pj in sorted(set(zip(left.tolist(), right.tolist()))):
        es = kept[(left == pi) & (right == pj)]
        tu, wu = _rule01(max(pi, pj) + quad_offset)
        hx, hz = dm.h[es, None], dm.h[es + 1, None]
        g = np.concatenate((dm.table[es, :pi], dm.table[es + 1, :pj + 1]),
                           axis=1)
        groups.append((pi, pj, hx[:, None] * hz[:, None] * wu,
                       _adjacent_lengths(tu, hx, hz), g))
    return groups


def _adjacent_blocks(groups, s):
    """T_e x T_e+1 per degree pair of _adjacent_plan, as (dofs, blocks)
    pairs for _scatter_upper.  Called before the work array is allocated,
    so that the table and its temporaries are never live beside it.

    The weight of a point factors into a radial part wq / xi^2, held in the
    table, and a per-pair part h_x h_z wu ell^(-1-2s) in the angular
    variable, so each block is one row of weights times the table.  The
    scheme depends on the point count alone.
    """
    blocks = []
    for pi, pj, hh, ell, g in groups:
        n = ell.shape[-1]
        weights = hh * ell ** (-1.0 - 2.0 * s)
        pair = weights.reshape(len(g), 2 * n) @ _adjacent_table(
            *_adjacent_scheme(s, n), _rule01(n)[0], pi, pj)
        blocks.append((g, pair.reshape(len(g), pi + pj + 1, -1)))
    return blocks


def _disjoint_plan(dm, quad_offset, limit):
    """T_i x T_j for j >= i + 2, for the pairs whose first dofs sum to at
    most limit, batched over the whole mesh per degree pair (p, q) and
    point count n: (p, q, h_i h_j w, -h_i h_j, x, z, rows, cols, chunks),
    with the Gauss weights w, the Gauss points x of T_i and z of T_j, the
    dof rows of T_i as flat row offsets into the work array and those of
    T_j, and per chunk of _CHUNK kernel entries its slice of the batch, its
    mirror mask and the flat row offsets, into the (elements, n) table of
    _disjoint_blocks, of the elements that take its self weights."""
    ne = len(dm.h)
    first = dm.table[:, 0]
    i, j = _triu(ne, 2)
    kept = first[i] + first[j] <= limit
    i, j = i[kept], j[kept]
    flip = first[ne - 1 - j] + first[ne - 1 - i] > limit
    pi, pj = dm.degrees[i], dm.degrees[j]
    n = _disjoint_n(np.maximum(pi, pj) + quad_offset, dm.h[i], dm.h[j],
                    dm.lo[j] - dm.hi[i])
    groups = []
    for p, q, nq in sorted(set(zip(pi.tolist(), pj.tolist(), n.tolist()))):
        pairs = np.flatnonzero((pi == p) & (pj == q) & (n == nq))
        t, wt = _rule01(nq)
        ig, jg, fg = i[pairs], j[pairs], flip[pairs]
        hh = dm.h[ig] * dm.h[jg]
        step = max(1, _CHUNK // nq ** 2)
        chunks = []
        for c in range(0, len(pairs), step):
            b = slice(c, c + step)
            ix, jz, f = ig[b], jg[b], fg[b]
            own = np.concatenate((ix, ne - 1 - ix[f], jz, ne - 1 - jz[f]))
            chunks.append((b, f, own[:, None] * nq))
        groups.append((p, q, hh[:, None] * wt, -hh[:, None, None],
                       dm.lo[ig, None] + dm.h[ig, None] * t,
                       dm.lo[jg, None] + dm.h[jg, None] * t,
                       dm.table[ig, :p + 1][:, :, None] * (dm.n_dofs + 1),
                       dm.table[jg, :q + 1][:, None, :], chunks))
    return groups


def _disjoint_blocks(A, groups, s, ne):
    """T_i x T_j for j >= i + 2 per batch and chunk of _disjoint_plan, on
    a mesh of ne elements.

    On a tensor Gauss rule with K_ab = |x_a - z_b|^(-1-2s) the block factors
    into h_i h_j times S_x diag(w K w) S_x^T, -(S_x w) K (S_z w)^T (and its
    transpose) and S_z diag(w K^T w) S_z^T.  The cross blocks lie in the
    upper triangle and are scattered once per chunk; the self terms are
    summed per element and returned as the weights w K w and w K^T w, one
    {n: (elements, n)} table per point count, for _element_blocks (an
    element has one degree, so its row serves its own shapes).  On a mirror
    image (see assemble) a pair whose mirror pair (ne-1-j, ne-1-i) is
    skipped also adds its self weights, reversed, to the mirror elements
    ne-1-i and ne-1-j, which are theirs.
    """
    sums = {}
    for p, q, hw, scale, x, z, rows, cols, chunks in groups:
        nq = x.shape[1]
        wt = _rule01(nq)[1]
        sxw, szw = _gauss_shapes(p, nq) * wt, _gauss_shapes(q, nq) * wt
        table = sums.setdefault(nq, np.zeros((ne, nq))).reshape(-1)
        points = np.arange(nq)
        for b, f, own in chunks:
            K = z[b, None, :] - x[b, :, None]
            np.power(K, -1.0 - 2.0 * s, out=K)
            sx, sz = hw[b] * (K @ wt), hw[b] * (wt @ K)
            weights = np.concatenate((sx, sx[f, ::-1], sz, sz[f, ::-1]))
            np.add.at(table, (own + points).ravel(), weights.ravel())
            cross = (sxw @ K) @ szw.T
            cross *= scale[b]
            _scatter(A, rows[b] + cols[b], cross)
    return sums


def _divided_differences(p, tx, tz):
    """Rows (S(tx) - S(tz)) / (tx - tz) of the degree-p shapes S on the
    reference element (0, 1), taken exactly as the mean of S' over
    [tz, tx]: S' has degree p - 1, so the ceil(p/2)-point Gauss-Legendre
    rule on the segment integrates it exactly, and no difference of nearby
    values is divided by their distance.  The shape values at all the
    rule's points are summed in one product, then differentiated once."""
    theta, weights = _rule01((p + 1) // 2)
    values = _shape_matrix(p, (tz + theta[:, None] * (tx - tz)).ravel())
    mean = weights @ values.reshape(p + 1, len(theta), -1)
    return _diff_matrix(p).T @ mean


def _reference_blocks(groups, s, last):
    """The reference blocks sum_q w_q r_k r_l of the exact divided-difference
    rows r on (0, 1), on the point count of each degree's group of
    _element_plan: identical[p], with r against tz on the triangle z < x of
    the identical scheme, and, for a group that holds element 0 or the last
    element, endpoint[p], with r against the endpoint 0 under the
    Gauss-Jacobi weight r^(2-2s), divided by 2s.  Called before the work
    array is allocated, so that the shape values of the segment rule are
    never live beside it."""
    identical, endpoint = {}, {}
    for p, es, _, wh, *_ in groups:
        n = wh.shape[1]
        tx, tz, w = _identical_scheme(s, n)
        rows = _divided_differences(p, tx, tz)
        identical[p] = (rows * w) @ rows.T
        if es[0] == 0 or es[-1] == last:
            r, w = _jacobi01(n, 2.0 - 2.0 * s, 0.0)
            rows = _divided_differences(p, r, 0.0)
            endpoint[p] = (rows * w) @ rows.T / (2.0 * s)
    return identical, endpoint


def _element_plan(dm, quad_offset, limit):
    """Each element's own block per degree p, for the elements whose first
    dof, twice, is at most limit: (p, es, h, w h, left, right, dofs) on the
    (p + quad_offset)-point Gauss rule (t, w), with the distances to the
    endpoints in reference coordinates, left = (lo - a) + h t and
    right = (b - hi) + h (1 - t), so they keep their relative accuracy on
    the small elements at the boundary.  The first element's left distance
    and the last element's right one are inf, whose weight inf^(-2s) is 0:
    their near-endpoint term is a reference block of its own."""
    a, b = dm.lo[0], dm.hi[-1]
    kept = np.flatnonzero(2 * dm.table[:, 0] <= limit)
    groups = []
    for p in sorted(set(dm.degrees[kept].tolist())):
        es = kept[dm.degrees[kept] == p]
        h = dm.h[es, None]
        t, w = _rule01(p + quad_offset)
        left = (dm.lo[es, None] - a) + h * t
        right = (b - dm.hi[es, None]) + h * (1.0 - t)
        left[es == 0] = np.inf
        right[es == len(dm.h) - 1] = np.inf
        groups.append((p, es, h, w * h, left, right, dm.table[es, :p + 1]))
    return groups


def _element_blocks(A, groups, s, sums, reference, last):
    """Each element's own block, scattered once per degree of
    _element_plan, last being the index of the last element: the identical
    pair T x T, S_n diag(weights) S_n^T for each point count n, and the
    near-endpoint term of kappa on the two boundary elements.

    The singular terms are h^(1-2s) times the reference blocks
    (identical, endpoint) of _reference_blocks, whose rows are exact
    divided differences on the reference element, those of the identical
    pair on its triangle z < x.  The near-endpoint block is endpoint[p] on
    element 0 and, as the last element sees its shapes at the mirrored
    points 1 - r, where they are those at r reversed,
    endpoint[p][::-1, ::-1] on the last.  The weights are kappa h w at the
    plan's points (without the near-endpoint term of the two boundary
    elements), plus the self sums of the disjoint pairs at their own point
    counts.
    """
    two_s = 2.0 * s
    identical, endpoint = reference
    for p, es, h, wh, left, right, g in groups:
        blocks = h[:, :, None] ** (1.0 - two_s) * identical[p]
        weights = {m: table[es] for m, table in sums.items()}
        n = wh.shape[1]
        weights[n] = weights.get(n, 0.0) + wh * (
            left ** -two_s + right ** -two_s) / two_s
        for m, wm in weights.items():
            sx = _gauss_shapes(p, m)
            blocks += (sx * wm[:, None, :]) @ sx.T
        if es[0] == 0:
            blocks[0] += h[0, 0] ** (1.0 - two_s) * endpoint[p]
        if es[-1] == last:
            blocks[-1] += h[-1, 0] ** (1.0 - two_s) * endpoint[p][::-1, ::-1]
        _scatter_upper(A, g, blocks)


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


@dataclass(frozen=True)
class _Plan:
    """The part of assemble that depends on the dof map and quad_offset
    alone, built once by _plan and read by _pass for every s."""

    dofmap: object
    mirror: bool
    adjacent: list
    disjoint: list
    elements: list


def _plan(dofmap, quad_offset=_QUAD_OFFSET):
    """The mesh-only stage of assemble: the checks, the mirror decision, and
    per pair class the kept pairs with their points, h-products, distance
    bases and dof rows.  The dof table must ascend left to right
    (ValueError otherwise)."""
    quad_offset = _check_offset(quad_offset)
    _check_ascending(dofmap)
    N = dofmap.n_dofs
    mirror = _is_mirror_image(dofmap)
    # a block is built when its first row and column dofs sum to at most
    # limit: on a mirror image, when it reaches an entry r + c <= N - 1
    limit = N - 1 if mirror else 2 * N
    return _Plan(dofmap, mirror,
                 _adjacent_plan(dofmap, quad_offset, limit),
                 _disjoint_plan(dofmap, quad_offset, limit),
                 _element_plan(dofmap, quad_offset, limit))


def _pass(plan, s, load):
    """The system at s on a _plan with the given load: the reference blocks,
    the kernel powers, the products, the scatters and the final mirror."""
    s = _check_s(s)
    dm, N = plan.dofmap, plan.dofmap.n_dofs
    ne = len(dm.h)
    reference = _reference_blocks(plan.elements, s, ne - 1)
    adjacent = _adjacent_blocks(plan.adjacent, s)
    work = np.zeros((N + 1, N + 1))  # row and column N take dropped entries
    for g, blocks in adjacent:
        _scatter_upper(work, g, blocks)
    del adjacent
    sums = _disjoint_blocks(work, plan.disjoint, s, ne)
    _element_blocks(work, plan.elements, s, sums, reference, ne - 1)
    A = _symmetric_in_place(work, kernel_constant(s), plan.mirror)
    A.flags.writeable = load.flags.writeable = False
    return GalerkinSystem(stiffness=A, load=load, s=s)


def assemble(dofmap, s, quad_offset=_QUAD_OFFSET):
    """Assemble the stiffness matrix of the weak form (stiffness only).

    The per-direction point count for each element pair is
    max(p_i, p_j) + quad_offset.  The load is zero; attach one with
    dataclasses.replace(system, load=...).  The dof table must ascend left
    to right (ValueError otherwise), as build_dof_map numbers it.
    """
    return _pass(_plan(dofmap, quad_offset), s, np.zeros(dofmap.n_dofs))


def assemble_load(f, dofmap, quad_offset=_QUAD_OFFSET):
    """Load vector b_k = int_Omega f phi_k, per-element Gauss-Legendre,
    read-only.

    f is called once per degree on a 1-D array of points.
    """
    quad_offset = _check_offset(quad_offset)
    b = np.zeros(dofmap.n_dofs + 1)  # b[-1] takes the constrained dofs
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
        np.add.at(b, dofmap.table[es, :p + 1], local)
    b.flags.writeable = False
    return b[:-1]
