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
  whose rows are divided differences on the reference element;
* adjacent pairs T_e x T_e+1: the points are distances from the shared
  vertex normalised per element, so one shape table serves each degree
  pair; a pair only contributes its weights in the angular Duffy variable,
  applied to a table of angular slices;
* disjoint pairs T_i x T_j, j >= i + 2: on the tensor Gauss-Legendre rule
  the block factors into S_x diag(K 1) S_x^T, -S_x K S_z^T (and its
  transpose) and S_z diag(K^T 1) S_z^T, with K the kernel weights and S
  the shape tables, which depend on neither the element nor s and are
  cached across calls.  Pairs are batched per row i and point count, so a
  batch holds at most one pair per element.

Blocks are added with np.add.at, the rows and columns of constrained
endpoint dofs dropped, into the lower triangle, mirrored once at the end.
The complement term and the load are batched per degree on the
Gauss-Legendre shape tables of the disjoint pairs, with points in
per-element reference coordinates.  On the two boundary elements the
endpoint singularity of kappa is removed analytically by factoring the
first-order zero of the basis functions, leaving a Gauss-Jacobi weight with
exponent 2-2s.

assemble(dofmap, s, quad_offset=6) and assemble_load(f, dofmap,
quad_offset=6) read the element bounds, lengths, degrees and dof rows from
the element table of the dof map, which also carries the mesh.
"""

from __future__ import annotations

import math
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

    The table serves every disjoint pair, complement block and load batch
    with these (p, n); it depends on neither the element nor s.
    """
    t, _ = _rule01(n)
    table = _shape_matrix(p, 2.0 * t - 1.0)
    table.flags.writeable = False
    return table


def _scatter(A, rows, cols, blocks):
    """A[rows[b, k], cols[b, l]] += blocks[b, k, l] where rows >= cols >= 0.

    The one mask keeps the lower triangle, which assemble mirrors once, and
    drops the constrained endpoint dofs (index -1).  Flat indices into the
    contiguous A make np.add.at several times faster than index pairs.
    """
    rows, cols = rows[:, :, None], cols[:, None, :]
    keep = (rows >= cols) & (cols >= 0)
    flat = rows * A.shape[1] + cols
    np.add.at(A.reshape(-1), flat[keep], blocks[keep])


def _identical_blocks(A, dm, s, quad_offset):
    """T x T for every element: h^(1-2s) times one reference block per
    degree, whose rows are the divided differences on the reference
    element."""
    for p in np.unique(dm.degrees).tolist():
        es = np.flatnonzero(dm.degrees == p)
        tx, tz, w = _identical_scheme(s, p + quad_offset)
        rows = _shape_matrix(p, 2.0 * tx - 1.0)
        rows -= _shape_matrix(p, 2.0 * tz - 1.0)
        rows /= tx - tz
        ref = (rows * w) @ rows.T
        g = dm.dofs(es)
        _scatter(A, g, g, dm.h[es, None, None] ** (1.0 - 2.0 * s) * ref)


def _adjacent_table(s, n, pi, pj):
    """Angular slices of the adjacent block for degrees (pi, pj): row
    (t, u) holds sum_q wq/xi^2 r_k r_l over the radial points of triangle t
    at angular point u, r being the divided-difference rows with the shared
    vertex merged; shape (2n, m*m), m = pi + pj + 1."""
    rho_x, rho_z, xi, wq = _adjacent_scheme(s, n)
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
    variable, so each block is one row of weights times the table.
    """
    e = np.arange(len(dm.h) - 1)
    keys = np.stack((dm.degrees[:-1], dm.degrees[1:]), axis=1)
    for pi, pj in np.unique(keys, axis=0).tolist():
        es = e[(keys[:, 0] == pi) & (keys[:, 1] == pj)]
        n = max(pi, pj) + quad_offset
        tu, wu = _rule01(n)
        hx, hz = dm.h[es, None], dm.h[es + 1, None]
        weights = 2.0 * hx[:, None] * hz[:, None] * wu * _adjacent_lengths(
            tu, hx, hz) ** (-1.0 - 2.0 * s)
        blocks = weights.reshape(len(es), 2 * n) @ _adjacent_table(
            s, n, pi, pj)  # the table is freed before the scatter
        g = np.concatenate((dm.dofs(es)[:, :pi], dm.dofs(es + 1)), axis=1)
        _scatter(A, g, g, blocks.reshape(len(es), pi + pj + 1, -1))


def _disjoint_blocks(A, dm, s, quad_offset):
    """T_i x T_j for j >= i + 2, twice, batched per row i and point count.

    On a tensor Gauss rule the kernel weights K_ab = h_i h_j w_a w_b
    |x_a - z_b|^(-1-2s) factor the block into S_x diag(K 1) S_x^T,
    -S_x K S_z^T (and its transpose) and S_z diag(K^T 1) S_z^T.
    """
    ne = len(dm.h)
    for i in range(ne - 2):
        js = np.arange(i + 2, ne)
        pi = int(dm.degrees[i])
        pj = dm.degrees[js]
        n = _disjoint_n(np.maximum(pi, pj) + quad_offset, dm.h[i], dm.h[js],
                        dm.lo[js] - dm.hi[i])
        gx = dm.elem_dofs[i]
        own = np.zeros((pi + 1, pi + 1))
        for p, nq in sorted(set(zip(pj.tolist(), n.tolist()))):
            sel = js[(pj == p) & (n == nq)]
            t, wt = _rule01(nq)
            x = dm.lo[i] + dm.h[i] * t
            z = dm.lo[sel, None] + dm.h[sel, None] * t
            K = z[:, None, :] - x[:, None]
            np.power(K, -1.0 - 2.0 * s, out=K)
            K *= (dm.h[i] * dm.h[sel])[:, None, None] * np.outer(wt, wt)
            sx, sz = _gauss_shapes(pi, nq), _gauss_shapes(p, nq)
            own += (sx * K.sum(axis=(0, 2))) @ sx.T
            cross = -2.0 * (sx @ K) @ sz.T
            gz = dm.dofs(sel)
            gxs = np.broadcast_to(gx, (len(sel), pi + 1))
            _scatter(A, gxs, gz, cross)
            _scatter(A, gz, gxs, cross.swapaxes(1, 2))
            _scatter(A, gz, gz, 2.0 * (sz * K.sum(axis=1)[:, None, :]) @ sz.T)
        _scatter(A, gx[None], gx[None], 2.0 * own[None])


def _complement_blocks(dm, s, quad_offset):
    """Blocks of int_T phi_k phi_l kappa, as (elements, blocks) batches:
    every element per degree, then the near-endpoint term of each boundary
    element.

    The distances to the endpoints are taken in reference coordinates,
    (lo - a) + h t and (b - hi) + h (1 - t), so they keep their relative
    accuracy on the small elements at the boundary.  The Gauss batch leaves
    out the near-endpoint term of the two boundary elements; there the
    first-order zero of the active shapes is factored out and t^(2-2s)
    (or (1 - t)^(2-2s)) is absorbed into a Gauss-Jacobi weight.
    """
    a, b = dm.lo[0], dm.hi[-1]
    two_s = 2.0 * s
    last = len(dm.h) - 1
    batches = []
    for p in np.unique(dm.degrees).tolist():
        es = np.flatnonzero(dm.degrees == p)
        n = p + quad_offset
        t, w = _rule01(n)
        h = dm.h[es, None]
        left = ((dm.lo[es, None] - a) + h * t) ** -two_s
        right = ((b - dm.hi[es, None]) + h * (1.0 - t)) ** -two_s
        left[es == 0] = 0.0
        right[es == last] = 0.0
        weights = w * h * (left + right) / two_s
        vals = _gauss_shapes(p, n)
        batches.append((es, (vals * weights[:, None, :]) @ vals.T))
    for e, near_exps in ((0, (2.0 - two_s, 0.0)), (last, (0.0, 2.0 - two_s))):
        p = int(dm.degrees[e])
        tj, wj = _jacobi01(p + quad_offset, *near_exps)
        ratios = _shape_matrix(p, 2.0 * tj - 1.0)
        ratios /= tj if e == 0 else 1.0 - tj
        weights = wj * dm.h[e] ** (1.0 - two_s) / two_s
        batches.append(([e], ((ratios * weights) @ ratios.T)[None]))
    return batches


def assemble(dofmap, s, quad_offset=6):
    """Assemble the stiffness matrix of the weak form (stiffness only).

    The per-direction point count for each element pair is
    max(p_i, p_j) + quad_offset.  The load is zero; attach one with
    dataclasses.replace(system, load=...).
    """
    _check_s(s)
    s = float(s)
    N = dofmap.n_dofs
    A = np.zeros((N, N))
    _identical_blocks(A, dofmap, s, quad_offset)
    _adjacent_blocks(A, dofmap, s, quad_offset)
    _disjoint_blocks(A, dofmap, s, quad_offset)

    c = kernel_constant(s)
    A *= 0.5 * c
    for es, blocks in _complement_blocks(dofmap, s, quad_offset):
        g = dofmap.dofs(es)
        _scatter(A, g, g, c * blocks)

    A += np.tril(A, -1).T  # mirror the lower triangle once
    if not np.all(np.isfinite(A)):
        raise RuntimeError("stiffness assembly produced non-finite entries")
    return GalerkinSystem(stiffness=A, load=np.zeros(N), s=s)


def assemble_load(f, dofmap, quad_offset=6):
    """Load vector b_k = int_Omega f phi_k, per-element Gauss-Legendre.

    f is called once per degree on a 1-D array of points.
    """
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
