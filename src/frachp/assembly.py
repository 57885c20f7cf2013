"""Galerkin stiffness and load assembly for the integral fractional Laplacian.

For test/trial functions vanishing outside Omega = (a, b), the full-line
bilinear form splits into a double integral over Omega x Omega plus a local
term carrying the complement weight kappa:

    a(u, v) = C(s)/2 * iint_{OxO} (u(x)-u(z))(v(x)-v(z)) |x-z|^(-1-2s) dz dx
            + C(s)   * int_O u v kappa,
    kappa(x) = int_{R \\ O} |x-z|^(-1-2s) dz
             = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s).

kappa is available in closed form, so no unbounded-domain quadrature is
needed.  The double integral is assembled over ordered element pairs with
the singular schemes from the quadrature module; on the two boundary
elements the endpoint singularity of kappa is removed analytically by
factoring the first-order zero of the basis functions, leaving a
Gauss-Jacobi weight with exponent 2-2s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _shape_matrix
from .quadrature import (_check_s, _jacobi01, _rule01, classify_pair,
                         pair_quadrature)

__all__ = ["GalerkinSystem", "kernel_constant", "complement_weight",
           "assemble", "assemble_load"]


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric stiffness matrix and load vector; immutable once built."""

    stiffness: np.ndarray
    load: np.ndarray
    s: float
    provenance: str

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


def _mapped_shapes(dofmap, e, x):
    """Shape-function values of element e (0-based) at physical points x."""
    lo, hi = dofmap.mesh.element(e + 1)
    t = 2.0 * (x - lo) / (hi - lo) - 1.0
    return _shape_matrix(int(dofmap.degrees[e]), t)


def _pair_block(mesh, dofmap, i, j, s, n):
    """Divided-difference contribution of the ordered pair (T_i, T_j), i <= j.

    Returns (globals, local) with local[k, l] = iint dd_k dd_l |x-z|^(1-2s),
    doubled for i < j to cover the mirrored pair.
    """
    pair = classify_pair(mesh, i, j)
    x, z, w = pair_quadrature(pair, s, n, (mesh.element(i), mesh.element(j)))
    sx = _mapped_shapes(dofmap, i - 1, x)
    gx = dofmap.elem_dofs[i - 1]
    if i == j:
        sz = _mapped_shapes(dofmap, i - 1, z)
        keep = gx >= 0
        gs = gx[keep]
        rows = sx[keep] - sz[keep]
    else:
        sz = _mapped_shapes(dofmap, j - 1, z)
        gz = dofmap.elem_dofs[j - 1]
        acc = {}
        for k, g in enumerate(gx):
            if g >= 0:
                acc[int(g)] = sx[k].copy()
        for k, g in enumerate(gz):
            if g >= 0:
                if int(g) in acc:
                    acc[int(g)] -= sz[k]
                else:
                    acc[int(g)] = -sz[k]
        gs = np.fromiter(acc.keys(), dtype=int, count=len(acc))
        rows = np.vstack(list(acc.values()))
    rows = rows / (x - z)
    local = (rows * w) @ rows.T
    if i != j:
        local *= 2.0
    return gs, local


def _complement_block(mesh, dofmap, e, s, n):
    """Local matrix of int_T phi_k phi_l kappa over element e (0-based)."""
    i = e + 1
    lo, hi = mesh.element(i)
    h = hi - lo
    a, b = mesh.a, mesh.b
    g = dofmap.elem_dofs[e]
    keep = g >= 0
    two_s = 2.0 * s
    if e == 0 or e == mesh.n_elements - 1:
        # boundary element: the active shapes vanish at the domain endpoint;
        # factor that zero and absorb (dist)^(2-2s) into a Jacobi weight
        endpoint, far_end = (a, b) if e == 0 else (b, a)
        exp0 = (2.0 - two_s, 0.0) if e == 0 else (0.0, 2.0 - two_s)
        tj, wj = _jacobi01(n, *exp0)
        xj = lo + h * tj
        ratios = _mapped_shapes(dofmap, e, xj)[keep] / np.abs(xj - endpoint)
        local = (ratios * (wj * h ** (3.0 - two_s) / two_s)) @ ratios.T
        tg, wg = _rule01(n)
        xg = lo + h * tg
        kappa_far = np.abs(far_end - xg) ** (-two_s) / two_s
        vals = _mapped_shapes(dofmap, e, xg)[keep]
        local += (vals * (wg * h * kappa_far)) @ vals.T
    else:
        tg, wg = _rule01(n)
        xg = lo + h * tg
        vals = _mapped_shapes(dofmap, e, xg)[keep]
        local = (vals * (wg * h * complement_weight((a, b), s, xg))) @ vals.T
    return g[keep], local


def assemble(mesh, dofmap, s, quad_offset=6):
    """Assemble the stiffness matrix of the weak form (stiffness only).

    The per-direction point count for each element pair is
    max(p_i, p_j) + quad_offset.  The load is zero; attach one with
    dataclasses.replace(system, load=...).
    """
    _check_s(s)
    if dofmap.mesh is not mesh and not np.array_equal(dofmap.mesh.nodes, mesh.nodes):
        raise ValueError("dofmap was built for a different mesh")
    s = float(s)
    ne = mesh.n_elements
    N = dofmap.n_dofs
    A = np.zeros((N, N))
    for i in range(1, ne + 1):
        for j in range(i, ne + 1):
            p = max(dofmap.degrees[i - 1], dofmap.degrees[j - 1])
            gs, local = _pair_block(mesh, dofmap, i, j, s, int(p) + quad_offset)
            A[np.ix_(gs, gs)] += local

    c = kernel_constant(s)
    A *= 0.5 * c
    for e in range(ne):
        n = int(dofmap.degrees[e]) + quad_offset
        gs, local = _complement_block(mesh, dofmap, e, s, n)
        A[np.ix_(gs, gs)] += c * local

    A = np.tril(A) + np.tril(A, -1).T  # mirror the lower triangle
    if not np.all(np.isfinite(A)):
        raise RuntimeError("stiffness assembly produced non-finite entries")
    prov = (f"mesh=({mesh.a},{mesh.b}),sigma={mesh.sigma},L={mesh.layers};"
            f"rule={dofmap.rule.kind}(p={dofmap.rule.p});s={s}")
    return GalerkinSystem(stiffness=A, load=np.zeros(N), s=s, provenance=prov)


def assemble_load(f, mesh, dofmap, quad_offset=6):
    """Load vector b_k = int_Omega f phi_k, per-element Gauss-Legendre."""
    b = np.zeros(dofmap.n_dofs)
    for e in range(mesh.n_elements):
        lo, hi = mesh.element(e + 1)
        h = hi - lo
        t, w = _rule01(int(dofmap.degrees[e]) + quad_offset)
        x = lo + h * t
        fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
        if not np.all(np.isfinite(fx)):
            raise ValueError(f"load function returned non-finite values on "
                             f"element {e + 1}")
        g = dofmap.elem_dofs[e]
        keep = g >= 0
        vals = _mapped_shapes(dofmap, e, x)[keep]
        b[g[keep]] += vals @ (w * h * fx)
    return b
