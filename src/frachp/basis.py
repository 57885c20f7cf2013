"""Lagrange shape functions on Gauss-Lobatto nodes and the global dof map.

The discrete space is C^0 piecewise polynomial on a GeometricMesh with a
per-element degree assignment and zero trace at the domain endpoints.  The
local basis is nodal (Lagrange cardinal functions on the Gauss-Lobatto
points), so interpolation at those points is a coefficient read-off.  The
shapes live on the one reference element (0, 1), where the quadrature
rules live too: element (lo, hi) of length h holds the point lo + h t.
The shapes at the Gauss-Legendre points of that element are tabulated
once per degree and point count, and the assembly and the interpolation
study both read that table.  It and the Gauss-Lobatto nodes, barycentric
weights and derivative matrices of each degree are kept by the one cache
of quadrature._cached, which hands every table out read-only.

Global numbering: left to right.  Element e holds the consecutive indices
off_e - 1, ..., off_e + p_e - 1 with off_e = p_0 + ... + p_{e-1}, its right
vertex being the left vertex of element e + 1, so the dofs of element i lie
below those of every element j >= i + 2.  The two endpoint vertex dofs are
constrained to zero and carry the sentinel index -1 in the element table of
the DofMap, which also holds the element bounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geomesh import GeometricMesh, element_of
from .quadrature import _cached, _rule01

__all__ = [
    "DegreeRule", "DofMap", "gauss_lobatto_nodes", "build_dof_map",
    "eval_fem_function",
]


def _legendre_pair(n, x):
    """(P_n(x), P_{n-1}(x)) evaluated together, n >= 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


# typed: a hit on 3 must not let 3.0 past operator.index
@_cached(typed=True)
def gauss_lobatto_nodes(p):
    """The p+1 Gauss-Lobatto points of degree p: -1, roots of P_p', 1."""
    p = operator.index(p)
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if p == 1:
        return np.array([-1.0, 1.0])
    # interior nodes: roots of P_p', Newton from Chebyshev-Lobatto guesses
    x = -np.cos(np.pi * np.arange(1, p) / p)
    for _ in range(100):
        pn, pn1 = _legendre_pair(p, x)
        dp = p * (x * pn - pn1) / (x * x - 1.0)
        d2p = (2.0 * x * dp - p * (p + 1) * pn) / (1.0 - x * x)
        step = dp / d2p
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # exact symmetry about 0
    return np.concatenate(([-1.0], x, [1.0]))


@_cached()
def _bary_weights(p):
    t = gauss_lobatto_nodes(p)
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


@_cached()
def _lobatto_nodes01(p):
    """The Gauss-Lobatto nodes on the reference element (0, 1), (1 + t) / 2,
    each as the unevaluated sum hi + lo of two doubles; lo is the rounding
    error of 1 + t, exact as |t| <= 1."""
    t = gauss_lobatto_nodes(p)
    hi = 1.0 + t
    lo = t - (hi - 1.0)
    hi *= 0.5
    lo *= 0.5
    return hi, lo


@_cached()
def _diff_matrix(p):
    """D[i, j] = l_j'(t_i), the derivative on (0, 1), at the nodes t_i."""
    t = gauss_lobatto_nodes(p)
    w = _bary_weights(p)
    diff = 0.5 * (t[:, None] - t[None, :])  # node distances on (0, 1)
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _shape_matrix(p, t):
    """Values of all p+1 cardinal functions at points t of the reference
    element (0, 1); shape (p+1, len(t)).  The distances t - node are taken
    from the two-double nodes, so they keep their relative accuracy next
    to every node.  On the mirrored point 1 - t the rows come reversed:
    l_k(1 - t) = l_{p-k}(t)."""
    hi, lo = _lobatto_nodes01(p)
    d = np.asarray(t, dtype=float).reshape(1, -1) - hi[:, None]
    d -= lo[:, None]
    exact = d == 0.0
    d[exact] = 1.0
    # barycentric formula, in place: tables can be large; a point on a
    # node takes its unit column, which the normalisation keeps
    vals = np.divide(_bary_weights(p)[:, None], d, out=d)
    hit = exact.any(axis=0)
    if hit.any():
        vals[:, hit] = exact[:, hit]
    vals /= vals.sum(axis=0)
    return vals


@_cached()
def _gauss_shapes(p, n):
    """Degree-p shapes at the n Gauss-Legendre points of the reference
    element, read-only.

    The one cached table of these (p, n): it serves every disjoint pair,
    element block and load batch of the assembly and every interior batch
    of the interpolation study; it depends on neither the element nor s.
    """
    return _shape_matrix(p, _rule01(n)[0])


@dataclass(frozen=True)
class DegreeRule:
    """Per-element degree assignment.

    uniform(p) gives degree p everywhere; reduced(p) lowers the degree to 1
    on the two boundary elements.  reduced(1) coincides with uniform(1).
    """

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("uniform", "reduced"):
            raise ValueError(f"unknown degree rule kind {self.kind!r}")
        # a non-integer degree raises TypeError instead of truncating
        object.__setattr__(self, "p", operator.index(self.p))
        if self.p < 1:
            raise ValueError(f"degree must be >= 1, got {self.p}")

    @classmethod
    def uniform(cls, p):
        return cls("uniform", p)

    @classmethod
    def reduced(cls, p):
        return cls("reduced", p)

    def degrees(self, mesh):
        deg = np.full(mesh.n_elements, self.p, dtype=int)
        if self.kind == "reduced":
            deg[0] = 1
            deg[-1] = 1
        return deg


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the zero-trace C^0 basis on a mesh, and the one
    element table that assembly, evaluation and interpolation read.

    table[e, k] is the global index of local shape k on element e (0-based
    element, local 0 = left vertex, local p_e = right vertex), -1 for a
    constrained endpoint dof and for the padding past p_e, so element e
    reads table[e, :degrees[e] + 1].  Read row by row, the active indices
    ascend: table[e, k] = p_0 + ... + p_{e-1} + k - 1, on which assembly
    relies.

    lo and hi are the element bounds and h = hi - lo: the finite element
    space lives on the stored mesh nodes.
    """

    mesh: GeometricMesh
    degrees: np.ndarray
    n_dofs: int
    table: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    h: np.ndarray


def build_dof_map(mesh, rule):
    """Assign global dof indices left to right: element e holds
    off_e - 1 .. off_e + p_e - 1, off_e = p_0 + ... + p_{e-1}."""
    degrees = rule.degrees(mesh)
    off = np.cumsum(degrees) - degrees
    n_dofs = int(degrees.sum()) - 1
    k = np.arange(degrees.max() + 1)
    table = off[:, None] - 1 + k  # local 0 of element 0 is already -1
    table[k > degrees[:, None]] = -1
    table[-1, degrees[-1]] = -1
    table.flags.writeable = False
    h = np.diff(mesh.nodes)
    h.flags.writeable = False
    return DofMap(mesh=mesh, degrees=degrees, n_dofs=n_dofs, table=table,
                  lo=mesh.nodes[:-1], hi=mesh.nodes[1:], h=h)


def _element_values(values, h, table, derivative=False):
    """The polynomial of nodal values values[k] on the Gauss-Lobatto nodes
    of element k, of length h[k], or its derivative in x, at reference
    points whose shape values the caller tabulates: table[:, k, :] holds
    the p + 1 shapes at the points of element k, and a table with a single
    middle row, such as _gauss_shapes(p, n)[:, None], serves all elements.
    One batched product; shape (len(values), table.shape[2])."""
    if derivative:
        # the nodal values of the derivative, of degree p - 1: exact
        values = values @ _diff_matrix(values.shape[1] - 1).T / h[:, None]
    return (values[:, None, :] @ table.swapaxes(0, 1))[:, 0]


def _eval(dofmap, coeffs, x, derivative):
    """The FEM function, or its derivative, at the points x, one batch per
    degree; a mesh node belongs to the element on its right."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dofmap.n_dofs,):
        raise ValueError(f"coefficient vector must have length {dofmap.n_dofs}, "
                         f"got shape {coeffs.shape}")
    coeffs = np.append(coeffs, 0.0)  # index -1, a constrained dof, reads 0
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    es = element_of(dofmap.mesh, xs) - 1
    degrees = dofmap.degrees[es]
    out = np.empty_like(xs)
    for p in sorted(set(degrees.tolist())):
        at = degrees == p
        e = es[at]
        S = _shape_matrix(p, (xs[at] - dofmap.lo[e]) / dofmap.h[e])
        out[at] = _element_values(coeffs[dofmap.table[e, :p + 1]],
                                  dofmap.h[e], S[..., None], derivative)[:, 0]
    return out.reshape(x.shape)[()]


def eval_fem_function(dofmap, coeffs, x):
    """Value of sum_k coeffs[k] * phi_k at x; constrained dofs contribute 0."""
    return _eval(dofmap, coeffs, x, derivative=False)
