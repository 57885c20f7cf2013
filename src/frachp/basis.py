"""Lagrange shape functions on Gauss-Lobatto nodes and the global dof map.

The discrete space is C^0 piecewise polynomial on a GeometricMesh with a
per-element degree assignment and zero trace at the domain endpoints.  The
local basis is nodal (Lagrange cardinal functions on the Gauss-Lobatto
points), so interpolation at those points is a coefficient read-off.

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
from functools import lru_cache

import numpy as np

from .geomesh import GeometricMesh, element_of

__all__ = [
    "DegreeRule", "DofMap", "gauss_lobatto_nodes", "build_dof_map",
    "eval_fem_function", "eval_fem_derivative",
]


def _legendre_pair(n, x):
    """(P_n(x), P_{n-1}(x)) evaluated together, n >= 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


@lru_cache(maxsize=None)
def _lobatto_nodes(p):
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if p == 1:
        nodes = np.array([-1.0, 1.0])
    else:
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
        nodes = np.concatenate(([-1.0], x, [1.0]))
    nodes.flags.writeable = False
    return nodes


def gauss_lobatto_nodes(p):
    """The p+1 Gauss-Lobatto points of degree p: -1, roots of P_p', 1."""
    return _lobatto_nodes(operator.index(p))


@lru_cache(maxsize=None)
def _bary_weights(p):
    t = _lobatto_nodes(p)
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _diff_matrix(p):
    """D[i, j] = l_j'(t_i) on the Gauss-Lobatto nodes of degree p."""
    t = _lobatto_nodes(p)
    w = _bary_weights(p)
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    D.flags.writeable = False
    return D


def _shape_matrix(p, t):
    """Values of all p+1 cardinal functions at points t; shape (p+1, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes = _lobatto_nodes(p)
    w = _bary_weights(p)
    d = t[None, :] - nodes[:, None]
    exact = d == 0.0
    hit = exact.any(axis=0)
    d[exact] = 1.0
    vals = np.divide(w[:, None], d, out=d)  # in place: tables can be large
    vals /= vals.sum(axis=0)
    if hit.any():
        vals[:, hit] = exact[:, hit]
    return vals


def _shape_deriv_matrix(p, t):
    # l_m' has degree p-1, so interpolating its nodal values is exact
    return _diff_matrix(p).T @ _shape_matrix(p, t)


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

    def dofs(self, es):
        """Stacked dof rows of elements es, which must share one degree."""
        es = np.asarray(es)
        p = self.degrees[es]
        if (p != p[0]).any():
            raise ValueError("dofs needs elements of one degree, got degrees "
                             f"{sorted(set(p.tolist()))}")
        return self.table[es, :p[0] + 1]


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


def _lobatto_eval(values, lo, hi, x, derivative=False):
    """The polynomial on (lo, hi) with nodal values `values` at the degree
    len(values) - 1 Gauss-Lobatto points mapped there, or its derivative,
    at x (a scalar gives a scalar)."""
    x = np.asarray(x, dtype=float)
    p = len(values) - 1
    t = 2.0 * (x - lo) / (hi - lo) - 1.0
    vals = values @ (_shape_deriv_matrix(p, t) if derivative
                     else _shape_matrix(p, t))
    if derivative:
        vals *= 2.0 / (hi - lo)
    return vals.reshape(x.shape)[()]


def _element_eval(dofmap, coeffs, e, x, derivative=False):
    """Evaluate the FEM function (or derivative) at points x inside element e."""
    g = dofmap.table[e, :dofmap.degrees[e] + 1]
    return _lobatto_eval(np.where(g >= 0, coeffs[g], 0.0), dofmap.lo[e],
                         dofmap.hi[e], x, derivative)


def _eval(dofmap, coeffs, x, derivative):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dofmap.n_dofs,):
        raise ValueError(f"coefficient vector must have length {dofmap.n_dofs}, "
                         f"got shape {coeffs.shape}")
    xs = np.asarray(x, dtype=float)
    es = element_of(dofmap.mesh, xs) - 1
    out = np.empty_like(xs)
    for e in sorted(set(np.ravel(es).tolist())):
        at = es == e
        out[at] = _element_eval(dofmap, coeffs, e, xs[at], derivative)
    return out[()]


def eval_fem_function(dofmap, coeffs, x):
    """Value of sum_k coeffs[k] * phi_k at x; constrained dofs contribute 0."""
    return _eval(dofmap, coeffs, x, derivative=False)


def eval_fem_derivative(dofmap, coeffs, x):
    """Derivative of the FEM function at x (one-sided at mesh nodes)."""
    return _eval(dofmap, coeffs, x, derivative=True)
