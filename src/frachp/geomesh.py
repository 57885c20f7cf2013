"""Geometric meshes on an interval, graded toward both endpoints.

A mesh with grading factor sigma in (0, 1) and L refinement layers has
2L+3 nodes and 2L+2 elements.  On the reference interval (-1, 1) the nodes
are

    -1,  -1 + sigma^L, ..., -1 + sigma,  0,  1 - sigma, ..., 1 - sigma^L,  1

and meshes on a general interval [a, b] are the affine image of this node
set.  The two boundary elements have length (b-a)/2 * sigma^L; every other
element T satisfies diam(T) <= K * dist(T, {a,b}) and
dist(T, {a,b}) <= K * diam(T) with K = max((1-sigma)/sigma, sigma/(1-sigma)).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["GeometricMesh", "build_geometric_mesh", "element_of"]


@dataclass(frozen=True)
class GeometricMesh:
    """Graded partition of [a, b]; immutable once built.

    Element i is the interval (nodes[i-1], nodes[i]), i = 1..2L+2; element_of
    returns these 1-based indices.
    """

    a: float
    b: float
    sigma: float
    layers: int
    nodes: np.ndarray

    @property
    def n_elements(self):
        return 2 * self.layers + 2


def build_geometric_mesh(domain, sigma, layers):
    """Build the geometric mesh with the given grading factor and layer count.

    Parameters
    ----------
    domain : pair of reals (a, b) with a < b and b - a finite
    sigma : grading factor, 0 < sigma < 1
    layers : number L >= 0 of refinement layers toward each endpoint

    L = 0 is the degenerate two-element mesh (bisection at the midpoint).
    A ValueError names sigma and L when rounding makes two nodes coincide
    (first at L = 22 for sigma = 0.17, L = 73 for sigma = 0.6, on (-1, 1)).
    """
    a, b = (float(domain[0]), float(domain[1]))
    if not (a < b and np.isfinite(b - a)):  # also rejects an infinite a or b
        raise ValueError("domain must be a nondegenerate interval of finite "
                         f"length, got ({a}, {b})")
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"grading factor sigma must lie in (0, 1), got {sigma}")
    layers = operator.index(layers)  # 2.5 raises TypeError, np.int64 passes
    if layers < 0:
        raise ValueError(f"layer count must be nonnegative, got {layers}")

    # powers sigma^k by repeated multiplication, boundary inward
    powers = np.cumprod(np.concatenate(([1.0], np.full(layers, sigma))))
    half = 0.5 * (b - a)
    nodes = np.concatenate(([a], a + half * powers[:0:-1], b - half * powers,
                            [b]))
    if not (nodes[1:] > nodes[:-1]).all():
        raise ValueError(f"sigma={sigma} with L={layers} layers puts two mesh "
                         "nodes on one double: half * sigma^L is below the "
                         "spacing of doubles at an endpoint")
    nodes.flags.writeable = False
    return GeometricMesh(a=a, b=b, sigma=sigma, layers=layers, nodes=nodes)


def element_of(mesh, x):
    """Index i (1-based) of the element with x in [x_{i-1}, x_i), for a point
    or elementwise for an array of points.

    Ties at shared nodes resolve to the right element; x = b returns the
    rightmost element.  A point outside [a, b], or NaN, raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    outside = ~((mesh.a <= x) & (x <= mesh.b))
    if outside.any():
        raise ValueError(f"point {x[outside].flat[0]} outside domain "
                         f"[{mesh.a}, {mesh.b}]")
    i = np.minimum(np.searchsorted(mesh.nodes, x, side="right"),
                   mesh.n_elements)
    return int(i) if i.ndim == 0 else i
