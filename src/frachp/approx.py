"""Approximation-theory toolbox: weighted norms, interpolants, and the
empirical weighted-analytic-regularity check for the benchmark solution.

Weighted integrals with an endpoint singularity are computed by factoring
the known endpoint exponent into a Gauss-Jacobi weight; the point count is
doubled until the values stabilize, with one Aitken extrapolation step as a
fallback for slowly converging (merely Hoelder) residual factors.  Inputs
whose weighted integral diverges are detected when that stabilization
fails.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import Polynomial

from .basis import (DegreeRule, _element_eval, _lobatto_eval, build_dof_map,
                    gauss_lobatto_nodes)
from .geomesh import build_geometric_mesh
from .postproc import exact_solution, solution_constant
from .quadrature import _jacobi01, _rule01

__all__ = [
    "DerivativeRecurrence", "DivergentIntegralError",
    "InterpolationBoundResult", "DerivativeNormSequence",
    "linear_endpoint_interpolant", "endpoint_interpolation_check",
    "gauss_lobatto_interpolant", "build_hp_interpolant",
    "weighted_derivative_norms", "interpolant_weighted_error",
    "interpolation_error_study",
]

# the weighted integrals reuse a few weight exponents at up to 1024 points
_weighted_rule = lru_cache(maxsize=None)(_jacobi01)


class DivergentIntegralError(RuntimeError):
    """Raised when a weighted integral fails to stabilize under refinement."""


def _stabilized_integral(g, length, exponent):
    """int_0^length x^exponent g(x) dx.

    Gauss-Jacobi with the weight factored out; doubles the point count from
    32 up to 1024 until two successive values agree to 1e-9 relative.  Slow
    but settling sequences get a single Aitken step; growing ones raise
    DivergentIntegralError.
    """
    if exponent <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent {exponent} is not integrable")
    vals = []
    n, n_max, rtol = 32, 1024, 1e-9
    while True:
        t, w = _weighted_rule(n, exponent, 0.0)
        vals.append(length ** (exponent + 1.0)
                    * float(w @ np.asarray(g(length * t), dtype=float)))
        if len(vals) >= 2:
            if abs(vals[-1] - vals[-2]) <= rtol * max(abs(vals[-1]), 1e-300):
                return vals[-1]
        if n >= n_max:
            break
        n *= 2
    d1 = abs(vals[-2] - vals[-3])
    d2 = abs(vals[-1] - vals[-2])
    if d1 > 0.0 and d2 < 0.9 * d1:
        rho = d2 / d1
        return vals[-1] + (vals[-1] - vals[-2]) * rho / (1.0 - rho)
    raise DivergentIntegralError(
        f"weighted integral did not stabilize (last values {vals[-3:]}); "
        "the integrand appears non-integrable")


def linear_endpoint_interpolant(v):
    """Linear interpolant of v at the endpoints of [0, 1]."""
    v0, v1 = float(v(0.0)), float(v(1.0))
    return Polynomial([v0, v1 - v0])


@dataclass(frozen=True)
class InterpolationBoundResult:
    lhs: float
    rhs: float
    ratio: float


def endpoint_interpolation_check(v, dv, d2v, beta_prime, epsilon):
    """Compare the weighted interpolation error of the endpoint interpolant
    against the weighted second-derivative norm on (0, 1].

    lhs = ||x^(b'-1) e|| + ||x^b' e'||  with  e = v - Iv,
    rhs = ||x^min(b'+1, 3/2-eps) v''||.
    """
    if not 0.0 <= beta_prime < 1.0:
        raise ValueError(f"beta_prime must lie in [0, 1), got {beta_prime}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    bp, eps = beta_prime, epsilon
    iv = linear_endpoint_interpolant(v)
    slope = iv.coef[1]

    def err_over_x(x):
        return (np.asarray(v(x), dtype=float) - iv(x)) / x

    def derr(x):
        return np.asarray(dv(x), dtype=float) - slope

    val_term = _stabilized_integral(lambda x: err_over_x(x) ** 2, 1.0,
                                    2.0 * bp)
    der_term = _stabilized_integral(lambda x: derr(x) ** 2, 1.0, 2.0 * bp)
    m = min(bp + 1.0, 1.5 - eps)
    rhs_sq = _stabilized_integral(
        lambda x: np.asarray(d2v(x), dtype=float) ** 2, 1.0, 2.0 * m)
    lhs = math.sqrt(max(0.0, val_term)) + math.sqrt(max(0.0, der_term))
    rhs = math.sqrt(max(0.0, rhs_sq))
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    return InterpolationBoundResult(lhs=lhs, rhs=rhs, ratio=ratio)


def gauss_lobatto_interpolant(v, element, p):
    """Degree-p interpolant of v at the mapped Gauss-Lobatto nodes, as a
    callable on arrays; v is called once per node."""
    lo, hi = float(element[0]), float(element[1])
    t = gauss_lobatto_nodes(p)
    x = lo + 0.5 * (hi - lo) * (t + 1.0)
    values = np.array([float(v(xi)) for xi in x])
    return partial(_lobatto_eval, values, lo, hi)


def build_hp_interpolant(u, dofmap):
    """Nodal coefficients of the interpolant of u on dofmap: degree-p
    Gauss-Lobatto interpolation on each element of degree p.  On a
    reduced-rule map this is the hp interpolant, linear on the two boundary
    elements.

    u is called once per element on that element's nodes; global continuity
    holds because shared vertices receive shared values.
    """
    mesh = dofmap.mesh
    tol = 1e-10 * max(1.0, abs(float(u(0.5 * (mesh.a + mesh.b)))))
    if abs(float(u(mesh.a))) > tol or abs(float(u(mesh.b))) > tol:
        raise ValueError("interpolated function must vanish at the domain "
                         "endpoints")
    coeffs = np.zeros(dofmap.n_dofs)
    for lo, h, p, row in zip(dofmap.lo, dofmap.h, dofmap.degrees.tolist(),
                             dofmap.table):
        g = row[:p + 1]
        x = lo + 0.5 * h * (gauss_lobatto_nodes(p) + 1.0)
        coeffs[g[g >= 0]] = np.asarray(u(x), dtype=float)[g >= 0]
    return coeffs


@dataclass(frozen=True)
class DerivativeRecurrence:
    """Polynomials q_p with D^p (1-x^2)^s = (1-x^2)^(s-p) q_p(x)."""

    s: float
    polynomials: tuple

    @classmethod
    def build(cls, s, p_max):
        x = Polynomial([0.0, 1.0])
        one_minus_x2 = Polynomial([1.0, 0.0, -1.0])
        qs = [Polynomial([1.0])]
        for p in range(operator.index(p_max)):
            q = qs[-1]
            qs.append(one_minus_x2 * q.deriv() - 2.0 * (s - p) * x * q)
        return cls(s=float(s), polynomials=tuple(qs))

    def derivative(self, p, x):
        """D^p (1-x^2)^s at x (without the benchmark constant c_s)."""
        x = np.asarray(x, dtype=float)
        return ((1.0 - x * x) ** (self.s - p) * self.polynomials[p](x))[()]


@dataclass(frozen=True)
class DerivativeNormSequence:
    """Weighted derivative norms for p = 1..p_max and the fitted growth rate."""

    norms: np.ndarray
    gamma_emp: float


def weighted_derivative_norms(s, p_max, epsilon):
    """||r^(p-1/2-s+eps) D^p u|| for p = 1..p_max, u the benchmark solution.

    The combined endpoint exponent is 2*eps - 1 > -1, absorbed into a
    Gauss-Jacobi weight; the remaining factor is analytic on the half
    interval, and the two halves agree by symmetry.  Also reports
    gamma_emp = sup_p (norm_p / p!)^(1/p).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    p_max = operator.index(p_max)
    if not 1 <= p_max <= 20:
        raise ValueError(f"p_max must lie in 1..20, got {p_max}")
    rec = DerivativeRecurrence.build(s, p_max)
    c = solution_constant(s)
    norms = np.empty(p_max)
    for p in range(1, p_max + 1):
        q = rec.polynomials[p]
        t, w = _weighted_rule(p + 16, 0.0, 2.0 * epsilon - 1.0)
        g = (1.0 + t) ** (2.0 * (s - p)) * q(t) ** 2
        norms[p - 1] = math.sqrt(2.0 * c * c * float(w @ g))
    gammas = [(norms[p - 1] / math.factorial(p)) ** (1.0 / p)
              for p in range(1, p_max + 1)]
    return DerivativeNormSequence(norms=norms, gamma_emp=max(gammas))


def _boundary_error_sq(u, du, dofmap, coeffs, e, beta_p):
    """Weighted error on a boundary element via the substitution r = t^2.

    In the t variable both weighted terms carry the common Jacobi exponent
    4*beta_p - 1 after factoring one power of t out of the error (value
    term) or into the derivative (derivative term); for s = 1/2 the residual
    factors are analytic.
    """
    h = dofmap.h[e]
    left = e == 0
    endpoint = dofmap.mesh.a if left else dofmap.mesh.b
    sign = 1.0 if left else -1.0

    def phys(t):
        return endpoint + sign * t * t

    def value_integrand(t):
        x = phys(t)
        err = u(x) - _element_eval(dofmap, coeffs, e, x)
        return (err / t) ** 2

    def deriv_integrand(t):
        x = phys(t)
        err = du(x) - _element_eval(dofmap, coeffs, e, x, derivative=True)
        return (t * err) ** 2

    expo = 4.0 * beta_p - 1.0
    total = _stabilized_integral(value_integrand, math.sqrt(h), expo)
    total += _stabilized_integral(deriv_integrand, math.sqrt(h), expo)
    return 2.0 * total


def interpolant_weighted_error(s, sigma, L, eps_prime=0.05):
    """Error of the hp interpolant in the weighted H^1 norm with
    beta' = 1 - s - eps_prime, for the benchmark solution on (-1, 1)."""
    beta_p = 1.0 - s - eps_prime
    if not 0.0 < beta_p < 1.0:
        raise ValueError(f"beta' = 1 - s - eps_prime = {beta_p} out of (0, 1)")
    mesh = build_geometric_mesh((-1.0, 1.0), sigma, L)
    u = exact_solution(s)
    c = solution_constant(s)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * s * c * x * (1.0 - x * x) ** (s - 1.0)

    dofmap = build_dof_map(mesh, DegreeRule.reduced(L))
    coeffs = build_hp_interpolant(u, dofmap)
    total = 0.0
    for e in range(mesh.n_elements):
        if e == 0 or e == mesh.n_elements - 1:
            total += _boundary_error_sq(u, du, dofmap, coeffs, e, beta_p)
            continue
        h = dofmap.h[e]
        t, w = _rule01(int(dofmap.degrees[e]) + 24)
        x = dofmap.lo[e] + h * t
        r = 1.0 - np.abs(x)
        ev = u(x) - _element_eval(dofmap, coeffs, e, x)
        ed = du(x) - _element_eval(dofmap, coeffs, e, x, derivative=True)
        total += h * float(w @ (r ** (2.0 * beta_p) * ed ** 2
                                + r ** (2.0 * beta_p - 2.0) * ev ** 2))
    return math.sqrt(total)


def interpolation_error_study(s, sigma, L_max, eps_prime=0.05):
    """Interpolation-error sweep L = p = 1..L_max; rows match the
    interp-study CSV schema (p, L, sigma, s, weighted_error).

    A DivergentIntegralError is raised again naming the failing (s, L).
    """
    rows = []
    for L in range(1, operator.index(L_max) + 1):
        try:
            err = interpolant_weighted_error(s, sigma, L, eps_prime)
        except DivergentIntegralError as exc:
            raise DivergentIntegralError(
                f"interpolation error failed at s={s}, L={L}: {exc}") from exc
        rows.append((L, L, float(sigma), float(s), err))
    return rows
