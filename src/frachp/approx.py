"""Approximation-theory toolbox: weighted norms, interpolants, and the
empirical weighted-analytic-regularity check for the benchmark solution.

Weighted integrals with an endpoint singularity are computed by factoring
the known endpoint exponent into a Gauss-Jacobi weight; the point count is
doubled until the values stabilize, with one Aitken extrapolation step as a
fallback for slowly converging (merely Hoelder) residual factors.  Inputs
whose weighted integral diverges are detected when that stabilization
fails, or when a value is not finite.

Evaluation is batched: the integrand of a weighted integral is called on
the nodes of several rules at once, the interpolated function once per
degree, and the interior elements of one degree share one evaluation of
the solution, its derivative and the shape tables.  Every function passed
in is therefore called on 1-D arrays and must act element by element.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import Polynomial

from .basis import (DegreeRule, _element_eval, _lobatto_eval,
                    _shape_deriv_matrix, _shape_matrix, build_dof_map,
                    gauss_lobatto_nodes)
from .geomesh import build_geometric_mesh
from .postproc import exact_solution, solution_constant
from .quadrature import _jacobi01, _rule01

__all__ = [
    "DerivativeRecurrence", "DivergentIntegralError",
    "InterpolationBoundResult", "DerivativeNormSequence",
    "endpoint_interpolation_check",
    "gauss_lobatto_interpolant", "build_hp_interpolant",
    "weighted_derivative_norms", "interpolant_weighted_error",
    "interpolation_error_study",
]

class DivergentIntegralError(RuntimeError):
    """Raised when a weighted integral fails to stabilize under refinement."""


def _rule_values(g, length, exponent, sizes):
    """length^(exponent+1) w @ g(length t) on the weighted rule of each size,
    with one call of g on the nodes of all of them."""
    rules = [_jacobi01(n, exponent, 0.0) for n in sizes]
    # a point that rounds onto the singularity gives a non-finite value,
    # which the caller rejects; numpy's warning about it would only repeat it
    with np.errstate(all="ignore"):
        gx = np.asarray(g(length * np.concatenate([t for t, _ in rules])),
                        dtype=float)
    scale = length ** (exponent + 1.0)
    ends = itertools.accumulate(sizes)
    return [scale * float(w @ gx[k - len(w):k])
            for (_, w), k in zip(rules, ends)]


def _stabilized_integral(g, length, exponent):
    """int_0^length x^exponent g(x) dx.

    Gauss-Jacobi with the weight factored out; doubles the point count from
    32 up to 1024 until two successive values agree to 1e-9 relative.  g is
    called on 1-D arrays of points and must act element by element: once on
    the nodes of the 32- and 64-point rules, and only if those two values
    disagree once more on the nodes of the 128- to 1024-point rules.  Slow
    but settling sequences get a single Aitken step; growing ones, and a
    non-finite value, raise DivergentIntegralError.
    """
    if exponent <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent {exponent} is not integrable")
    rtol = 1e-9
    vals = []
    for sizes in ((32, 64), (128, 256, 512, 1024)):
        for n, v in zip(sizes, _rule_values(g, length, exponent, sizes)):
            if not math.isfinite(v):
                raise DivergentIntegralError(
                    f"weighted integral did not stabilize (value {v} on "
                    f"{n} points); the integrand is not finite there")
            vals.append(v)
            if len(vals) >= 2 and abs(v - vals[-2]) <= rtol * max(abs(v),
                                                                   1e-300):
                return v
    d1 = abs(vals[-2] - vals[-3])
    d2 = abs(vals[-1] - vals[-2])
    if d1 > 0.0 and d2 < 0.9 * d1:
        rho = d2 / d1
        return vals[-1] + (vals[-1] - vals[-2]) * rho / (1.0 - rho)
    raise DivergentIntegralError(
        f"weighted integral did not stabilize (last values {vals[-3:]}); "
        "the integrand appears non-integrable")


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
    # the linear interpolant of v at 0 and 1 is v0 + x * slope
    v0 = float(v(0.0))
    slope = float(v(1.0)) - v0

    def err_over_x(x):
        return (np.asarray(v(x), dtype=float) - (v0 + x * slope)) / x

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

    u is called once per degree, on a 1-D array holding the nodes of all
    elements of that degree (the first call also holds the endpoints and
    the midpoint of the domain, for the trace check), and must act element
    by element.  A vertex shared by two elements takes its value from the
    element on its right, so global continuity holds.
    """
    mesh = dofmap.mesh
    probe = [mesh.a, 0.5 * (mesh.a + mesh.b), mesh.b]
    coeffs = np.zeros(dofmap.n_dofs)
    for p in sorted(set(dofmap.degrees.tolist())):
        es = np.flatnonzero(dofmap.degrees == p)
        x = dofmap.lo[es, None] + 0.5 * dofmap.h[es, None] * (
            gauss_lobatto_nodes(p) + 1.0)
        vals = np.asarray(u(np.concatenate((probe, x.ravel()))), dtype=float)
        if probe:
            ua, um, ub = vals[:3].tolist()
            tol = 1e-10 * max(1.0, abs(um))
            if abs(ua) > tol or abs(ub) > tol:
                raise ValueError("interpolated function must vanish at the "
                                 "domain endpoints")
        vals = vals[len(probe):].reshape(x.shape)
        probe = []
        # the right vertex of each element is read from its right neighbour
        # (the last one is constrained), so every dof is written once
        g = dofmap.table[es, :p]
        coeffs[g[g >= 0]] = vals[:, :p][g >= 0]
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
        t, w = _jacobi01(p + 16, 0.0, 2.0 * epsilon - 1.0)
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


def _interior_error_sq(u, du, dofmap, coeffs, es, beta_p):
    """h w @ (r^(2 beta_p) e'^2 + r^(2 beta_p - 2) e^2) with r = 1 - |x| on
    the p + 24 Gauss points of each of the interior elements es, which
    share the degree p; one evaluation of u, du and each shape table serves
    the whole batch."""
    p = int(dofmap.degrees[es[0]])
    t, w = _rule01(p + 24)
    lo, hi, h = dofmap.lo[es, None], dofmap.hi[es, None], dofmap.h[es, None]
    x = lo + h * t
    ref = (2.0 * (x - lo) / (hi - lo) - 1.0).ravel()
    g = dofmap.dofs(es)
    values = np.where(g >= 0, coeffs[g], 0.0)[:, None, :]

    def fem(table):
        # (elements, 1, p+1) @ (elements, p+1, points) per element
        return (values @ table.reshape(p + 1, *x.shape).swapaxes(0, 1))[:, 0]

    ev = u(x.ravel()).reshape(x.shape) - fem(_shape_matrix(p, ref))
    ed = du(x.ravel()).reshape(x.shape) - fem(
        _shape_deriv_matrix(p, ref)) * (2.0 / (hi - lo))
    r = 1.0 - np.abs(x)
    f = r ** (2.0 * beta_p) * ed ** 2 + r ** (2.0 * beta_p - 2.0) * ev ** 2
    return dofmap.h[es] * (f @ w)


def interpolant_weighted_error(s, sigma, L, eps_prime=0.05):
    """Error of the hp interpolant in the weighted H^1 norm with
    beta' = 1 - s - eps_prime, for the benchmark solution on (-1, 1).

    The interior elements are batched per degree; the two boundary elements
    take the substitution of _boundary_error_sq.  The element terms are
    summed left to right.
    """
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
    last = mesh.n_elements - 1
    terms = np.empty(mesh.n_elements)
    for e in (0, last):
        terms[e] = _boundary_error_sq(u, du, dofmap, coeffs, e, beta_p)
    inner = dofmap.degrees[1:last]
    for p in sorted(set(inner.tolist())):
        es = 1 + np.flatnonzero(inner == p)
        terms[es] = _interior_error_sq(u, du, dofmap, coeffs, es, beta_p)
    total = 0.0
    for term in terms.tolist():
        total += term
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
