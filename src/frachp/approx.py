"""Approximation-theory toolbox: weighted norms, interpolants, and the
empirical weighted-analytic-regularity check for the benchmark solution.

Weighted integrals with an endpoint singularity are computed by factoring
the known endpoint exponent into a Gauss-Jacobi weight; the point count is
doubled until the values stabilize, with one Aitken extrapolation step as a
fallback for slowly converging (merely Hoelder) residual factors.  Inputs
whose weighted integral diverges are detected when that stabilization
fails, or when a value is not finite.

The interpolation study evaluates one mirror half of the mesh, since the
benchmark solution, the geometric mesh and the reduced degrees are mirror
images.  It reads the reduced-rule interpolant off the mesh nodes: the
values of u at the Gauss-Lobatto nodes of the interior elements, and the
slope of the linear interpolant of the boundary element, in closed form.
Evaluation is batched: the integrand of a weighted integral is called once,
on one 1-D array holding the nodes of all six rules 32..1024, the
interpolated function once per degree, and the interior elements share one
evaluation of the solution, its derivative and the shape tables.  Every
function passed in is therefore called on 1-D arrays and must act element
by element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .basis import _element_values, _lobatto_nodes01
from .geomesh import build_geometric_mesh
from .postproc import exact_solution, solution_constant
from .quadrature import _jacobi01, _rule01

__all__ = [
    "DerivativeRecurrence", "DivergentIntegralError",
    "InterpolationBoundResult", "DerivativeNormSequence",
    "endpoint_interpolation_check", "build_hp_interpolant",
    "weighted_derivative_norms", "interpolant_weighted_error",
    "interpolation_error_study",
]

class DivergentIntegralError(RuntimeError):
    """Raised when a weighted integral fails to stabilize under refinement."""


# the point counts of the doubling
_SIZES = (32, 64, 128, 256, 512, 1024)


def _stabilized_integral(g, length, exponent):
    """int_0^length x^exponent g(x) dx.

    Gauss-Jacobi with the weight factored out; doubles the point count from
    32 up to 1024 until two successive values agree to 1e-9 relative.  g is
    called once, on a 1-D array holding the nodes of all six rules, and
    must act element by element; the doubling then reads its slices.  Slow
    but settling sequences get a single Aitken step; growing ones, and a
    non-finite value, raise DivergentIntegralError.
    """
    if exponent <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent {exponent} is not integrable")
    rules = [_jacobi01(n, exponent, 0.0) for n in _SIZES]
    # a point that rounds onto the singularity gives a non-finite value,
    # which is rejected below; numpy's warning about it would only repeat it
    with np.errstate(all="ignore"):
        gx = np.asarray(g(length * np.concatenate([t for t, _ in rules])),
                        dtype=float)
    scale = length ** (exponent + 1.0)
    rtol = 1e-9
    vals = []
    for n, (_, w), end in zip(_SIZES, rules, np.cumsum(_SIZES)):
        v = scale * float(w @ gx[end - n:end])
        if not math.isfinite(v):
            raise DivergentIntegralError(
                f"weighted integral did not stabilize (value {v} on "
                f"{n} points); the integrand is not finite there")
        vals.append(v)
        if len(vals) >= 2 and abs(v - vals[-2]) <= rtol * max(abs(v), 1e-300):
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
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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
    coeffs = np.zeros(dofmap.n_dofs + 1)  # coeffs[-1] takes constrained dofs
    for p in sorted(set(dofmap.degrees.tolist())):
        es = np.flatnonzero(dofmap.degrees == p)
        x = dofmap.lo[es, None] + dofmap.h[es, None] * _lobatto_nodes01(p)[0]
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
        coeffs[dofmap.table[es, :p]] = vals[:, :p]
    return coeffs[:-1]


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


def _boundary_error_sq(u, du, a, h, slope, beta_p):
    """Weighted error on the left boundary element (a, a + h) via the
    substitution x = a + t^2.

    The reduced-rule interpolant there is linear and vanishes at a, so it
    is slope (x - a), slope being u at the inner vertex over h.  In the t
    variable both weighted terms carry the common Jacobi exponent
    4*beta_p - 1 after factoring one power of t out of the error (value
    term) or into the derivative (derivative term); for s = 1/2 the
    residual factors are analytic.
    """
    def value_integrand(t):
        x = a + t * t
        return ((u(x) - slope * (x - a)) / t) ** 2

    def deriv_integrand(t):
        return (t * (du(a + t * t) - slope)) ** 2

    expo = 4.0 * beta_p - 1.0
    total = _stabilized_integral(value_integrand, math.sqrt(h), expo)
    total += _stabilized_integral(deriv_integrand, math.sqrt(h), expo)
    return 2.0 * total


def _interior_error_sq(u, du, lo, h, values, beta_p):
    """h w @ (r^(2 beta_p) e'^2 + r^(2 beta_p - 2) e^2) with r = 1 - |x| on
    the p + 24 Gauss points of each element (lo, lo + h), whose
    interpolant has the nodal values values[k] on the p + 1 Gauss-Lobatto
    nodes; one evaluation of u, du and each shape table serves the whole
    batch."""
    t, w = _rule01(values.shape[1] + 23)
    x = lo[:, None] + h[:, None] * t
    ev = u(x.ravel()).reshape(x.shape) - _element_values(values, h, t[None])
    ed = du(x.ravel()).reshape(x.shape) - _element_values(values, h, t[None],
                                                          True)
    r = 1.0 - np.abs(x)
    f = r ** (2.0 * beta_p) * ed ** 2 + r ** (2.0 * beta_p - 2.0) * ev ** 2
    return h * (f @ w)


def interpolant_weighted_error(s, sigma, L, eps_prime=0.05):
    """Error of the hp interpolant in the weighted H^1 norm with
    beta' = 1 - s - eps_prime, for the benchmark solution on (-1, 1).

    The solution, the geometric mesh and the reduced degrees are mirror
    images under x -> -x, so only the left half, elements 0..L, is
    evaluated and its squared error doubled: the boundary element by the
    substitution of _boundary_error_sq, the interior elements, all of
    degree L, in one batch.  The interpolant is read off the mesh nodes:
    u at the Gauss-Lobatto nodes of elements 1..L + 1 without their right
    vertex, whose value is the left-vertex value of the next element, as
    build_hp_interpolant assigns it.
    """
    beta_p = 1.0 - s - eps_prime
    if not 0.0 < beta_p < 1.0:
        raise ValueError(f"beta' = 1 - s - eps_prime = {beta_p} out of (0, 1)")
    nodes = build_geometric_mesh((-1.0, 1.0), sigma, L).nodes
    u = exact_solution(s)
    c = solution_constant(s)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * s * c * x * (1.0 - x * x) ** (s - 1.0)

    h = np.diff(nodes[:L + 3])  # elements 0..L + 1
    x = nodes[1:L + 2, None] + h[1:, None] * _lobatto_nodes01(L)[0][:-1]
    ux = u(x.ravel()).reshape(x.shape)
    values = np.concatenate((ux[:-1], ux[1:, :1]), axis=1)
    interior = _interior_error_sq(u, du, nodes[1:L + 1], h[1:-1], values,
                                  beta_p)
    return math.sqrt(2.0 * (interior.sum() + _boundary_error_sq(
        u, du, nodes[0], h[0], ux[0, 0] / h[0], beta_p)))


def interpolation_error_study(s, sigma, L_max, eps_prime=0.05):
    """Interpolation-error sweep L = p = 1..L_max; rows match the
    interp-study CSV schema (p, L, sigma, s, weighted_error).

    A DivergentIntegralError is raised again naming the failing (s, L).
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1, got {L_max}")
    rows = []
    for L in range(1, operator.index(L_max) + 1):
        try:
            err = interpolant_weighted_error(s, sigma, L, eps_prime)
        except DivergentIntegralError as exc:
            raise DivergentIntegralError(
                f"interpolation error failed at s={s}, L={L}: {exc}") from exc
        rows.append((L, L, float(sigma), float(s), err))
    return rows
