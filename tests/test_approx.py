import math

import numpy as np
import pytest
from scipy import integrate

from frachp import (DegreeRule, DivergentIntegralError,
                    build_dof_map, build_geometric_mesh,
                    build_hp_interpolant, eval_fem_function,
                    exact_solution, gauss_lobatto_interpolant, endpoint_interpolation_check,
                    weighted_derivative_norms)
from frachp import approx
from frachp.approx import (DerivativeRecurrence, _stabilized_integral,
                           interpolant_weighted_error)
from frachp.basis import _element_eval, gauss_lobatto_nodes
from frachp.postproc import solution_constant
from frachp.quadrature import _jacobi01, _rule01

ONES = lambda x: np.ones_like(np.asarray(x, dtype=float))
ZEROS = lambda x: np.zeros_like(np.asarray(x, dtype=float))


def test_weighted_norm_spec_validation():
    # beta' outside [0, 1) and a nonpositive epsilon are refused
    for bp, eps, msg in ((1.0, 0.05, "beta_prime must lie in"),
                         (-0.1, 0.05, "beta_prime must lie in"),
                         (0.3, 0.0, "epsilon must be positive")):
        with pytest.raises(ValueError, match=msg):
            endpoint_interpolation_check(ZEROS, ZEROS, ZEROS, bp, eps)


def test_weighted_h1_norm_zero_function():
    r = endpoint_interpolation_check(ZEROS, ZEROS, ZEROS, 0.3, 0.05)
    assert r.lhs == r.rhs == r.ratio == 0.0


def test_weighted_h1_norm_divergence_detected():
    # v'' = x^-1.5 at beta' = 0: the weighted second-derivative norm
    # integrates x^2 * x^-3 = 1/x near 0, which diverges
    with pytest.raises(DivergentIntegralError):
        endpoint_interpolation_check(ZEROS, ZEROS, lambda x: x ** -1.5,
                                     0.0, 0.05)


def test_weighted_h1_norm_against_adaptive_oracle():
    v = lambda x: x * (1 - x)
    dv = lambda x: 1 - 2 * np.asarray(x, float)
    d2v = lambda x: -2.0 * np.ones_like(np.asarray(x, float))
    eps = 0.05
    for bp in (0.0, 0.3, 0.5, 0.7):
        got = endpoint_interpolation_check(v, dv, d2v, bp, eps)
        # v vanishes at 0 and 1, so its endpoint interpolant is 0
        t1 = integrate.quad(lambda x: x ** (2 * bp - 2) * v(x) ** 2, 0, 1,
                            epsabs=1e-14, limit=200)[0]
        t2 = integrate.quad(lambda x: x ** (2 * bp) * dv(x) ** 2, 0, 1,
                            epsabs=1e-14, limit=200)[0]
        m = min(bp + 1.0, 1.5 - eps)
        t3 = integrate.quad(lambda x: x ** (2 * m) * d2v(x) ** 2, 0, 1,
                            epsabs=1e-14, limit=200)[0]
        assert got.lhs == pytest.approx(math.sqrt(t1) + math.sqrt(t2),
                                        rel=1e-8)
        assert got.rhs == pytest.approx(math.sqrt(t3), rel=1e-8)


def test_linear_endpoint_interpolant():
    # degree 1 on (0, 1) interpolates at the endpoints: c0 + c1 x
    xs = np.linspace(0, 1, 5)
    for v, (c0, c1) in ((lambda x: 3.0 * x - 1.0, (-1.0, 3.0)),
                        (lambda x: x ** 2, (0.0, 1.0)),
                        (lambda x: x ** 0.7, (0.0, 1.0))):
        p = gauss_lobatto_interpolant(v, (0.0, 1.0), 1)
        np.testing.assert_allclose(p(xs), c0 + c1 * xs, atol=1e-15)


def test_linear_interpolant_half_one():
    # the linear interpolant at 1/2 and 1, evaluated on all of [0, 1]
    xs = np.linspace(0, 1, 5)
    for v, want in ((lambda x: 2.0 - x, 2.0 - xs),
                    (lambda x: x ** 2, -0.5 + 1.5 * xs),
                    (lambda x: (1 - x) ** 2, 0.5 - 0.5 * xs)):
        p = gauss_lobatto_interpolant(v, (0.5, 1.0), 1)
        np.testing.assert_allclose(p(xs), want, rtol=0, atol=1e-14)


def test_interpolation_bound_linear_input_gives_zero_lhs():
    r = endpoint_interpolation_check(lambda x: 2.0 * np.asarray(x, float) - 0.5,
                     lambda x: 2.0 * np.ones_like(np.asarray(x, float)),
                     ZEROS, 0.3, 0.1)
    assert r.lhs == pytest.approx(0.0, abs=1e-13)
    assert r.ratio == 0.0


def test_interpolation_bound_quadratic_closed_form():
    # v = x^2, beta' = 0: lhs = sqrt(1/3) + sqrt(1/3), rhs = 2 sqrt(1/3)
    r = endpoint_interpolation_check(lambda x: np.asarray(x, float) ** 2,
                     lambda x: 2.0 * np.asarray(x, float),
                     lambda x: 2.0 * np.ones_like(np.asarray(x, float)),
                     0.0, 0.1)
    expect = 2.0 / math.sqrt(3.0)
    assert r.lhs == pytest.approx(expect, rel=1e-12)
    assert r.rhs == pytest.approx(expect, rel=1e-12)
    assert r.ratio == pytest.approx(1.0, rel=1e-11)


def test_interpolation_bound_regression_value():
    # frozen from the first verified run (cross-checked against the
    # closed-form monomial integrals to ~4e-12)
    r = endpoint_interpolation_check(lambda x: x ** 1.75, lambda x: 1.75 * x ** 0.75,
                     lambda x: 1.75 * 0.75 * x ** -0.25, 0.3, 0.1)
    assert math.isfinite(r.ratio)
    assert r.ratio == pytest.approx(0.8882639739946077, rel=1e-9)


def monomial_closed_form(tau, bp, eps):
    t1 = 1 / (2 * bp + 2 * tau + 1) - 2 / (2 * bp + tau + 1) + 1 / (2 * bp + 1)
    t2 = ((1 + tau) ** 2 / (2 * bp + 2 * tau + 1)
          - 2 * (1 + tau) / (2 * bp + tau + 1) + 1 / (2 * bp + 1))
    m = min(bp + 1, 1.5 - eps)
    rhs = tau * (1 + tau) / math.sqrt(2 * m + 2 * tau - 1)
    return math.sqrt(t1) + math.sqrt(t2), rhs


@pytest.mark.parametrize("tau,bp", [(0.75, 0.3), (0.5, 0.5), (0.9, 0.7),
                                    (0.3, 0.0)])
def test_interpolation_bound_matches_monomial_closed_forms(tau, bp):
    r = endpoint_interpolation_check(lambda x: x ** (1 + tau),
                     lambda x: (1 + tau) * x ** tau,
                     lambda x: tau * (1 + tau) * x ** (tau - 1), bp, 0.1)
    lhs_ref, rhs_ref = monomial_closed_form(tau, bp, 0.1)
    assert r.lhs == pytest.approx(lhs_ref, rel=1e-7)
    assert r.rhs == pytest.approx(rhs_ref, rel=1e-7)


def test_gauss_lobatto_interpolant_reproduces_polynomials():
    rng = np.random.default_rng(3)
    for p in range(1, 11):
        coef = rng.standard_normal(p + 1)
        poly = np.polynomial.Polynomial(coef)
        interp = gauss_lobatto_interpolant(poly, (0.2, 1.7), p)
        xs = np.linspace(0.2, 1.7, 33)
        np.testing.assert_allclose(interp(xs), poly(xs), rtol=0,
                                   atol=1e-12 * np.max(np.abs(poly(xs))))


def test_gauss_lobatto_interpolant_endpoint_match():
    v = lambda x: math.sin(3.0 * x)
    interp = gauss_lobatto_interpolant(v, (-0.3, 0.9), 4)
    assert interp(-0.3) == pytest.approx(v(-0.3), abs=1e-15)
    assert interp(0.9) == pytest.approx(v(0.9), abs=1e-15)


def test_gauss_lobatto_interpolant_converges_for_smooth_function():
    v = lambda x: abs(x - 5.0)  # no kink on the element
    errs = []
    for p in (2, 4, 6):
        interp = gauss_lobatto_interpolant(v, (0.0, 1.0), p)
        xs = np.linspace(0, 1, 101)
        errs.append(np.max(np.abs(interp(xs) - np.abs(xs - 5.0))))
    assert errs[0] < 1e-12  # linear function: exact at every degree
    assert errs[2] <= errs[0] + 1e-12


def test_hp_interpolant_matches_at_vertices():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    u = exact_solution(0.5)
    dm = build_dof_map(mesh, DegreeRule.reduced(3))
    coeffs = build_hp_interpolant(u, dm)
    for v in mesh.nodes[1:-1]:
        assert eval_fem_function(dm, coeffs, float(v)) == pytest.approx(
            float(u(float(v))), rel=1e-13)


def test_hp_interpolant_zero_function():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    coeffs = build_hp_interpolant(lambda x: 0.0 * np.asarray(x, float),
                                  build_dof_map(mesh, DegreeRule.reduced(2)))
    np.testing.assert_array_equal(coeffs, np.zeros_like(coeffs))


def test_hp_interpolant_rejects_nonvanishing_trace():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    with pytest.raises(ValueError):
        build_hp_interpolant(lambda x: np.asarray(x, float) + 2.0,
                             build_dof_map(mesh, DegreeRule.reduced(2)))


def test_derivative_recurrence_structure():
    rec = DerivativeRecurrence.build(0.3, 6)
    np.testing.assert_allclose(rec.polynomials[0].coef, [1.0], atol=0)
    np.testing.assert_allclose(rec.polynomials[1].coef, [0.0, -0.6],
                               atol=1e-15)  # q1 = -2 s x
    for p in range(7):
        assert rec.polynomials[p].degree() == p


def test_derivative_recurrence_against_finite_differences():
    rec = DerivativeRecurrence.build(0.45, 4)
    f = lambda x: (1 - x * x) ** 0.45
    x0, h = 0.31, 1e-5
    d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h ** 2
    assert rec.derivative(2, x0) == pytest.approx(d2, rel=1e-5)
    h = 1e-3  # third difference needs a larger step to stay above roundoff
    d3 = (f(x0 + 2 * h) - 2 * f(x0 + h) + 2 * f(x0 - h) - f(x0 - 2 * h)) / (2 * h ** 3)
    assert rec.derivative(3, x0) == pytest.approx(d3, rel=1e-4)


def test_derivative_norms_first_norm_finite():
    res = weighted_derivative_norms(0.5, 1, 0.05)
    assert res.norms.shape == (1,)
    assert 0 < res.norms[0] < 10


def test_derivative_norms_ratio_test():
    # norm_{p+1} / (norm_p * (p+1)) stays below 1.0 for p = 5..15
    # (factorial growth with geometric factor; bound frozen from first run,
    # measured maxima 0.90..0.93)
    for s in (0.3, 0.5, 0.7):
        res = weighted_derivative_norms(s, 16, 0.05)
        n = res.norms
        ratios = [n[p] / (n[p - 1] * (p + 1)) for p in range(5, 16)]
        assert max(ratios) < 1.0


def test_derivative_norms_geometric_factor_bounded():
    for s in (0.3, 0.5, 0.7):
        res = weighted_derivative_norms(s, 15, 0.05)
        seq = [(res.norms[p - 1] / math.factorial(p)) ** (1.0 / p)
               for p in range(1, 16)]
        assert res.gamma_emp == pytest.approx(max(seq))
        assert max(seq) < 5.0


def test_derivative_norms_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        weighted_derivative_norms(0.5, 10, 0.0)
    with pytest.raises(ValueError):
        weighted_derivative_norms(0.5, 25, 0.05)


def test_interpolant_weighted_error_decays():
    errs = [interpolant_weighted_error(0.5, 0.6, L) for L in (2, 4, 6)]
    assert errs[0] > errs[1] > errs[2]


# References: the element-by-element evaluation and the one-rule-at-a-time
# doubling that the batched code of `approx` replaced, kept verbatim.

def reference_stabilized_integral(g, length, exponent):
    if exponent <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent {exponent} is not integrable")
    vals = []
    n, n_max, rtol = 32, 1024, 1e-9
    while True:
        t, w = _jacobi01(n, exponent, 0.0)
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


def reference_hp_interpolant(u, dofmap):
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


def reference_boundary_error_sq(u, du, dofmap, coeffs, e, beta_p):
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
    total = reference_stabilized_integral(value_integrand, math.sqrt(h), expo)
    total += reference_stabilized_integral(deriv_integrand, math.sqrt(h),
                                           expo)
    return 2.0 * total


def reference_weighted_error(s, sigma, L, eps_prime=0.05):
    beta_p = 1.0 - s - eps_prime
    mesh = build_geometric_mesh((-1.0, 1.0), sigma, L)
    u = exact_solution(s)
    c = solution_constant(s)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * s * c * x * (1.0 - x * x) ** (s - 1.0)

    dofmap = build_dof_map(mesh, DegreeRule.reduced(L))
    coeffs = reference_hp_interpolant(u, dofmap)
    total = 0.0
    for e in range(mesh.n_elements):
        if e == 0 or e == mesh.n_elements - 1:
            total += reference_boundary_error_sq(u, du, dofmap, coeffs, e,
                                                 beta_p)
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


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_batched_weighted_error_matches_element_loop(s):
    for L in (1, 2, 5, 10, 14):
        with np.errstate(divide="ignore"):
            want = reference_weighted_error(s, 0.6, L)
        if not math.isfinite(want):
            # at s = 0.9, L = 14 a boundary point rounds onto x = -1, where
            # du is infinite; the element loop returned inf
            with pytest.raises(DivergentIntegralError, match="not finite"):
                interpolant_weighted_error(s, 0.6, L)
            continue
        got = interpolant_weighted_error(s, 0.6, L)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), (s, L)


# (integrand, exponent, points at which the doubling settles: None for the
# Aitken step, "diverges" for a growing sequence)
DOUBLING_CASES = {
    "settles_at_64": (lambda x: x ** 2, 0.3, 64),
    "settles_at_1024": (lambda x: np.abs(x - 0.3) ** 2.5, 0.0, 1024),
    "aitken": (np.sqrt, 0.0, None),
    "diverges": (lambda x: 1.0 / x, 0.0, "diverges"),
}


class CallLog:
    """Records the calls of a function, then passes them on."""

    def __init__(self, fn):
        self.fn, self.args = fn, []

    def __call__(self, *args):
        self.args.append(args)
        return self.fn(*args)


@pytest.mark.parametrize("case", sorted(DOUBLING_CASES))
def test_stabilized_integral_bit_equal_to_doubling(case, monkeypatch):
    g, exponent, settles = DOUBLING_CASES[case]
    if settles == "diverges":
        for integral in (reference_stabilized_integral, _stabilized_integral):
            with pytest.raises(DivergentIntegralError,
                               match="did not stabilize"):
                integral(g, 1.0, exponent)
    else:
        want = reference_stabilized_integral(g, 0.7, exponent)
        assert _stabilized_integral(g, 0.7, exponent) == want
    spy, rules = CallLog(g), CallLog(_jacobi01)
    monkeypatch.setattr(approx, "_jacobi01", rules)
    try:
        _stabilized_integral(spy, 0.7, exponent)
    except DivergentIntegralError:
        pass
    assert all(np.ndim(x) == 1 for x, in spy.args)
    if settles == 64:
        assert len(spy.args) == 1
        assert max(n for n, _, _ in rules.args) == 64
    else:
        assert len(spy.args) == 2
        assert max(n for n, _, _ in rules.args) == 1024


def test_stabilized_integral_rejects_non_finite_values():
    # 1 / floor(2x) is infinite on (0, 1/2); numpy's divide-by-zero warning
    # stays inside, the non-finite value raises
    with pytest.raises(DivergentIntegralError, match="not finite"):
        _stabilized_integral(lambda x: 1.0 / np.floor(2.0 * x), 1.0, 0.0)


@pytest.mark.parametrize("kind", ["uniform", "reduced"])
def test_hp_interpolant_one_call_per_degree(kind):
    for L in (1, 3, 10):
        dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                           DegreeRule(kind, L))
        u = CallLog(exact_solution(0.3))
        coeffs = build_hp_interpolant(u, dm)
        assert len(u.args) == len(np.unique(dm.degrees))
        assert all(np.ndim(x) == 1 for x, in u.args)
        # shared vertices take the value the element loop gave them
        np.testing.assert_array_equal(
            coeffs, reference_hp_interpolant(exact_solution(0.3), dm))
