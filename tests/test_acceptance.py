"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 1 and 2 fit the geometric rate beta of e_L over L = 4..10 to the
shape of the README's reference decays and hold it to [0.20, 0.33], around
-ln(sigma)/2 = 0.255.  The reduced rule (degree 1 on the two boundary
elements) follows guide_reduced = 0.22 sigma^(L/2), a pure exponential.
The uniform rule also puts degree p = L on the boundary elements, which adds
an algebraic factor 1/L: it follows guide_uniform = 2 sigma^(L/2)/L, so
criterion 1 regresses ln(L e_L) on L.  A plain fit of ln e_L there picks up
the ln L term (~0.15 over L = 4..10; the guide's own plain slope is 0.406).
The paper gives neither beta nor the prefactor; the window and the 1/L
factor are the project's own.
"""

import math
import time

import numpy as np
import pytest

from frachp import (DegreeRule, assemble, build_dof_map, build_geometric_mesh,
                    convergence_study, energy_error, eval_fem_function,
                    exact_energy, exact_solution,
                    endpoint_interpolation_check, solve_problem, weighted_derivative_norms)
from frachp.approx import interpolant_weighted_error
from oracles import gauss_lobatto_interpolant, oracle_stiffness

S_VALUES = (0.3, 0.5, 0.7)
SIGMA = 0.6
L_MAX = 10


def report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def uniform_study():
    start = time.perf_counter()
    records = convergence_study(S_VALUES, SIGMA, L_MAX, "uniform")
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def reduced_study():
    records = convergence_study(S_VALUES, SIGMA, L_MAX, "reduced")
    return records, 0.0


def errors_by_s(records, s):
    errs = [(r.L, r.energy_error) for r in records if r.s == s]
    errs.sort()
    return np.array([e for _, e in errs])


def fitted_slope(errs, power=0):
    """Least-squares beta over L >= 4 for the decay e_L ~ C L^(-power) e^(-beta L)."""
    L = np.arange(1, len(errs) + 1)
    window = L >= 4
    return -np.polyfit(L[window], np.log(L[window] ** power * errs[window]), 1)[0]


def test_criterion_1_monotone_decay_and_runtime(uniform_study):
    records, elapsed = uniform_study
    ok = True
    for s in S_VALUES:
        errs = errors_by_s(records, s)
        ok &= bool(np.all(np.diff(errs) < 0))
    ok &= elapsed < 60.0
    assert report("1 (uniform p=L: monotone decay, runtime)", ok,
                  f"runtime {elapsed:.1f}s"), "criterion 1 decay/runtime"


def test_criterion_1_slope_window(uniform_study, reduced_study):
    def in_window(slope):
        return 0.20 <= slope <= 0.33

    records, _ = uniform_study
    slopes = {s: fitted_slope(errors_by_s(records, s), power=1) for s in S_VALUES}
    plain = {s: fitted_slope(errors_by_s(records, s)) for s in S_VALUES}
    ok = all(in_window(sl) for sl in slopes.values())
    detail = ", ".join(f"s={s}: {slopes[s]:.3f} (plain {plain[s]:.3f})"
                       for s in S_VALUES)
    assert report("1 (uniform p=L: sigma^(L/2)/L slope in [0.20, 0.33])", ok,
                  detail), (
        f"slopes of ln(L e_L) {detail} lie outside [0.20, 0.33]")

    # The same fit on the pure exponential of the reduced rule overcorrects
    # by the ln L term and must leave the window.
    records, _ = reduced_study
    wrong = [fitted_slope(errors_by_s(records, s), power=1) for s in S_VALUES]
    assert not any(in_window(sl) for sl in wrong), (
        "sigma^(L/2)/L fit of the reduced rule "
        f"{', '.join(f'{sl:.3f}' for sl in wrong)} falls inside "
        "[0.20, 0.33], so criterion 1 cannot tell the two decays apart")


def test_criterion_2_reduced_rule(reduced_study):
    records, _ = reduced_study
    ok = True
    details = []
    for s in S_VALUES:
        errs = errors_by_s(records, s)
        slope = fitted_slope(errs)
        ratio = errs[9] / errs[7]
        ok &= 0.20 <= slope <= 0.33
        ok &= errs[9] < 0.6 * errs[7]
        details.append(f"s={s}: slope {slope:.3f}, err(10)/err(8) {ratio:.4f}")
    assert report("2 (reduced rule: slope, geometric envelope)", ok,
                  "; ".join(details)), "criterion 2"


@pytest.mark.slow
def test_criterion_3_quadrature_oracle_equivalence():
    mesh = build_geometric_mesh((-1, 1), SIGMA, 1)
    worst = 0.0
    for p in (1, 2, 3):
        dm = build_dof_map(mesh, DegreeRule.uniform(p))
        for s in S_VALUES:
            A = assemble(dm, s).stiffness
            A_oracle = oracle_stiffness(mesh, dm, s)
            rel = np.max(np.abs(A - A_oracle) / np.abs(A_oracle))
            worst = max(worst, rel)
    ok = worst <= 1e-5
    assert report("3 (stiffness vs brute-force oracle)", ok,
                  f"worst relative deviation {worst:.2e}"), "criterion 3"


def test_criterion_4_structural_matrix_properties():
    ok = True
    worst_sym = 0.0
    for rule_kind in ("uniform", "reduced"):
        for s in S_VALUES:
            for L in range(1, L_MAX + 1):
                mesh = build_geometric_mesh((-1, 1), SIGMA, L)
                dm = build_dof_map(mesh, DegreeRule(rule_kind, L))
                A = assemble(dm, s).stiffness
                sym = np.max(np.abs(A - A.T)) / np.max(np.abs(A))
                worst_sym = max(worst_sym, sym)
                ok &= sym <= 1e-12
                try:
                    np.linalg.cholesky(A)
                except np.linalg.LinAlgError:
                    ok = False
    assert report("4 (symmetry <= 1e-12, SPD)", ok,
                  f"worst symmetry defect {worst_sym:.1e}"), "criterion 4"


def test_criterion_5_exact_solution_consistency():
    from scipy import integrate

    ok = abs(exact_energy(0.5) - math.pi / 2) <= 1e-10
    for s in (0.3, 0.7):
        val = integrate.quad(exact_solution(s), -1, 1, epsabs=1e-13,
                             epsrel=1e-13, limit=200)[0]
        ok &= abs(exact_energy(s) - val) <= 1e-10
    worst = 0.0
    for rule_kind in ("uniform", "reduced"):
        for s in S_VALUES:
            for L in range(1, L_MAX + 1):
                _, _, system, sol = solve_problem(s, SIGMA, L,
                                                  DegreeRule(rule_kind, L))
                e1 = energy_error(system, sol, s)
                e2 = math.sqrt(max(0.0, exact_energy(s)
                                   - sol.coeffs @ system.load))
                if e1 > 0:
                    worst = max(worst, abs(e1 - e2) / e1)
    ok &= worst <= 1e-9
    assert report("5 (exact energies, error-formula identity)", ok,
                  f"worst formula disagreement {worst:.2e}"), "criterion 5"


def test_criterion_6_pointwise_sanity():
    _, dm, system, sol = solve_problem(0.5, SIGMA, 8, DegreeRule.uniform(8))
    u0 = eval_fem_function(dm, sol.coeffs, 0.0)
    dev = abs(u0 - 1.0)
    ok = dev <= 1e-3
    assert report("6 (u_N(0) within 1e-3 of 1)", ok,
                  f"|u_N(0) - 1| = {dev:.2e}"), "criterion 6"


def test_criterion_7_interpolation_suite():
    # weighted interpolation-bound ratios over the monomial family:
    # bounded by 10x the median
    taus = [0.1 * k for k in range(1, 10)]
    ok = True
    for bp in (0.0, 0.3, 0.5, 0.7):
        ratios = []
        for tau in taus:
            r = endpoint_interpolation_check(lambda x, t=tau: x ** (1 + t),
                             lambda x, t=tau: (1 + t) * x ** t,
                             lambda x, t=tau: t * (1 + t) * x ** (t - 1),
                             bp, 0.05)
            ratios.append(r.ratio)
        ok &= max(ratios) <= 10.0 * float(np.median(ratios))
    report("7a (interpolation-bound ratios bounded)", ok)

    # Gauss-Lobatto interpolant reproduces P_p to 1e-12 for p <= 10
    rng = np.random.default_rng(11)
    ok_interp = True
    for p in range(1, 11):
        poly = np.polynomial.Polynomial(rng.standard_normal(p + 1))
        interp = gauss_lobatto_interpolant(poly, (-0.4, 1.3), p)
        xs = np.linspace(-0.4, 1.3, 57)
        scale = np.max(np.abs(poly(xs)))
        ok_interp &= bool(np.max(np.abs(interp(xs) - poly(xs))) <= 1e-12 * scale)
    report("7b (Gauss-Lobatto interpolant reproduces P_p)", ok_interp)

    # proof-interpolant error decays geometrically in L = p
    errs = np.array([interpolant_weighted_error(0.5, SIGMA, L)
                     for L in range(1, L_MAX + 1)])
    ratios = errs[4:] / errs[3:-1]  # successive ratios from L = 4 on
    ok_decay = bool(np.all(ratios <= 0.85))
    report("7c (hp interpolant geometric decay)", ok_decay,
           f"max ratio {ratios.max():.3f}")
    assert ok and ok_interp and ok_decay, "criterion 7"


def test_criterion_8_weighted_analytic_regularity():
    ok = True
    details = []
    for s in S_VALUES:
        res = weighted_derivative_norms(s, 15, 0.05)
        seq = np.array([(res.norms[p - 1] / math.factorial(p)) ** (1.0 / p)
                        for p in range(1, 16)])
        bound = 2.0 * seq[4]  # value at p = 5
        ok &= bool(np.all(seq[1:] <= bound))
        details.append(f"s={s}: max {seq[1:].max():.3f} vs bound {bound:.3f}")
    assert report("8 (factorial growth with bounded geometric factor)", ok,
                  "; ".join(details)), "criterion 8"
