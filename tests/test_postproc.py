import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import frachp.postproc
from frachp import (DegreeRule, build_hp_interpolant, convergence_study,
                    energy_error, exact_energy, exact_solution,
                    solve_problem)
from frachp.linsolve import Solution, cholesky_solve
from frachp.postproc import EnergyGapError, solve_record
from oracles import reflection_permutation

# closed-form energies, frozen after verification against the adaptive
# integral of the closed-form solution (agreement ~1e-15)
ENERGY_03 = 1.9114569876693936
ENERGY_07 = 1.1767430042173797


def test_exact_solution_values():
    u = exact_solution(0.5)
    assert u(0.0) == pytest.approx(1.0, rel=1e-14)
    assert u(0.6) == pytest.approx(0.8, rel=1e-14)  # c_1/2 = 1
    assert u(1.0) == 0.0 and u(-1.0) == 0.0
    for s in (0.17, 0.5, 0.83):
        us = exact_solution(s)
        assert us(1.0) == 0.0 and us(-1.0) == 0.0
    with pytest.raises(ValueError):
        u(1.5)


def test_exact_energy_closed_forms():
    assert exact_energy(0.5) == pytest.approx(math.pi / 2, abs=1e-10)
    assert exact_energy(0.3) == pytest.approx(ENERGY_03, rel=1e-14)
    assert exact_energy(0.7) == pytest.approx(ENERGY_07, rel=1e-14)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_exact_energy_matches_integral_oracle(s):
    val, err = integrate.quad(exact_solution(s), -1, 1, epsabs=1e-13,
                              epsrel=1e-13, limit=200)
    assert exact_energy(s) == pytest.approx(val, abs=1e-10)


def test_energy_error_zero_coefficients():
    mesh, dm, system, sol = solve_problem(0.5, 0.6, 1, DegreeRule.uniform(1))
    zero = Solution(coeffs=np.zeros(dm.n_dofs), residual_norm=0.0, energy=0.0)
    assert energy_error(system, zero, 0.5) == pytest.approx(
        math.sqrt(exact_energy(0.5)), rel=1e-14)


def test_energy_gap_beyond_roundoff_raises():
    _, _, system, sol = solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))
    exact = exact_energy(0.5)
    over = replace(sol, energy=exact + 1e-8)
    with pytest.raises(EnergyGapError, match="by 1.000e-08"):
        energy_error(system, over, 0.5)
    # a negative gap within N eps a(u,u) is roundoff and reads as zero error
    eps = np.finfo(float).eps
    assert energy_error(system, replace(sol, energy=exact * (1 + eps)),
                        0.5) == 0.0


def test_energy_error_rejects_another_s():
    _, _, system, sol = solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))
    with pytest.raises(ValueError, match=r"s = 0\.3 .* s = 0\.5"):
        energy_error(system, sol, 0.3)
    # the same s in another numeric type is the same problem
    assert energy_error(system, sol, np.float64(0.5)) == energy_error(
        system, sol, 0.5)


def cea_violations(kind, s):
    """The L in (1, 2, 4, 6, 8, 10) where the energy error of the solve
    exceeds that of the hp interpolant I u beyond roundoff.  For f = 1,
    a(u, v) = int v = b^T c_v, so ||u - I u||_a^2 = a(u,u) - 2 b^T c_I +
    c_I^T A c_I from A and b alone."""
    eps = np.finfo(float).eps
    exact = exact_energy(s)
    bad = []
    for L in (1, 2, 4, 6, 8, 10):
        _, dm, system, sol = solve_problem(s, 0.6, L, DegreeRule(kind, L))
        c = build_hp_interpolant(exact_solution(s), dm)
        interp_sq = exact - 2.0 * system.load @ c + c @ system.stiffness @ c
        if energy_error(system, sol, s) ** 2 > (interp_sq
                                                + system.n * eps * exact):
            bad.append(L)
    return bad


@pytest.mark.parametrize("kind", ["uniform", "reduced"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_galerkin_beats_hp_interpolant(kind, s):
    # Cea: u_N minimises the energy error over V_N, which holds I u.  The
    # error ratio reads 0.939..0.995 here, and the squared gap is at least
    # 1.8e7 N eps a(u,u), so the slack covers roundoff only.  The gap is
    # ||c_I - A^-1 b||_A^2 for any SPD A: this checks the solve, not the
    # entries of A.
    assert cea_violations(kind, s) == []


def test_cea_check_sees_a_solve_off_the_galerkin_solution(monkeypatch):
    # negative control: a solve that returns 1.1 c_N, with its energy
    # 2 b^T c - c^T A c, is worse than the interpolant at every L
    def off_solve(system):
        sol = cholesky_solve(system)
        c = 1.1 * sol.coeffs
        return replace(sol, coeffs=c, energy=float(
            2.0 * c @ system.load - c @ system.stiffness @ c))

    monkeypatch.setattr(frachp.postproc, "cholesky_solve", off_solve)
    assert cea_violations("uniform", 0.5) == [1, 2, 4, 6, 8, 10]


def test_solve_record_names_energy_gap_failure(monkeypatch):
    # an exact energy below the discrete one (~1.55) makes the gap negative
    monkeypatch.setattr(frachp.postproc, "exact_energy", lambda s: 1.0)
    with pytest.raises(RuntimeError, match=r"s=0\.5, L=2") as info:
        solve_record(0.5, 0.6, 2, "uniform")
    assert isinstance(info.value.__cause__, EnergyGapError)


def test_energy_error_formulas_agree():
    for s, L in ((0.5, 3), (0.3, 4)):
        _, _, system, sol = solve_problem(s, 0.6, L, DegreeRule.uniform(L))
        e1 = energy_error(system, sol, s)
        e2 = math.sqrt(max(0.0, exact_energy(s) - sol.coeffs @ system.load))
        assert e2 == pytest.approx(e1, rel=1e-9)


def test_error_decreases_with_refinement():
    errs = []
    for L in range(1, 6):
        _, _, system, sol = solve_problem(0.5, 0.6, L, DegreeRule.uniform(L))
        errs.append(energy_error(system, sol, 0.5))
    assert np.all(np.diff(errs) < 0)


def test_error_not_increased_by_extra_degree():
    # fixed mesh, uniform p = L..L+2
    L = 3
    errors = []
    for p in (L, L + 1, L + 2):
        _, _, system, sol = solve_problem(0.5, 0.6, L, DegreeRule.uniform(p))
        errors.append(energy_error(system, sol, 0.5))
    assert errors[1] <= errors[0] + 1e-12
    assert errors[2] <= errors[1] + 1e-12


def relative_gaps(s, levels):
    """(a(u,u) - a(u_N,u_N)) / a(u,u) at sigma = 0.6, uniform p = L, taken
    directly rather than through energy_error, whose N eps a(u,u) margin
    lies below the rounding of the energy near s = 1."""
    exact = exact_energy(s)
    return np.array([
        (exact - solve_problem(s, 0.6, L, DegreeRule.uniform(L))[3].energy)
        / exact for L in levels])


def test_energy_gap_at_s_near_one_below_kernel_constant_floor():
    # u tends to (1 - x^2)/2, which p = 2 holds: the gap reads 3.0e-13 of
    # a(u,u) at L = 2; with C(s) through sin(pi s), 6.2e-12 off at this s,
    # it read 6.5e-12
    gap, = relative_gaps(1 - 1e-6, [2])
    assert abs(gap) <= 1e-12


@pytest.mark.xfail(strict=True, raises=EnergyGapError,
                   reason="the N eps a(u,u) margin of energy_error lies below "
                          "the rounding of the discrete energy near s = 1: "
                          "the signed gap reads -2.17 N eps a(u,u) at N = 39")
def test_energy_error_at_s_near_one():
    s = 1 - 1e-6
    _, _, system, sol = solve_problem(s, 0.6, 4, DegreeRule.uniform(4))
    assert energy_error(system, sol, s) >= 0


def test_energy_gap_falls_at_s_near_one():
    # from 3.0e-9 at L = 2 to 6.9e-13 at L = 10
    gaps = relative_gaps(1 - 1e-4, range(2, 11))
    assert np.all(gaps > 0) and np.all(np.diff(gaps) < 0), gaps
    assert gaps[-1] <= 1e-12


def test_energy_gap_falls_at_s_near_zero():
    # u tends to the indicator of (-1, 1), which no continuous space holds:
    # from 0.167 at L = 1 to 2.1e-4 at L = 8
    gaps = relative_gaps(1e-6, range(1, 9))
    assert np.all(gaps > 0) and np.all(np.diff(gaps) < 0), gaps
    assert gaps[-1] <= 3e-4


def test_solved_system_load_is_read_only():
    # a GalerkinSystem is immutable once built; the study shares its load
    _, _, system, _ = solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))
    assert not system.load.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        system.load[0] = 0.0


def test_solution_reflection_symmetric_for_even_data():
    _, dm, _, sol = solve_problem(0.3, 0.6, 3, DegreeRule.uniform(3))
    perm = reflection_permutation(dm)
    np.testing.assert_allclose(sol.coeffs, sol.coeffs[perm], atol=1e-10)


def test_study_record_layout():
    recs = convergence_study([0.5, 0.3], 0.6, 2, "uniform")
    assert [(r.s, r.L) for r in recs] == [(0.5, 1), (0.5, 2), (0.3, 1), (0.3, 2)]
    for r in recs:
        assert r.N == (2 * r.L + 1) + (2 * r.L + 2) * (r.L - 1)
        assert r.energy_error >= 0
        assert r.wall_seconds >= 0


@pytest.mark.parametrize("kind", ["uniform", "reduced"])
def test_study_records_equal_single_solves(kind):
    # the study shares each L's mesh, dof map, load and assembly plan
    # across s; every record still equals the one-off solve to the last bit
    recs = convergence_study([0.3, 0.5, 0.7], 0.6, 6, kind)
    assert [(r.s, r.L) for r in recs] == [
        (s, L) for s in (0.3, 0.5, 0.7) for L in range(1, 7)]
    for r in recs:
        alone = solve_record(r.s, 0.6, r.L, kind)[0]
        assert replace(r, wall_seconds=0.0) == replace(alone, wall_seconds=0.0)


def test_study_builds_each_mesh_once(monkeypatch):
    real = frachp.postproc.build_dof_map
    built = []

    def counted(mesh, rule):
        built.append(rule.p)
        return real(mesh, rule)

    monkeypatch.setattr(frachp.postproc, "build_dof_map", counted)
    assert len(convergence_study([0.3, 0.5, 0.7], 0.6, 4, "uniform")) == 12
    assert built == [1, 2, 3, 4]


def test_study_names_the_lowest_failing_level(monkeypatch):
    # s = 0.7 fails from L = 2 (N = 11) and s = 0.3 from L = 3 (N = 23):
    # the study runs the levels in order, each for every s, so it stops at
    # (0.7, 2)
    real = frachp.postproc.energy_error

    def failing(system, sol, s):
        if system.n >= {0.3: 23, 0.7: 11}.get(s, system.n + 1):
            raise EnergyGapError("planted")
        return real(system, sol, s)

    monkeypatch.setattr(frachp.postproc, "energy_error", failing)
    with pytest.raises(RuntimeError, match=r"s=0\.7, L=2: planted"):
        convergence_study([0.3, 0.5, 0.7], 0.6, 4, "uniform")


def test_study_single_level():
    recs = convergence_study([0.5], 0.6, 1, "reduced")
    assert len(recs) == 1
    assert recs[0].N == 3  # 3 interior vertices, no internals at p=1


def test_study_rejects_bad_arguments():
    with pytest.raises(ValueError):
        convergence_study([0.5], 0.6, 2, "cubic")
    with pytest.raises(ValueError):
        convergence_study([0.5], 0.6, 0, "uniform")
    with pytest.raises(ValueError):
        convergence_study([1.5], 0.6, 2, "uniform")


def test_study_holds_one_stiffness_matrix_at_a_time():
    # the peak reads 1.96 8N^2 (N = 311 at L = 12); a system kept alive
    # while the next one is built read 2.97 8N^2
    args = ([0.3, 0.5, 0.7], 0.6, 12, "uniform")
    convergence_study(*args)  # warm the quadrature-rule caches
    tracemalloc.start()
    try:
        recs = convergence_study(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recs[-1].N == 311
    assert peak <= 2.4 * 8 * 311 ** 2, peak / (8 * 311 ** 2)
