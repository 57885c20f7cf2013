import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import frachp.postproc
from frachp import (DegreeRule, convergence_study, energy_error, exact_energy,
                    exact_solution, records_to_csv, solve_problem)
from frachp.linsolve import Solution
from frachp.postproc import CSV_HEADER, EnergyGapError, solve_record
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


def test_csv_layout():
    recs = convergence_study([0.5], 0.6, 1, "uniform")
    csv = records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "0.5" and fields[2] == "1" and fields[3] == "uniform"
    # 17 significant digits on the error column
    assert float(fields[5]) == recs[0].energy_error
    assert len(fields[5].replace(".", "").replace("-", "").lstrip("0")) >= 16
