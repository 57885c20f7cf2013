from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from frachp import (DegreeRule, GalerkinSystem, NotSPDError, assemble,
                    assemble_load, build_dof_map, build_geometric_mesh,
                    cholesky_solve, eval_fem_function, exact_energy,
                    solve_problem)


def make_system(A, b):
    return GalerkinSystem(stiffness=np.asarray(A, float),
                          load=np.asarray(b, float), s=0.5)


def test_scalar_system():
    sol = cholesky_solve(make_system([[2.0]], [1.0]))
    np.testing.assert_allclose(sol.coeffs, [0.5], rtol=1e-15)
    assert sol.energy == pytest.approx(0.5)


def test_identity_system():
    sol = cholesky_solve(make_system(np.eye(3), [1.0, 2.0, 3.0]))
    np.testing.assert_allclose(sol.coeffs, [1, 2, 3], rtol=1e-15)
    assert sol.residual_norm <= 1e-10 * np.linalg.norm([1, 2, 3])


def test_not_spd_reported():
    with pytest.raises(NotSPDError):
        cholesky_solve(make_system([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0]))


def test_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        cholesky_solve(make_system(np.eye(3), [1.0, 2.0]))


def test_n1_fractional_system_regression():
    # L=0, p=1, f=1, s=1/2: c1 = b1/A11 with b1 = 1; the coarse-mesh value
    # of u_N(0) was frozen from the first verified run (13.31% above
    # u(0)=1, inside the 14% bound below)
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    system = replace(assemble(dm, 0.5),
                     load=assemble_load(lambda x: np.ones_like(x), dm))
    sol = cholesky_solve(system)
    assert system.load[0] == pytest.approx(1.0, rel=1e-14)
    assert sol.coeffs[0] == pytest.approx(1.0 / system.stiffness[0, 0],
                                          rel=1e-14)
    u0 = eval_fem_function(dm, sol.coeffs, 0.0)
    assert u0 == pytest.approx(1.1330900358348743, rel=1e-10)
    assert abs(u0 - 1.0) <= 0.14


def test_energy_identity():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    system = replace(assemble(dm, 0.3),
                     load=assemble_load(lambda x: np.ones_like(x), dm))
    sol = cholesky_solve(system)
    assert sol.energy == pytest.approx(sol.coeffs @ system.load, rel=1e-10)
    assert sol.energy > 0
    assert sol.residual_norm <= 1e-10 * np.linalg.norm(system.load)


def test_discrete_energy_monotone_in_degree():
    # Gauss-Lobatto spaces of increasing degree are nested as piecewise
    # polynomials, so the Galerkin energy cannot decrease
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    energies = []
    for p in range(1, 6):
        dm = build_dof_map(mesh, DegreeRule.uniform(p))
        system = replace(assemble(dm, 0.5),
                         load=assemble_load(lambda x: np.ones_like(x), dm))
        energies.append(cholesky_solve(system).energy)
    diffs = np.diff(energies)
    assert np.all(diffs >= -1e-12)


@pytest.mark.parametrize("s, L", [(0.02, 14), (0.5, 14), (0.86, 14),
                                  (0.98, 14), (0.5, 24)])
def test_one_shot_solve_residual_and_energy(s, L):
    # reference energy b^T c, with c refined against residuals taken in
    # long double on the same A and b
    _, dm, system, sol = solve_problem(s, 0.6, L, DegreeRule.uniform(L))
    A, b = system.stiffness, system.load
    assert np.linalg.norm(b - A @ sol.coeffs) <= 1e-10 * np.linalg.norm(b)
    factor = linalg.cho_factor(A, lower=True)
    A_ld, b_ld = A.astype(np.longdouble), b.astype(np.longdouble)
    c = sol.coeffs.astype(np.longdouble)
    for _ in range(4):
        c += linalg.cho_solve(factor, (b_ld - A_ld @ c).astype(float))
    e_ld = float(b_ld @ c)
    eps = np.finfo(float).eps
    assert abs(sol.energy - e_ld) <= 2.0 * dm.n_dofs * eps * exact_energy(s)
