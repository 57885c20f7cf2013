import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

import frachp.linsolve as linsolve_mod
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
    # the failing pivot lies in the second 64-column block
    A = np.eye(150)
    A[100, 100] = -1.0
    with pytest.raises(NotSPDError, match=r"rows 64\.\.127"):
        cholesky_solve(make_system(A, np.ones(150)))


@pytest.mark.parametrize("where", ["A", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(where, bad):
    # a NaN below the diagonal would pass a bare factorization and come out
    # as a NaN energy
    A, b = np.eye(3) * 2.0, np.ones(3)
    if where == "A":
        A[2, 0] = A[0, 2] = bad
    else:
        b[1] = bad
    with pytest.raises(ValueError, match=f"^{where} has non-finite"):
        cholesky_solve(make_system(A, b))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_persymmetric_rejected(bad):
    # a persymmetric A has its finiteness checked on its first half of
    # rows, as the others mirror them; a NaN breaks persymmetry itself.
    # A bad value at A[N-1, N-1] alone leaves the top rows finite, breaks
    # the mirror, and is caught by the check of the bottom rows
    for spots in (((100, 100), (29, 29)), ((129, 129),)):
        A, b = persymmetric_spd(130, 0)
        for spot in spots:
            A[spot] = bad
        with pytest.raises(ValueError, match="^A has non-finite"):
            cholesky_solve(make_system(A, b))


def test_runtime_imports_no_scipy():
    # numpy is the one runtime dependency; scipy is for the tests only
    code = ("import sys\n"
            "from frachp import DegreeRule, solve_problem\n"
            "solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solve_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (tens of ms) on its first call
    code = ("import sys\n"
            "from frachp import DegreeRule, solve_problem\n"
            "solve_problem(0.5, 0.6, 2, DegreeRule.reduced(2))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("n", [1, 63, 64, 65, 150])
def test_block_factor_matches_dense_solve(n):
    # sizes on either side of the 64-column block edges
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    c = cholesky_solve(make_system(A, b)).coeffs
    ref = np.linalg.solve(A, b)
    assert np.abs(c - ref).max() <= 1e-12 * np.abs(ref).max()
    # only the lower triangle of A is read
    junk = np.tril(A) + np.triu(rng.standard_normal((n, n)), 1)
    cho = linsolve_mod.linalg
    np.testing.assert_array_equal(cho.cho_solve(cho.cho_factor(junk), b), c)


def persymmetric_spd(n, seed):
    """A random SPD matrix equal to its transpose and its reversal in both
    indices, bit for bit."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    A = 0.5 * (A + A.T)
    return 0.5 * (A + A[::-1, ::-1]), rng.standard_normal(n)


def factor_calls(monkeypatch):
    """The `half` argument of each linalg.cho_factor call."""
    calls = []
    factor = linsolve_mod.linalg.cho_factor

    def recording(A, *args):
        calls.append(args[0] if args else None)
        return factor(A, *args)

    monkeypatch.setattr(linsolve_mod.linalg, "cho_factor", recording)
    return calls


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 150])
def test_persymmetric_split_matches_dense_solve(monkeypatch, n):
    # above one 64-column block a persymmetric A is solved as its even
    # half, ceil(n/2) rows, and its odd half, floor(n/2) rows; both halves
    # are factored, and so checked, even for an exactly even load, whose
    # odd half is zero
    A, b = persymmetric_spd(n, n)
    calls = factor_calls(monkeypatch)
    for load in (b, b + b[::-1]):
        calls.clear()
        sol = cholesky_solve(make_system(A, load))
        ref = np.linalg.solve(A, load)
        assert np.abs(sol.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()
        assert calls == (["even", "odd"] if n > 64 else [None])
        assert sol.residual_norm <= 1e-12 * np.linalg.norm(load)
    if n > 64:
        # one pair of entries off the mirror by an ulp takes the whole factor
        A[0, 1] = A[1, 0] = A[0, 1] * (1 + 2 ** -52)
        calls.clear()
        cholesky_solve(make_system(A, b))
        assert calls == [None]


def test_persymmetric_not_spd_names_half():
    # A = I + 2 J (J the reversal) has the even half 3 I and the odd half -I
    A = np.eye(150) + 2.0 * np.eye(150)[::-1]
    with pytest.raises(NotSPDError, match=r"odd half fails .* rows 0\.\.63"):
        cholesky_solve(make_system(A, np.ones(150)))
    # a negative pivot at rows 100 and 199 lies in the even half's
    # second block
    A = np.eye(300)
    A[100, 100] = A[199, 199] = -1.0
    with pytest.raises(NotSPDError,
                       match=r"even half fails .* rows 64\.\.127"):
        cholesky_solve(make_system(A, np.ones(300)))


@pytest.mark.parametrize("domain, bound", [((-1, 1), 0.35),
                                           ((0.5, 3.5), 0.7)],
                         ids=["split", "whole"])
def test_solve_peak_memory_by_path(domain, bound):
    # on (-1, 1) A is persymmetric and its two half factors hold about
    # N^2 / 8 entries each, one at a time (the whole factor held 0.583
    # 8 N^2); on (0.5, 3.5) the nodes are not mirrored bit for bit, so the
    # whole factor is kept; the checks of A take no N x N temporary
    mesh = build_geometric_mesh(domain, 0.6, 24)
    dm = build_dof_map(mesh, DegreeRule.uniform(24))
    system = replace(assemble(dm, 0.5),
                     load=assemble_load(lambda x: np.ones_like(x), dm))
    cholesky_solve(system)
    tracemalloc.start()
    try:
        cholesky_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * dm.n_dofs ** 2


def test_solve_holds_half_a_factor():
    # the factor keeps only its lower block columns, about N^2 / 2 entries
    mesh = build_geometric_mesh((-1, 1), 0.6, 24)
    dm = build_dof_map(mesh, DegreeRule.uniform(24))
    system = replace(assemble(dm, 0.5),
                     load=assemble_load(lambda x: np.ones_like(x), dm))
    cholesky_solve(system)
    tracemalloc.start()
    try:
        cholesky_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * 8 * dm.n_dofs ** 2


def test_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        cholesky_solve(make_system(np.eye(3), [1.0, 2.0]))
    # a 1-D A, a 0-D b and a column b are not systems either
    for A, b in ((np.ones(3), np.ones(3)), (np.eye(1), 1.0),
                 (np.eye(3), np.ones((3, 1)))):
        with pytest.raises(ValueError, match="inconsistent system"):
            cholesky_solve(make_system(A, b))


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
    # at s = 0.98 this reads 0.893 of the bound: eps |c|^T |A| |c| is 14.2
    # times the bound, and the energy of the same c with b - A c taken in
    # long double reads 0.000, so the gap is the rounding of the residual
    # in double; other block sizes, scipy's cho_solve, LU or one refinement
    # step drew 0.04-1.09 over s in {0.95, 0.98}, L in {12, 14, 16}
    assert abs(sol.energy - e_ld) <= 2.0 * dm.n_dofs * eps * exact_energy(s)
