import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from frachp import (DegreeRule, assemble, assemble_load, build_dof_map,
                    build_geometric_mesh, cholesky_solve, complement_weight,
                    kernel_constant)
from oracles import oracle_stiffness


def test_kernel_constant_values():
    # Gamma(-1/2) = -2 sqrt(pi) gives C(1/2) = 1/pi
    assert kernel_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    # positive and finite across the range (Gamma(-s) < 0 on (0,1))
    for s in (0.05, 0.3, 0.62, 0.95):
        c = kernel_constant(s)
        assert np.isfinite(c) and c > 0
    with pytest.raises(ValueError):
        kernel_constant(0.0)
    with pytest.raises(ValueError):
        kernel_constant(1.0)


def test_complement_weight_values():
    assert complement_weight((-1, 1), 0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    for s in (0.3, 0.5, 0.7):
        # symmetry point: (x-a) = (b-x) = 1 gives 1/s
        assert complement_weight((-1, 1), s, 0.0) == pytest.approx(1.0 / s,
                                                                   rel=1e-14)
    # truncated numeric check of the defining integral 2*int_1^R z^-2 dz
    from scipy import integrate
    trunc = 2 * integrate.quad(lambda z: z ** -2.0, 1.0, 5000.0)[0]
    assert complement_weight((-1, 1), 0.5, 0.0) == pytest.approx(trunc, rel=1e-3)


def test_complement_weight_blows_up_at_boundary():
    vals = [complement_weight((-1, 1), 0.3, x) for x in (-0.9, -0.99, -0.999)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        complement_weight((-1, 1), 0.3, -1.0)
    with pytest.raises(ValueError):
        complement_weight((-1, 1), 0.3, 1.5)


def test_single_hat_entry_against_oracle():
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    system = assemble(mesh, dm, 0.5)
    assert system.stiffness.shape == (1, 1)
    a11 = system.stiffness[0, 0]
    assert a11 > 0
    oracle = oracle_stiffness(mesh, dm, 0.5)[0, 0]
    assert a11 == pytest.approx(oracle, rel=1e-6)


def test_oracle_equivalence_spot_check():
    # full sweep lives in the acceptance suite; one moderate case here
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    A = assemble(mesh, dm, 0.5).stiffness
    A_oracle = oracle_stiffness(mesh, dm, 0.5)
    rel = np.abs(A - A_oracle) / np.abs(A_oracle)
    assert rel.max() <= 1e-5


def test_symmetry_exact():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    A = assemble(mesh, dm, 0.3).stiffness
    assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))


def test_scaling_linearity_in_kernel_constant(monkeypatch):
    # entries are proportional to C(s): doubling the constant doubles every
    # entry exactly (scaling by 2 is exact in binary floating point)
    import frachp.assembly as assembly_mod

    mesh = build_geometric_mesh((-1, 1), 0.5, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    A = assemble(mesh, dm, 0.4).stiffness
    true_c = kernel_constant
    monkeypatch.setattr(assembly_mod, "kernel_constant",
                        lambda s: 2.0 * true_c(s))
    A2 = assemble(mesh, dm, 0.4).stiffness
    np.testing.assert_array_equal(A2, 2.0 * A)


def test_spd_across_study_configurations():
    for s in (0.3, 0.5, 0.7):
        for L in (1, 4, 7, 10):
            mesh = build_geometric_mesh((-1, 1), 0.6, L)
            dm = build_dof_map(mesh, DegreeRule.uniform(min(L, 10)))
            A = assemble(mesh, dm, s).stiffness
            np.linalg.cholesky(A)  # raises if not SPD


def test_serial_assembly_deterministic():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    A1 = assemble(mesh, dm, 0.7).stiffness
    A2 = assemble(mesh, dm, 0.7).stiffness
    np.testing.assert_array_equal(A1, A2)


def test_continuity_in_s_no_artifact_at_half():
    # the exact entries genuinely vary ~8% per 0.01 step in s near 1/2
    # (their log-derivative grows like 2 L |ln sigma|), so smoothness is
    # checked through the second difference across s = 1/2 instead of the
    # raw jump: at L = 2 the jumps are 5.1% and 5.3% of max|A| on either
    # side of 1/2, while the second difference is 0.3%
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    A = {s: assemble(mesh, dm, s).stiffness for s in (0.49, 0.50, 0.51)}
    scale = np.abs(A[0.50]).max()
    second = np.abs(A[0.51] - 2 * A[0.50] + A[0.49]).max() / scale
    assert second < 0.01
    jump_lo = np.abs(A[0.50] - A[0.49]).max() / scale
    jump_hi = np.abs(A[0.51] - A[0.50]).max() / scale
    assert jump_hi == pytest.approx(jump_lo, rel=0.3)


@pytest.mark.xfail(strict=True,
                   reason="spec bound unattainable: exact operator entries "
                          "vary more than 5% per 0.01 step in s near 1/2 "
                          "(entrywise 12.4% and 13.6% at L = 2)")
def test_continuity_in_s_literal_bound():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    A = {s: assemble(mesh, dm, s).stiffness for s in (0.49, 0.50, 0.51)}
    for s1, s2 in ((0.49, 0.50), (0.50, 0.51)):
        rel = np.abs(A[s2] - A[s1]) / np.abs(A[0.50])
        assert rel.max() <= 0.05


def test_load_vector_hat():
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    b = assemble_load(lambda x: np.ones_like(x), mesh, dm)
    assert b[0] == pytest.approx(1.0, rel=1e-14)  # area under the unit hat
    np.testing.assert_array_equal(
        assemble_load(lambda x: np.zeros_like(x), mesh, dm), np.zeros(1))


def test_load_vector_antisymmetric_for_odd_f():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    b = assemble_load(lambda x: x, mesh, dm)
    # reflection dof map: vertex v <-> 2L+2-v, internal (e,k) <-> (E-1-e,p-k)
    L, E = mesh.layers, mesh.n_elements
    perm = np.empty(dm.n_dofs, dtype=int)
    for v in range(1, 2 * L + 2):
        perm[v - 1] = 2 * L + 1 - v
    for e in range(E):
        p = int(dm.degrees[e])
        for k in range(1, p):
            perm[dm.elem_dofs[e][k]] = dm.elem_dofs[E - 1 - e][p - k]
    np.testing.assert_allclose(b + b[perm], 0.0, atol=1e-15)


def test_load_rejects_non_finite_f():
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    with pytest.raises(ValueError):
        assemble_load(lambda x: np.full_like(x, np.nan), mesh, dm)


def test_galerkin_system_is_frozen():
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    system = assemble(mesh, build_dof_map(mesh, DegreeRule.uniform(1)), 0.5)
    with pytest.raises(FrozenInstanceError):
        system.load = np.ones(system.n)


def test_galerkin_identity_after_solve():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    system = replace(assemble(mesh, dm, 0.7),
                     load=assemble_load(lambda x: np.ones_like(x), mesh, dm))
    sol = cholesky_solve(system)
    c = sol.coeffs
    cac = c @ system.stiffness @ c
    cb = c @ system.load
    assert abs(cac - cb) <= 1e-10 * abs(cb)
