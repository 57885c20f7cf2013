import itertools
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import frachp.assembly as assembly_mod
from frachp import (DegreeRule, assemble, assemble_load, build_dof_map,
                    build_geometric_mesh, cholesky_solve, complement_weight,
                    kernel_constant, solve_problem)
from frachp.assembly import _endpoint_blocks
from frachp.basis import _shape_matrix
from frachp.quadrature import _rule01
from oracles import MixedDegrees, oracle_stiffness, reflection_permutation
from pair_reference import pair_quadrature


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
    system = assemble(dm, 0.5)
    assert system.stiffness.shape == (1, 1)
    a11 = system.stiffness[0, 0]
    assert a11 > 0
    oracle = oracle_stiffness(mesh, dm, 0.5)[0, 0]
    assert a11 == pytest.approx(oracle, rel=1e-6)


def test_oracle_equivalence_spot_check():
    # full sweep lives in the acceptance suite; one moderate case here
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    A = assemble(dm, 0.5).stiffness
    A_oracle = oracle_stiffness(mesh, dm, 0.5)
    rel = np.abs(A - A_oracle) / np.abs(A_oracle)
    assert rel.max() <= 1e-5


def test_symmetry_exact():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    A = assemble(dm, 0.3).stiffness
    assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))


def test_scaling_linearity_in_kernel_constant(monkeypatch):
    # entries are proportional to C(s): doubling the constant doubles every
    # entry exactly (scaling by 2 is exact in binary floating point)
    mesh = build_geometric_mesh((-1, 1), 0.5, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    A = assemble(dm, 0.4).stiffness
    true_c = kernel_constant
    monkeypatch.setattr(assembly_mod, "kernel_constant",
                        lambda s: 2.0 * true_c(s))
    A2 = assemble(dm, 0.4).stiffness
    np.testing.assert_array_equal(A2, 2.0 * A)


def test_spd_across_study_configurations():
    for s in (0.3, 0.5, 0.7):
        for L in (1, 4, 7, 10):
            mesh = build_geometric_mesh((-1, 1), 0.6, L)
            dm = build_dof_map(mesh, DegreeRule.uniform(min(L, 10)))
            A = assemble(dm, s).stiffness
            np.linalg.cholesky(A)  # raises if not SPD


def test_serial_assembly_deterministic():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    A1 = assemble(dm, 0.7).stiffness
    A2 = assemble(dm, 0.7).stiffness
    np.testing.assert_array_equal(A1, A2)


def per_pair_stiffness(mesh, dm, s, quad_offset):
    """Stiffness from a loop over element pairs i <= j, each through
    pair_quadrature with its divided differences merged per global dof,
    plus a complement block per element.  Constrained dofs land in
    a spare row and column N.  Identical pairs are integrated on (0, 1) and
    scaled by h^(1-2s): at the physical points of the smallest elements the
    divided differences lose up to 4e-13 of the block maximum at s = 0.98
    (against a long-double evaluation), more than the tolerance below."""
    ne, N = mesh.n_elements, dm.n_dofs
    A = np.zeros((N + 1, N + 1))
    p = [int(q) for q in dm.degrees]
    dofs = [np.where(row[:q + 1] >= 0, row[:q + 1], N)
            for row, q in zip(dm.table, p)]
    for i, j in itertools.combinations_with_replacement(range(ne), 2):
        pair, scale = ((dm.lo[i], dm.hi[i]), (dm.lo[j], dm.hi[j])), 2.0
        if i == j:
            h = pair[0][1] - pair[0][0]
            pair, scale = ((0.0, 1.0), (0.0, 1.0)), h ** (1.0 - 2.0 * s)
        x, z, w = pair_quadrature(s, max(p[i], p[j]) + quad_offset, pair)
        (a1, b1), (a2, b2) = pair
        shapes = np.concatenate((
            _shape_matrix(p[i], 2.0 * (x - a1) / (b1 - a1) - 1.0),
            -_shape_matrix(p[j], 2.0 * (z - a2) / (b2 - a2) - 1.0)))
        g, merge = np.unique(np.concatenate((dofs[i], dofs[j])),
                             return_inverse=True)
        rows = np.zeros((len(g), len(x)))
        np.add.at(rows, merge, shapes)
        rows /= x - z
        A[np.ix_(g, g)] += scale * (rows * w) @ rows.T
    c = kernel_constant(s)
    A *= 0.5 * c
    for e in range(ne):
        A[np.ix_(dofs[e], dofs[e])] += c * complement_block(dm, s, e,
                                                            quad_offset)
    for e, block in _endpoint_blocks(dm, s, quad_offset):
        A[np.ix_(dofs[e], dofs[e])] += c * block
    A = A[:N, :N]
    return np.tril(A) + np.tril(A, -1).T


def complement_block(dm, s, e, quad_offset):
    """int_T phi_k phi_l kappa on element e at physical Gauss points; on
    the two boundary elements only the far endpoint's term, the near one's
    being the Jacobi block of _endpoint_blocks."""
    a, b = dm.lo[0], dm.hi[-1]
    lo, hi, p = dm.lo[e], dm.hi[e], int(dm.degrees[e])
    t, w = _rule01(p + quad_offset)
    x = lo + (hi - lo) * t
    if e == 0:
        kappa = (b - x) ** (-2.0 * s) / (2.0 * s)
    elif e == len(dm.h) - 1:
        kappa = (x - a) ** (-2.0 * s) / (2.0 * s)
    else:
        kappa = complement_weight((a, b), s, x)
    vals = _shape_matrix(p, 2.0 * (x - lo) / (hi - lo) - 1.0)
    return (vals * (w * (hi - lo) * kappa)) @ vals.T


def make_rule(kind, p):
    """DegreeRule(kind, p), or MixedDegrees for kind "mixed"."""
    return MixedDegrees() if kind == "mixed" else DegreeRule(kind, p)


@pytest.mark.parametrize("kind", ["uniform", "reduced", "mixed"])
@pytest.mark.parametrize("s", [0.02, 0.3, 0.5, 0.7, 0.98])
@pytest.mark.parametrize("L", [0, 1, 3, 6])
def test_batched_assembly_matches_per_pair(kind, s, L):
    # L = 0 has no disjoint pair; L = 1 is the first mesh with one
    mesh = build_geometric_mesh((-1, 1), 0.6, L)
    dm = build_dof_map(mesh, make_rule(kind, L + 2))
    for quad_offset in (3, 6, 12):
        A = assemble(dm, s, quad_offset=quad_offset).stiffness
        ref = per_pair_stiffness(mesh, dm, s, quad_offset)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(A).max()


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("kind, L", [("reduced", 6), ("uniform", 10),
                                     ("mixed", 6)])
def test_disjoint_chunking_changes_nothing(monkeypatch, kind, s, L):
    # a chunk of one kernel entry puts one pair in each batch; the self
    # terms are then summed per element in another order
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       make_rule(kind, L + 2))
    A = assemble(dm, s).stiffness
    monkeypatch.setattr(assembly_mod, "_CHUNK", 1)
    per_pair = assemble(dm, s).stiffness
    assert np.abs(A - per_pair).max() <= 1e-15 * np.abs(A).max()


def test_assemble_rejects_dof_table_out_of_order():
    # numbered right to left, the same space would put every disjoint
    # cross block in the lower triangle, which the scatter never reads
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 2),
                       DegreeRule.uniform(2))
    flipped = np.where(dm.table >= 0, dm.n_dofs - 1 - dm.table, -1)
    with pytest.raises(ValueError, match="left to right"):
        assemble(replace(dm, table=flipped), 0.5)
    # vertices first, then the element-internal dofs
    ne = len(dm.h)
    table = np.full_like(dm.table, -1)
    table[1:, 0] = table[:-1, 2] = np.arange(ne - 1)
    table[:, 1] = np.arange(ne - 1, dm.n_dofs)
    with pytest.raises(ValueError, match="left to right"):
        assemble(replace(dm, table=table), 0.5)
    assemble(dm, 0.5)


@pytest.mark.parametrize("call", [
    lambda dm, q: assemble(dm, 0.5, quad_offset=q),
    lambda dm, q: assemble_load(np.ones_like, dm, quad_offset=q),
    lambda dm, q: solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2),
                                quad_offset=q),
], ids=["assemble", "assemble_load", "solve_problem"])
def test_quad_offset_validated(call):
    # 2.5 is not truncated to 2, and a negative offset does not silently
    # shrink the rules (at -1 and p = 2 they have one point)
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 2),
                       DegreeRule.uniform(2))
    with pytest.raises(TypeError):
        call(dm, 2.5)
    with pytest.raises(ValueError, match="quad_offset"):
        call(dm, -1)
    call(dm, np.int64(0))


@pytest.mark.parametrize("s", [0.02, 0.3, 0.7, 0.98])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_general_interval_scaling(s, L):
    # the affine map of (-1, 1) onto (a, b) scales the operator by
    # ((b - a)/2)^(1-2s), pair term and complement term alike
    rule = DegreeRule.reduced(L + 2)
    blocks = []
    for domain in ((0.5, 3.5), (-1.0, 1.0)):
        mesh = build_geometric_mesh(domain, 0.6, L)
        blocks.append(assemble(build_dof_map(mesh, rule), s).stiffness)
    scaled = 1.5 ** (1.0 - 2.0 * s) * blocks[1]
    assert np.abs(blocks[0] - scaled).max() <= 1e-12 * np.abs(scaled).max()


def test_continuity_in_s_no_artifact_at_half():
    # the exact entries genuinely vary ~8% per 0.01 step in s near 1/2
    # (their log-derivative grows like 2 L |ln sigma|), so smoothness is
    # checked through the second difference across s = 1/2 instead of the
    # raw jump: at L = 2 the jumps are 5.1% and 5.3% of max|A| on either
    # side of 1/2, while the second difference is 0.3%
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    A = {s: assemble(dm, s).stiffness for s in (0.49, 0.50, 0.51)}
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
    A = {s: assemble(dm, s).stiffness for s in (0.49, 0.50, 0.51)}
    for s1, s2 in ((0.49, 0.50), (0.50, 0.51)):
        rel = np.abs(A[s2] - A[s1]) / np.abs(A[0.50])
        assert rel.max() <= 0.05


def test_load_vector_hat():
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    b = assemble_load(lambda x: np.ones_like(x), dm)
    assert b[0] == pytest.approx(1.0, rel=1e-14)  # area under the unit hat
    np.testing.assert_array_equal(
        assemble_load(lambda x: np.zeros_like(x), dm), np.zeros(1))


def test_load_vector_antisymmetric_for_odd_f():
    mesh = build_geometric_mesh((-1, 1), 0.6, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    b = assemble_load(lambda x: x, dm)
    perm = reflection_permutation(dm)
    np.testing.assert_allclose(b + b[perm], 0.0, atol=1e-15)


def test_load_rejects_non_finite_f():
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    with pytest.raises(ValueError):
        assemble_load(lambda x: np.full_like(x, np.nan), dm)
    # only the last element, (0.4, 1), holds points with x > 0.9
    with pytest.raises(ValueError, match=f"element {mesh.n_elements}$"):
        assemble_load(lambda x: np.where(x > 0.9, np.nan, 1.0), dm)


def per_element_load(f, mesh, dm, quad_offset=6):
    """Load vector from a loop over elements at physical Gauss points."""
    b = np.zeros(dm.n_dofs)
    for e, (lo, hi) in enumerate(zip(dm.lo, dm.hi)):
        p = int(dm.degrees[e])
        t, w = _rule01(p + quad_offset)
        x = lo + (hi - lo) * t
        g = dm.table[e, :p + 1]
        keep = g >= 0
        vals = _shape_matrix(p, 2.0 * (x - lo) / (hi - lo) - 1.0)[keep]
        b[g[keep]] += vals @ (w * (hi - lo) * f(x))
    return b


@pytest.mark.parametrize("kind", ["uniform", "reduced"])
@pytest.mark.parametrize("L", [0, 1, 6])
def test_batched_load_matches_per_element(kind, L):
    f = lambda x: np.cos(3.0 * x) + x
    mesh = build_geometric_mesh((-1, 1), 0.6, L)
    dm = build_dof_map(mesh, DegreeRule(kind, L + 2))
    b = assemble_load(f, dm)
    ref = per_element_load(f, mesh, dm)
    assert np.abs(b - ref).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("s", [0.3, 0.7, 0.98])
def test_boundary_complement_blocks_converged_at_deep_L(s):
    # on the active shapes of a boundary element the shape/distance ratio
    # is a polynomial of degree p - 1, so the Jacobi rule is exact for any
    # quad_offset; the blocks then differ only by rounding, although the
    # boundary elements have length sigma^24 ~ 5e-6
    mesh = build_geometric_mesh((-1, 1), 0.6, 24)
    dm = build_dof_map(mesh, DegreeRule.uniform(24))
    ends = (0, mesh.n_elements - 1)
    blocks = []
    for offset in (6, 30):
        # the Jacobi block of the near endpoint plus the Gauss block of the
        # far one
        blocks.append({e: block + complement_block(dm, s, e, offset)
                       for e, block in _endpoint_blocks(dm, s, offset)})
    for e in ends:
        keep = dm.table[e, :dm.degrees[e] + 1] >= 0
        active = np.ix_(keep, keep)
        ref = blocks[1][e][active]
        diff = blocks[0][e][active] - ref
        assert np.abs(diff).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("L", [6, 24])
def test_endpoint_blocks_mirror_each_other(s, L):
    # the two boundary elements of a uniform mesh on (-1, 1) are mirror
    # images, so the right end's block is the left end's with its active
    # rows and columns reversed; a rule of its own for the right end, with
    # the weight (1 - t)^(2-2s), misses that by up to 6.8e-14 of the maximum
    # (1 - t cancels at its nodes near 1)
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       DegreeRule.uniform(L))
    assert dm.h[0] == dm.h[-1]
    (_, left), (_, right) = _endpoint_blocks(dm, s, 6)
    mirrored = left[1:, 1:][::-1, ::-1]
    assert np.abs(right[:-1, :-1] - mirrored).max() <= 2e-15 * np.abs(
        mirrored).max()


def test_assembly_peak_memory_one_mirror_temporary():
    # the (N+1) x (N+1) work array, the N x N result and small batches:
    # the disjoint chunks must stay small on the largest mesh too
    for L in (14, 24):
        mesh = build_geometric_mesh((-1, 1), 0.6, L)
        dm = build_dof_map(mesh, DegreeRule.uniform(L))
        assemble(dm, 0.5)  # warm the shape-table caches
        tracemalloc.start()
        try:
            assemble(dm, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * dm.n_dofs ** 2, L


def test_galerkin_system_is_frozen():
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    system = assemble(build_dof_map(mesh, DegreeRule.uniform(1)), 0.5)
    with pytest.raises(FrozenInstanceError):
        system.load = np.ones(system.n)


def test_galerkin_identity_after_solve():
    mesh = build_geometric_mesh((-1, 1), 0.6, 3)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    system = replace(assemble(dm, 0.7),
                     load=assemble_load(lambda x: np.ones_like(x), dm))
    sol = cholesky_solve(system)
    c = sol.coeffs
    cac = c @ system.stiffness @ c
    cb = c @ system.load
    assert abs(cac - cb) <= 1e-10 * abs(cb)
