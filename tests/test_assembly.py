import itertools
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import frachp.assembly as assembly_mod
import frachp.quadrature as quadrature_mod
from frachp import (DegreeRule, assemble, assemble_load, build_dof_map,
                    build_geometric_mesh, cholesky_solve, kernel_constant,
                    solve_problem)
from frachp.basis import _shape_matrix, gauss_lobatto_nodes
from frachp.quadrature import _jacobi01, _rule01
from oracles import (MixedDegrees, complement_weight, lagrange_polys,
                     mass_and_laplacian_stiffness,
                     oracle_stiffness, reflection_permutation)
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


@pytest.mark.parametrize("s", [0.9, 0.98, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9])
def test_kernel_constant_accurate_near_one(s):
    # C(s) = 4^s s Gamma(s+1/2) / (sqrt(pi) Gamma(1-s)) by Gamma(1-s) =
    # -s Gamma(-s): no sine, so nothing cancels as s -> 1; sin(pi s) with
    # pi s rounded near pi was 7.2e-13 off at 1 - 1e-4 and 1.0e-7 at
    # 1 - 1e-9
    quotient = (4.0 ** s * s * math.gamma(s + 0.5)
                / (math.sqrt(math.pi) * math.gamma(1.0 - s)))
    assert abs(kernel_constant(s) - quotient) <= 4e-15 * quotient


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


def exact_divided_differences(p, x, z):
    """(l_k(x) - l_k(z)) / (x - z) for the degree-p cardinal functions l_k
    on (0, 1), as the mean of l_k' over [z, x] on the ceil(p/2)-point
    Gauss-Legendre rule, exact for the degree p - 1 of l_k'.  The
    derivatives are those of oracles.lagrange_polys on (-1, 1), where its
    monomial coefficients stay small, times 2 for the map to (0, 1)."""
    derivs = [q.deriv() for q in lagrange_polys(p, (-1.0, 1.0))]
    theta, weights = np.polynomial.legendre.leggauss((p + 1) // 2)
    X, Z = 2.0 * x - 1.0, 2.0 * z - 1.0
    rows = np.zeros((p + 1, len(x)))
    for th, w in zip(theta, weights):
        point = 0.5 * (X + Z) + 0.5 * th * (X - Z)
        rows += w * np.array([d(point) for d in derivs])
    return rows


def per_pair_stiffness(mesh, dm, s, quad_offset):
    """Stiffness from a loop over element pairs i <= j, each through
    pair_quadrature with its divided differences merged per global dof,
    plus a complement block per element and, on the two boundary elements,
    a near-endpoint block of shape/distance ratios.  Constrained dofs land in
    a spare row and column N.  Identical pairs are integrated on (0, 1) and
    scaled by h^(1-2s), with exact divided differences: the quotient of
    differences loses up to 2.5e-13 of the block maximum at s = 0.98
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
        if i == j:
            g = dofs[i]
            rows = exact_divided_differences(p[i], x, z)
        else:
            (a1, b1), (a2, b2) = pair
            shapes = np.concatenate((
                _shape_matrix(p[i], (x - a1) / (b1 - a1)),
                -_shape_matrix(p[j], (z - a2) / (b2 - a2))))
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
    for e in (0, ne - 1):
        A[np.ix_(dofs[e], dofs[e])] += c * endpoint_block(dm, s, e,
                                                          quad_offset)
    A = A[:N, :N]
    return np.tril(A) + np.tril(A, -1).T


def complement_block(dm, s, e, quad_offset):
    """int_T phi_k phi_l kappa on element e at physical Gauss points; on
    the two boundary elements only the far endpoint's term, the near one's
    being that of endpoint_block."""
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
    vals = _shape_matrix(p, (x - lo) / (hi - lo))
    return (vals * (w * (hi - lo) * kappa)) @ vals.T


def endpoint_block(dm, s, e, quad_offset):
    """int_T phi_k phi_l (dist to the near endpoint)^(-2s) / (2s) on the
    boundary element e, with the first-order zero of the active shapes
    factored out as the ratios S(r) / r, r being the distance to the near
    endpoint over h, on the Gauss-Jacobi weight r^(2-2s); the right end
    sees its shapes at 1 - r, which are those at r reversed.  Only its
    active rows and columns are meaningful: a shape that is 1 at the
    endpoint has no zero to factor."""
    p = int(dm.degrees[e])
    r, wj = _jacobi01(p + quad_offset, 2.0 - 2.0 * s, 0.0)
    ratios = _shape_matrix(p, r) / r
    weights = wj * dm.h[e] ** (1.0 - 2.0 * s) / (2.0 * s)
    block = (ratios * weights) @ ratios.T
    return block if e == 0 else block[::-1, ::-1]


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


def test_assemble_rejects_non_finite_stiffness():
    # a zero-length element puts h^(1-2s) = 0^(-0.4) into its identical
    # block at s = 0.7 (at s = 0.3, 0^0.4 = 0 would pass as finite)
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 2),
                       DegreeRule.uniform(2))
    h = dm.h.copy()
    h[2] = 0.0
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="stiffness assembly produced non-finite"):
        assemble(replace(dm, h=h), 0.7)


@pytest.mark.parametrize("call", [
    lambda dm, q: assemble(dm, 0.5, quad_offset=q),
    lambda dm, q: assemble_load(np.ones_like, dm, quad_offset=q),
], ids=["assemble", "assemble_load"])
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


def limit_slope_gaps(dm):
    """max|D(1e-5) - D(1e-6)| / max|D(1e-6)| for the slopes
    D(d) = (A(d) - M) / d at s -> 0 and D(d) = (A(1 - d) - K) / d at
    s -> 1: small only if A tends to M and to K, and at first order."""
    M, K = mass_and_laplacian_stiffness(dm)
    gaps = []
    for s_at, limit in ((lambda d: d, M), (lambda d: 1.0 - d, K)):
        d5, d6 = ((assemble(dm, s_at(d)).stiffness - limit) / d
                  for d in (1e-5, 1e-6))
        gaps.append(np.abs(d5 - d6).max() / np.abs(d6).max())
    return gaps


LIMIT_MAPS = [(kind, L) for kind in ("uniform", "reduced") for L in (1, 3, 6)]


@pytest.mark.parametrize("kind, L", LIMIT_MAPS)
def test_stiffness_tends_to_mass_and_laplacian_at_first_order(kind, L):
    # the slopes agree to at most 6.6e-5 on these maps (uniform, L = 6,
    # s -> 1); at d = 1e-4 against 1e-5 they would read up to 6.6e-4
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       DegreeRule(kind, L))
    at_zero, at_one = limit_slope_gaps(dm)
    assert at_zero <= 1e-3 and at_one <= 1e-3, (at_zero, at_one)


@pytest.mark.parametrize("defect", ["kernel_constant", "endpoint_blocks"])
def test_limit_slopes_see_assembly_defects(monkeypatch, defect):
    # negative controls: C(s) off by 1% moves A by 1% of its limit at both
    # ends; without the near-endpoint complement blocks A misses M as
    # s -> 0 (the term vanishes to first order as s -> 1)
    if defect == "kernel_constant":
        kernel_constant = assembly_mod.kernel_constant
        monkeypatch.setattr(assembly_mod, "kernel_constant",
                            lambda s: 1.01 * kernel_constant(s))
    else:
        reference_blocks = assembly_mod._reference_blocks

        def without_endpoint(*args):
            identical, endpoint = reference_blocks(*args)
            return identical, {p: 0.0 * block for p, block in endpoint.items()}

        monkeypatch.setattr(assembly_mod, "_reference_blocks",
                            without_endpoint)
    for kind, L in LIMIT_MAPS:
        dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                           DegreeRule(kind, L))
        at_zero, at_one = limit_slope_gaps(dm)
        assert at_zero > 0.5, (kind, L, at_zero)
        if defect == "kernel_constant":
            assert at_one > 0.5, (kind, L, at_one)


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
        vals = _shape_matrix(p, (x - lo) / (hi - lo))[keep]
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
    # the divided differences of the shapes against the near endpoint are
    # polynomials of degree p - 1, so the Jacobi rule of the reference
    # endpoint block is exact for any quad_offset; the blocks then differ
    # only by rounding, although the boundary elements have length
    # sigma^24 ~ 5e-6
    mesh = build_geometric_mesh((-1, 1), 0.6, 24)
    dm = build_dof_map(mesh, DegreeRule.uniform(24))
    ends = (0, mesh.n_elements - 1)
    blocks = []
    for offset in (6, 30):
        # the Jacobi block of the near endpoint, as _element_blocks takes
        # it at each end, plus the Gauss block of the far one
        _, endpoint = assembly_mod._reference_blocks(
            assembly_mod._plan(dm, offset).elements, s, len(dm.h) - 1)
        near = endpoint[24]
        blocks.append({e: dm.h[e] ** (1.0 - 2.0 * s) * block
                       + complement_block(dm, s, e, offset)
                       for e, block in zip(ends, (near, near[::-1, ::-1]))})
    for e in ends:
        keep = dm.table[e, :dm.degrees[e] + 1] >= 0
        active = np.ix_(keep, keep)
        ref = blocks[1][e][active]
        diff = blocks[0][e][active] - ref
        assert np.abs(diff).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("L", [6, 24])
def test_endpoint_blocks_mirror_each_other(monkeypatch, s, L):
    # the two boundary elements of a uniform mesh on (-1, 1) are mirror
    # images; off the mirror path the last element takes the reference
    # endpoint block with its rows and columns reversed, so the entries of
    # the two boundary elements mirror each other up to the rounding of
    # the other blocks (3.5e-14 of their maximum at L = 24, s = 0.98); the
    # endpoint block taken unreversed there misses by 2.1e-2 (s = 0.98) to
    # 7.2 (s = 0.02, L = 24).  The reversed block is the exact mirror; a
    # rule of its own for the right end, with the weight (1 - t)^(2-2s),
    # missed it by up to 6.8e-14 of the maximum (1 - t cancels at its
    # nodes near 1)
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       DegreeRule.uniform(L))
    assert dm.h[0] == dm.h[-1]
    monkeypatch.setattr(assembly_mod, "_is_mirror_image", lambda dm: False)
    A = assemble(dm, s).stiffness
    left, right = A[:L, :L], A[-L:, -L:]
    assert np.abs(right - left[::-1, ::-1]).max() <= 1e-13 * np.abs(
        right).max()


def long_double_divided_differences(p, x, z):
    """(l_k(x) - l_k(z)) / (x - z) on (0, 1) in long double: the mean of
    l_k' over [z, x] on a p-point Gauss-Legendre rule, its nodes polished
    by Newton's method in long double, with l_k and the differentiation
    matrix from the barycentric formula on the Gauss-Lobatto nodes."""
    ld = np.longdouble
    nodes = (gauss_lobatto_nodes(p).astype(ld) + 1) / 2
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, 1)
    bary = 1 / gaps.prod(axis=1)
    D = (bary[None, :] / bary[:, None]) / gaps
    np.fill_diagonal(D, 0)
    np.fill_diagonal(D, -D.sum(axis=1))
    theta = np.polynomial.legendre.leggauss(p)[0].astype(ld)
    for _ in range(3):
        prev, leg = np.ones_like(theta), theta.copy()
        for k in range(1, p):
            prev, leg = leg, ((2 * k + 1) * theta * leg - k * prev) / (k + 1)
        slope = p * (theta * leg - prev) / (theta * theta - 1)
        theta -= leg / slope
    weights = 1 / ((1 - theta * theta) * slope * slope)  # (0, 1) weights
    x, z = x.astype(ld), z.astype(ld)
    mean = np.zeros((p + 1, len(x)), dtype=ld)
    for th, w in zip(theta, weights):
        values = bary[:, None] / (z + (th + 1) / 2 * (x - z) - nodes[:, None])
        mean += w * values / values.sum(axis=0)
    return D.T @ mean


@pytest.mark.parametrize("p", [8, 24])
def test_identical_block_exact_in_long_double(p):
    # the quotient (l(x) - l(z)) / (x - z) cancels where the Gauss-Jacobi
    # distance x - z is small, which the weight t^(1-2s) favours as s -> 1:
    # it is 2.5e-13 (p = 8) and 2.0e-13 (p = 24) of the block off
    s = 0.98
    tx, tz, w = quadrature_mod._identical_scheme(s, p + 6)
    rows = assembly_mod._divided_differences(p, tx, tz)
    block = (rows * w) @ rows.T
    exact = long_double_divided_differences(p, tx, tz)
    ref = (exact * w.astype(np.longdouble)) @ exact.T
    assert np.abs(block - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("L", [0, 1, 6, 24])
@pytest.mark.parametrize("kind", ["uniform", "reduced"])
def test_mirror_maps_assemble_persymmetric(kind, L, s):
    # on (-1, 1) the reflection x -> -x maps dof g to N-1-g
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       DegreeRule(kind, L + 2))
    A = assemble(dm, s).stiffness
    np.testing.assert_array_equal(A, A[::-1, ::-1])
    np.testing.assert_array_equal(A, A.T)


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 127, 128, 129, 130, 257])
def test_mirror_fill_matches_direct(n):
    # upper entries r + c <= n - 1 come from the work array, scaled; the
    # other upper entries from their mirrors (n-1-c, n-1-r); the lower
    # triangle, the spare row and column of work are never read
    work = np.random.default_rng(n).standard_normal((n + 1, n + 1))
    scaled = 3.0 * work[:n, :n]
    r, c = np.indices((n, n))
    upper = np.where(r + c <= n - 1, scaled, scaled[::-1, ::-1].T)
    expected = np.triu(upper) + np.triu(upper, 1).T
    A = assembly_mod._symmetric_in_place(work, 3.0, True)
    np.testing.assert_array_equal(A, expected)
    np.testing.assert_array_equal(A, A[::-1, ::-1])


def count_blocks(monkeypatch):
    """Counters of the disjoint pairs and their kernel entries (from
    _disjoint_n) and of the scattered symmetric blocks by width."""
    counts = {"pairs": 0, "kernel": 0}
    disjoint_n, scatter_upper = (assembly_mod._disjoint_n,
                                 assembly_mod._scatter_upper)

    def counting_n(*args):
        n = disjoint_n(*args)
        counts["pairs"] += len(n)
        counts["kernel"] += int((n * n).sum())
        return n

    def counting_scatter(A, g, upper):
        counts[g.shape[1]] = counts.get(g.shape[1], 0) + len(g)
        scatter_upper(A, g, upper)

    monkeypatch.setattr(assembly_mod, "_disjoint_n", counting_n)
    monkeypatch.setattr(assembly_mod, "_scatter_upper", counting_scatter)
    return counts


def test_mirror_map_builds_half_the_blocks(monkeypatch):
    # a block is built when it reaches an entry r + c <= N - 1; the
    # full path builds 164,450 kernel entries at L = 14 and all 1176
    # disjoint pairs, 49 adjacent pairs and 50 element blocks at L = 24
    counts = count_blocks(monkeypatch)
    assemble(build_dof_map(build_geometric_mesh((-1, 1), 0.6, 14),
                           DegreeRule.uniform(14)), 0.5)
    assert counts["kernel"] == 90625
    counts.clear()
    counts.update(pairs=0, kernel=0)
    assemble(build_dof_map(build_geometric_mesh((-1, 1), 0.6, 24),
                           DegreeRule.uniform(24)), 0.5)
    # adjacent blocks span 2p + 1 = 49 dofs, element blocks p + 1 = 25
    assert (counts["pairs"], counts[49], counts[25]) == (624, 26, 26)


@pytest.mark.parametrize("domain, rule", [
    ((-1, 1), MixedDegrees()), ((0.5, 3.5), DegreeRule.uniform(8))],
    ids=["mixed", "shifted"])
def test_other_maps_build_every_block(monkeypatch, domain, rule):
    # degrees that are no palindrome, or nodes on (0.5, 3.5) whose
    # distances to the two ends differ in the last bit, keep the full path
    dm = build_dof_map(build_geometric_mesh(domain, 0.6, 6), rule)
    counts = count_blocks(monkeypatch)
    A = assemble(dm, 0.5).stiffness
    ne = len(dm.h)
    assert counts["pairs"] == (ne - 1) * (ne - 2) // 2
    assert sum(counts.values()) - counts["pairs"] - counts["kernel"] == (
        2 * ne - 1)
    assert not np.array_equal(A, A[::-1, ::-1])


def test_assembly_peak_memory_one_mirror_temporary():
    # the (N+1) x (N+1) work array and small batches: the disjoint chunks
    # must stay small on the largest mesh too
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


@pytest.mark.parametrize("quad_offset", [6, 14, 20])
def test_assembly_holds_one_matrix(quad_offset):
    # the work array becomes the result in place, so apart from it only
    # small batches and one tile row of the mirror are live; the shape
    # values of the identical reference blocks and the adjacent tables,
    # which grow with the offset, are freed before the work array is
    # allocated
    mesh = build_geometric_mesh((-1, 1), 0.6, 24)
    dm = build_dof_map(mesh, DegreeRule.uniform(24))
    assemble(dm, 0.5, quad_offset)  # warm the shape-table caches
    tracemalloc.start()
    try:
        assemble(dm, 0.5, quad_offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * dm.n_dofs ** 2


@pytest.mark.parametrize("kind, L", [("uniform", 14), ("reduced", 10),
                                     ("mixed", 6), ("uniform", 0)])
def test_stiffness_is_contiguous_view_of_work_array(kind, L):
    # N = 449, 221, 32 and 1: several tile rows of 64 with a partial last
    # one, and a single partial tile
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, L),
                       make_rule(kind, L + 1))
    A = assemble(dm, 0.3).stiffness
    N = dm.n_dofs
    assert A.shape == (N, N) and A.flags.c_contiguous
    np.testing.assert_array_equal(A, A.T)
    assert A.base is not None and A.base.shape == (N + 1, N + 1)


def test_scatter_puts_nothing_below_the_diagonal(monkeypatch):
    # the mirror overwrites the strict lower triangle, so no block may send
    # an entry there; the spare row and column N take constrained dofs
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 6),
                       DegreeRule.uniform(6))
    N = dm.n_dofs
    scatter = assembly_mod._scatter
    entries, below = [], []

    def counting(A, *args):
        hits = np.zeros_like(A)
        scatter(hits, *args[:-1], np.ones_like(args[-1]))
        entries.append(hits.sum())
        below.append(np.tril(hits[:N, :N], -1).sum())
        scatter(A, *args)

    monkeypatch.setattr(assembly_mod, "_scatter", counting)
    assemble(dm, 0.5)
    assert sum(entries) > 0
    assert sum(below) == 0


@pytest.mark.parametrize("kind, rules", [("uniform", 2), ("reduced", 4)])
def test_each_jacobi_rule_computed_once_per_assemble(monkeypatch, kind,
                                                     rules):
    # the identical, adjacent and endpoint blocks share their rules within
    # a call, and a second call at the same s finds them all in the cache
    quadrature_mod._jacobi01.cache_clear()
    golub_welsch = quadrature_mod._golub_welsch
    calls = []

    def counting(n, exp0, exp1):
        calls.append((n, exp0, exp1))
        return golub_welsch(n, exp0, exp1)

    monkeypatch.setattr(quadrature_mod, "_golub_welsch", counting)
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 6),
                       make_rule(kind, 6))
    assemble(dm, 0.3)
    assert len(calls) == len(set(calls)) == rules
    assemble(dm, 0.3)
    assert len(calls) == rules


def test_galerkin_system_is_frozen():
    mesh = build_geometric_mesh((-1, 1), 0.6, 1)
    system = assemble(build_dof_map(mesh, DegreeRule.uniform(1)), 0.5)
    with pytest.raises(FrozenInstanceError):
        system.load = np.ones(system.n)


def test_assembled_system_is_read_only():
    # the stiffness and load of every entry point, the README's system
    # built by hand included, refuse writes, so no caller can change a
    # system that a solve has already checked
    dm = build_dof_map(build_geometric_mesh((-1, 1), 0.6, 2),
                       DegreeRule.uniform(2))
    systems = (assemble(dm, 0.5),
               solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))[2],
               replace(assemble(dm, 0.5),
                       load=assemble_load(np.ones_like, dm)))
    for system in systems:
        for array in (system.stiffness, system.load):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


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
