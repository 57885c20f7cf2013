import numpy as np
import pytest

from frachp import (DegreeRule, build_dof_map, build_geometric_mesh,
                    eval_fem_derivative, eval_fem_function,
                    gauss_lobatto_nodes, legendre_eval, shape_deriv,
                    shape_eval)
from frachp.basis import _legendre_pair


def test_lobatto_small_degrees():
    np.testing.assert_allclose(gauss_lobatto_nodes(1), [-1, 1], atol=0)
    np.testing.assert_allclose(gauss_lobatto_nodes(2), [-1, 0, 1], atol=0)
    r = 1 / np.sqrt(5)
    np.testing.assert_allclose(gauss_lobatto_nodes(3), [-1, -r, r, 1],
                               rtol=1e-15)


def test_lobatto_residuals():
    # interior nodes are roots of P_p'; evaluating P_p' through the
    # recurrence leaves a rounding floor that grows with p (measured
    # <= 7e-15 for p <= 8, up to 2.2e-14 for p = 9..12), so the 1e-14
    # bound is asserted for p <= 8 and a 5e-14 evaluation-noise bound above
    for p in range(2, 13):
        x = gauss_lobatto_nodes(p)[1:-1]
        pn, pn1 = _legendre_pair(p, x)
        res = np.max(np.abs(p * (x * pn - pn1) / (x * x - 1.0)))
        assert res <= (1e-14 if p <= 8 else 5e-14), f"p={p}: {res}"


def test_lobatto_sorted_and_symmetric():
    for p in (2, 5, 9, 12):
        t = gauss_lobatto_nodes(p)
        assert np.all(np.diff(t) > 0)
        np.testing.assert_array_equal(t + t[::-1], np.zeros(p + 1))


def test_lobatto_rejects_degree_zero():
    with pytest.raises(ValueError):
        gauss_lobatto_nodes(0)


def test_legendre_values():
    assert legendre_eval(0, 0.3) == 1.0
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-16)
    assert legendre_eval(5, 1.0) == pytest.approx(1.0, abs=1e-14)
    # vectorized call agrees with scalar calls
    xs = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(legendre_eval(4, xs),
                               [legendre_eval(4, x) for x in xs], rtol=1e-15)


def test_shape_cardinal_property():
    for p in (1, 2, 4, 7):
        t = gauss_lobatto_nodes(p)
        for k in range(p + 1):
            vals = shape_eval(p, k, t)
            np.testing.assert_array_equal(vals, np.eye(p + 1)[k])


def test_shape_values():
    assert shape_eval(1, 0, -1.0) == 1.0
    assert shape_eval(1, 0, 1.0) == 0.0
    assert shape_eval(2, 1, 0.0) == 1.0
    assert shape_eval(2, 1, 0.5) == pytest.approx(0.75, rel=1e-14)  # 1 - t^2


def test_shape_partition_of_unity():
    for p in (1, 3, 6, 10):
        t = np.linspace(-1, 1, 41)
        total = sum(shape_eval(p, k, t) for k in range(p + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-13)
        dtotal = sum(shape_deriv(p, k, t) for k in range(p + 1))
        np.testing.assert_allclose(dtotal, 0.0, atol=1e-12)


def test_shape_deriv_matches_difference_quotient():
    p = 5
    for k in (0, 2, 5):
        for t in (-0.77, 0.1, 0.93):
            h = 1e-6
            fd = (shape_eval(p, k, t + h) - shape_eval(p, k, t - h)) / (2 * h)
            assert shape_deriv(p, k, t) == pytest.approx(fd, abs=1e-8)


def test_dof_counts():
    m0 = build_geometric_mesh((-1, 1), 0.6, 0)
    assert build_dof_map(m0, DegreeRule.uniform(1)).n_dofs == 1
    m1 = build_geometric_mesh((-1, 1), 0.6, 1)
    assert build_dof_map(m1, DegreeRule.uniform(2)).n_dofs == 7
    m2 = build_geometric_mesh((-1, 1), 0.6, 2)
    assert build_dof_map(m2, DegreeRule.reduced(3)).n_dofs == 13


def test_dof_dim_formula():
    # N(uniform p) - N(uniform p-1) = 2L+2 for p >= 2
    for L in (0, 1, 4):
        mesh = build_geometric_mesh((-1, 1), 0.5, L)
        for p in (2, 3, 5):
            n_p = build_dof_map(mesh, DegreeRule.uniform(p)).n_dofs
            n_pm1 = build_dof_map(mesh, DegreeRule.uniform(p - 1)).n_dofs
            assert n_p - n_pm1 == 2 * L + 2


def test_reduced_rule_matches_uniform_for_p1():
    mesh = build_geometric_mesh((-1, 1), 0.5, 2)
    np.testing.assert_array_equal(DegreeRule.reduced(1).degrees(mesh),
                                  DegreeRule.uniform(1).degrees(mesh))


def test_vertex_dofs_shared_and_endpoints_constrained():
    mesh = build_geometric_mesh((-1, 1), 0.5, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    for e in range(mesh.n_elements - 1):
        assert dm.elem_dofs[e][-1] == dm.elem_dofs[e + 1][0]
    assert dm.elem_dofs[0][0] == -1
    assert dm.elem_dofs[-1][-1] == -1


def test_eval_piecewise_linear_interpolation():
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    dm = build_dof_map(mesh, DegreeRule.uniform(1))
    coeffs = np.array([1.0])  # nodal value of g(x) = 1 - |x| at x = 0
    assert eval_fem_function(dm, coeffs, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert eval_fem_function(dm, coeffs, 0.0) == 1.0
    np.testing.assert_array_equal(eval_fem_function(dm, np.zeros(1),
                                                    np.linspace(-1, 1, 9)),
                                  np.zeros(9))


def test_eval_continuity_and_zero_trace():
    mesh = build_geometric_mesh((-1, 1), 0.55, 2)
    dm = build_dof_map(mesh, DegreeRule.uniform(3))
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(dm.n_dofs)
    for v in mesh.nodes[1:-1]:
        left = eval_fem_function(dm, coeffs, np.nextafter(v, -2.0))
        right = eval_fem_function(dm, coeffs, v)
        assert right == pytest.approx(left, abs=1e-13)
    assert eval_fem_function(dm, coeffs, -1.0) == 0.0
    assert eval_fem_function(dm, coeffs, 1.0) == 0.0


def test_eval_derivative_of_known_polynomial():
    # nodal coefficients of f(x) = x(2-x), which has zero trace on (0, 2),
    # reproduce f and f' exactly
    mesh = build_geometric_mesh((0, 2), 0.5, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    from frachp.basis import gauss_lobatto_nodes as gln
    coeffs = np.zeros(dm.n_dofs)
    for e in range(mesh.n_elements):
        lo, hi = mesh.element(e + 1)
        xs = lo + 0.5 * (hi - lo) * (gln(2) + 1)
        for k, g in enumerate(dm.elem_dofs[e]):
            if g >= 0:
                coeffs[g] = xs[k] * (2 - xs[k])
    for x in (0.3, 0.9, 1.55):
        assert eval_fem_function(dm, coeffs, x) == pytest.approx(x * (2 - x),
                                                                 rel=1e-13)
        assert eval_fem_derivative(dm, coeffs, x) == pytest.approx(2 - 2 * x,
                                                                   rel=1e-12)


def test_eval_rejects_wrong_length():
    mesh = build_geometric_mesh((-1, 1), 0.5, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    with pytest.raises(ValueError):
        eval_fem_function(dm, np.zeros(dm.n_dofs + 1), 0.0)
