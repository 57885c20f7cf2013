import itertools

import numpy as np
import pytest

from frachp import (DegreeRule, DerivativeRecurrence, build_dof_map,
                    build_geometric_mesh, eval_fem_function,
                    gauss_lobatto_nodes, weighted_derivative_norms)
from frachp.basis import (_diff_matrix, _legendre_pair, _lobatto_nodes01,
                          _shape_matrix)
from oracles import MixedDegrees, eval_fem_derivative


def shape_derivs(p, t):
    """l_k'(t) on (0, 1): l_k' has degree p - 1, so the shapes interpolate
    its nodal values, column k of the differentiation matrix, exactly."""
    return _diff_matrix(p).T @ _shape_matrix(p, t)


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


def test_lobatto_rejects_a_non_integer_degree():
    # also once the integer degree is cached: 3.0 == 3 is no cache hit
    gauss_lobatto_nodes(3)
    for p in (2.5, 3.0):
        with pytest.raises(TypeError):
            gauss_lobatto_nodes(p)


def test_legendre_values():
    # the recurrence returns (P_n, P_{n-1}); compare with numpy's series
    xs = np.linspace(-1, 1, 7)
    for n in range(1, 13):
        pn, pn1 = _legendre_pair(n, xs)
        np.testing.assert_allclose(
            pn, np.polynomial.legendre.legval(xs, np.eye(n + 1)[n]),
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            pn1, np.polynomial.legendre.legval(xs, np.eye(n + 1)[n - 1]),
            rtol=0, atol=1e-14)
    assert _legendre_pair(2, np.array([0.5]))[0][0] == pytest.approx(
        -0.125, abs=1e-16)
    assert _legendre_pair(5, np.array([1.0]))[0][0] == pytest.approx(
        1.0, abs=1e-14)


def test_shape_cardinal_property():
    # the nodes on (0, 1) are the two-double sums hi + lo; where lo = 0
    # (both vertices, and every node for p <= 2) hi is the node and reads
    # its unit column exactly; elsewhere hi lies -lo from the node, and the
    # column is the unit one moved by -lo l'(node), to first order
    for p in (1, 2, 4, 7):
        hi, lo = _lobatto_nodes01(p)
        vals = _shape_matrix(p, hi)
        node = lo == 0.0
        assert node[0] and node[-1]
        np.testing.assert_array_equal(vals[:, node], np.eye(p + 1)[:, node])
        np.testing.assert_allclose(vals, np.eye(p + 1) - _diff_matrix(p).T * lo,
                                   rtol=0, atol=1e-28)


def test_shape_values():
    assert _shape_matrix(1, 0.0)[0, 0] == 1.0
    assert _shape_matrix(1, 1.0)[0, 0] == 0.0
    assert _shape_matrix(2, 0.5)[1, 0] == 1.0
    assert _shape_matrix(2, 0.75)[1, 0] == pytest.approx(0.75, rel=1e-14)  # 4t(1-t)


def test_shape_partition_of_unity():
    for p in (1, 3, 6, 10):
        t = np.linspace(0, 1, 41)
        total = sum(_shape_matrix(p, t)[k] for k in range(p + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-13)
        dtotal = sum(shape_derivs(p, t)[k] for k in range(p + 1))
        np.testing.assert_allclose(dtotal, 0.0, atol=1e-12)


def test_shape_deriv_matches_difference_quotient():
    p = 5
    for k in (0, 2, 5):
        for t in (0.115, 0.55, 0.965):
            h = 1e-6
            fd = (_shape_matrix(p, t + h)[k, 0]
                  - _shape_matrix(p, t - h)[k, 0]) / (2 * h)
            assert shape_derivs(p, t)[k, 0] == pytest.approx(fd, abs=1e-8)


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
    for rule, L in itertools.product(
            (DegreeRule.uniform(3), DegreeRule.reduced(3), MixedDegrees()),
            (0, 1, 6)):
        mesh = build_geometric_mesh((-1, 1), 0.5, L)
        dm = build_dof_map(mesh, rule)
        ne = mesh.n_elements
        for e in range(ne - 1):
            assert dm.table[e, dm.degrees[e]] == dm.table[e + 1, 0]
        assert dm.table[0, 0] == -1
        assert dm.table[ne - 1, dm.degrees[ne - 1]] == -1
        # left to right: element e holds off_e - 1 .. off_e + p_e - 1 with
        # off_e = p_0 + ... + p_{e-1}, the two endpoints constrained
        off = 0
        for e in range(ne):
            p = int(dm.degrees[e])
            want = list(range(off - 1, off + p))
            if e == ne - 1:
                want[-1] = -1
            assert dm.table[e, :p + 1].tolist() == want
            off += p
        assert dm.n_dofs == off - 1
        # the padded table: elements es of degree p read table[es, :p + 1],
        # whose only -1 are the two endpoints, and every entry past an
        # element's degree is -1
        for p in np.unique(dm.degrees).tolist():
            es = np.flatnonzero(dm.degrees == p)
            rows = dm.table[es, :p + 1]
            assert (rows == -1).sum() == np.isin(es, [0, ne - 1]).sum()
            assert (dm.table[es, p + 1:] == -1).all()
        np.testing.assert_array_equal(dm.lo, mesh.nodes[:-1])
        np.testing.assert_array_equal(dm.hi, mesh.nodes[1:])
        np.testing.assert_array_equal(dm.h, dm.hi - dm.lo)


def test_degree_rule_rejects_degree_below_one():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        DegreeRule("uniform", 0)


@pytest.mark.parametrize(
    "make", [lambda p: DegreeRule("uniform", p), DegreeRule.uniform,
             DegreeRule.reduced, gauss_lobatto_nodes,
             lambda p: DerivativeRecurrence.build(0.3, p).polynomials[-1].coef,
             lambda p: weighted_derivative_norms(0.5, p, 0.05).norms],
    ids=["init", "uniform", "reduced", "gauss_lobatto_nodes",
         "derivative_recurrence", "derivative_norms"])
def test_degree_rule_rejects_non_integer_degree(make):
    # a float degree raises instead of being truncated to 2
    with pytest.raises(TypeError):
        make(2.5)
    with pytest.raises(TypeError):
        make(2.9)
    result = make(np.int64(3))
    if isinstance(result, DegreeRule):
        assert result.p == 3 and type(result.p) is int
    else:
        np.testing.assert_array_equal(result, make(3))


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
        lo, hi = dm.lo[e], dm.hi[e]
        xs = lo + 0.5 * (hi - lo) * (gln(2) + 1)
        for k, g in enumerate(dm.table[e, :3]):
            if g >= 0:
                coeffs[g] = xs[k] * (2 - xs[k])
    for x in (0.3, 0.9, 1.55):
        assert eval_fem_function(dm, coeffs, x) == pytest.approx(x * (2 - x),
                                                                 rel=1e-13)
        assert eval_fem_derivative(dm, coeffs, x) == pytest.approx(2 - 2 * x,
                                                                   rel=1e-12)


def points_with_owners(mesh, dm, rng):
    """Every mesh node (both endpoints included), the interior Gauss-Lobatto
    points of each element and three random interior points per element, as
    (x, element that owns x, reference coordinate of x there, local dof
    index of x there or -1).  A node is owned by the element on its right,
    b by the last element.  Reference coordinates are on (0, 1)."""
    xs, owner, ts, local = [], [], [], []
    for e, (lo, hi) in enumerate(zip(dm.lo, dm.hi)):
        p = int(dm.degrees[e])
        k = np.arange(p + 1 if e == mesh.n_elements - 1 else p)
        t = np.concatenate((0.5 * (gauss_lobatto_nodes(p)[k] + 1.0),
                            rng.uniform(0, 1, 3)))
        x = lo + (hi - lo) * t
        x[t == 1.0] = hi
        xs.append(x)
        owner.append(np.full(len(t), e))
        ts.append(t)
        local.append(np.concatenate((k, [-1, -1, -1])))
    return tuple(map(np.concatenate, (xs, owner, ts, local)))


@pytest.mark.parametrize("kind", ["uniform", "reduced"])
def test_eval_one_array_of_nodes_and_interior_points(kind):
    mesh = build_geometric_mesh((0, 2), 0.5, 3)
    dm = build_dof_map(mesh, DegreeRule(kind, 3))
    rng = np.random.default_rng(5)
    xs, owner, ts, local = points_with_owners(mesh, dm, rng)
    assert set(mesh.nodes) <= set(xs)

    def expand(coeffs, e, t, deriv):
        # sum_k coeffs[g_k] l_k(t) on element e, constrained dofs left out
        p = int(dm.degrees[e])
        scale = 1.0 / dm.h[e] if deriv else 1.0
        shape = (shape_derivs if deriv else _shape_matrix)(p, t)[:, 0]
        return scale * sum(coeffs[g] * shape[k]
                           for k, g in enumerate(dm.table[e, :p + 1]) if g >= 0)

    coeffs = rng.standard_normal(dm.n_dofs)
    vals = eval_fem_function(dm, coeffs, xs)
    ders = eval_fem_derivative(dm, coeffs, xs)
    assert vals.shape == ders.shape == xs.shape
    scale = np.abs(coeffs).max()
    for e, t, v, d in zip(owner, ts, vals, ders):
        assert v == pytest.approx(expand(coeffs, e, t, False), abs=1e-13 * scale)
        assert d == pytest.approx(expand(coeffs, e, t, True), rel=1e-12)
    # cardinal property: a dof point reads its own coefficient, the two
    # endpoints read 0
    for i in np.flatnonzero(local >= 0):
        g = dm.table[owner[i], local[i]]
        want = coeffs[g] if g >= 0 else 0.0
        assert vals[i] == pytest.approx(want, abs=1e-13 * scale)
    assert vals[(xs == 0.0) | (xs == 2.0)].tolist() == [0.0, 0.0]
    # ties at an interior node go right: the left element's one-sided
    # derivative there is a different number
    for node in mesh.nodes[1:-1]:
        i = int(np.flatnonzero(xs == node)[0])
        left = expand(coeffs, owner[i] - 1, 1.0, True)
        assert ders[i] == pytest.approx(expand(coeffs, owner[i], 0.0, True),
                                        rel=1e-12)
        assert abs(ders[i] - left) > 1e-6 * abs(left)

    # nodal values of a known cubic: reproduced on every degree-3 element,
    # its linear interpolant on the degree-1 boundary elements of the
    # reduced rule
    f = lambda x: x * (2.0 - x) * (x + 0.5)
    df = lambda x: -3.0 * x * x + 3.0 * x + 1.0
    at_dofs = np.zeros(dm.n_dofs)
    for e, (lo, hi) in enumerate(zip(dm.lo, dm.hi)):
        g = dm.table[e, :dm.degrees[e] + 1]
        pts = lo + 0.5 * (hi - lo) * (gauss_lobatto_nodes(len(g) - 1) + 1.0)
        at_dofs[g[g >= 0]] = f(pts[g >= 0])
    vals = eval_fem_function(dm, at_dofs, xs)
    ders = eval_fem_derivative(dm, at_dofs, xs)
    want, dwant = f(xs), df(xs)
    if kind == "reduced":
        x1, xm = mesh.nodes[1], mesh.nodes[-2]
        first, last = owner == 0, owner == mesh.n_elements - 1
        want[first], dwant[first] = f(x1) * xs[first] / x1, f(x1) / x1
        want[last] = f(xm) * (2.0 - xs[last]) / (2.0 - xm)
        dwant[last] = -f(xm) / (2.0 - xm)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ders, dwant, rtol=0, atol=1e-11)

    # one point outside [a, b], or NaN, anywhere in the array is refused
    for bad in (np.nextafter(2.0, 3.0), -1e-300, np.nan):
        xb = np.insert(xs, 7, bad)
        with pytest.raises(ValueError, match="outside domain"):
            eval_fem_function(dm, coeffs, xb)
        with pytest.raises(ValueError, match="outside domain"):
            eval_fem_derivative(dm, coeffs, xb)


def test_eval_rejects_wrong_length():
    mesh = build_geometric_mesh((-1, 1), 0.5, 1)
    dm = build_dof_map(mesh, DegreeRule.uniform(2))
    with pytest.raises(ValueError):
        eval_fem_function(dm, np.zeros(dm.n_dofs + 1), 0.0)
