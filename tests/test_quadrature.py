import math

import numpy as np
import pytest

from frachp.quadrature import _jacobi01, _rule01
from oracles import oracle_weighted_pair_integral
from pair_reference import pair_quadrature


def beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def test_gauss_legendre_small():
    t, w = _rule01(1)
    np.testing.assert_allclose(t, [0.5], rtol=1e-15)
    np.testing.assert_allclose(w, [1.0], rtol=1e-15)
    t, w = _rule01(2)
    r = 0.5 / np.sqrt(3)
    np.testing.assert_allclose(t, [0.5 - r, 0.5 + r], rtol=1e-15)
    np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-15)


def test_gauss_legendre_degree_exactness():
    t, w = _rule01(3)  # exact through degree 5
    assert np.sum(w * t ** 4) == pytest.approx(0.2, abs=1e-15)
    assert np.sum(w * t ** 5) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_gauss_jacobi_reduces_to_legendre():
    t, w = _jacobi01(1, 0.0, 0.0)
    np.testing.assert_allclose(t, [0.5], rtol=1e-15)
    np.testing.assert_allclose(w, [1.0], rtol=1e-15)


def test_gauss_jacobi_one_point_moments():
    t, w = _jacobi01(1, 0.0, 1.0)  # weight (1 - t)
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    assert t[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("alpha,beta_exp", [(-0.4, 0.0), (0.0, -0.4),
                                            (1.0, -0.5), (0.3, 0.7)])
def test_gauss_jacobi_weight_sums(alpha, beta_exp):
    for n in (1, 4, 9):
        t, w = _jacobi01(n, beta_exp, alpha)  # weight t^beta (1-t)^alpha
        assert np.all(w > 0) and np.all((t > 0) & (t < 1))
        expect = beta(alpha + 1, beta_exp + 1)
        assert w.sum() == pytest.approx(expect, rel=1e-12)


def test_gauss_jacobi_rejects_bad_exponents():
    with pytest.raises(ValueError):
        _jacobi01(4, 0.0, -1.0)
    with pytest.raises(ValueError):
        _jacobi01(4, -1.5, 0.0)
    with pytest.raises(ValueError):
        _jacobi01(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        _rule01(0)


def test_identical_constant_s_half():
    # s = 1/2 makes the kernel weight |x-z|^0: the scheme integrates 1 to 1
    x, z, w = pair_quadrature(0.5, 8, ((0.0, 1.0), (0.0, 1.0)))
    assert w.sum() == pytest.approx(1.0, rel=1e-13)


def test_identical_constant_s_quarter_closed_form():
    # iint |x-z|^(1/2) over the unit square = 8/15
    x, z, w = pair_quadrature(0.25, 8, ((0.0, 1.0), (0.0, 1.0)))
    assert w.sum() == pytest.approx(8.0 / 15.0, rel=1e-13)


def test_disjoint_inverse_square_closed_form():
    # with s = 1/2 the absorbed kernel is 1; applying the rule to |x-z|^-2
    # over (0,1) x (2,3) gives ln(4/3) exactly in the limit
    x, z, w = pair_quadrature(0.5, 12, ((0.0, 1.0), (2.0, 3.0)))
    val = np.sum(w * np.abs(x - z) ** -2.0)
    assert val == pytest.approx(math.log(4.0 / 3.0), abs=1e-10)


PAIR_CASES = [
    ((0.3, 1.1), (0.3, 1.1)),  # identical
    ((0.0, 0.4), (0.4, 1.0)),  # adjacent, shared vertex right of T1
    ((0.0, 0.006), (0.006, 0.016)),
    ((0.4, 1.0), (0.0, 0.4)),  # adjacent, shared vertex left of T1
    ((0.0, 1.0), (1.24, 2.2)),  # disjoint, near-singular
    ((0.0, 1.0), (3.0, 4.0)),  # disjoint
]
PAIR_IDS = [f"pair{i}-elements{i}" for i in range(len(PAIR_CASES))]


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("elements", PAIR_CASES, ids=PAIR_IDS)
def test_pair_exactness_against_oracle(s, elements):
    # random bivariate polynomials of total degree <= 2n-3 integrate to
    # <= 1e-10 relative against the independent adaptive oracle
    n = 8
    rng = np.random.default_rng(12345)
    x, z, w = pair_quadrature(s, n, elements)
    assert np.all(w > 0)
    for _ in range(2):
        deg = 2 * n - 3
        coef = np.zeros((deg + 1, deg + 1))
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                coef[a, b] = rng.standard_normal()
        val = float(np.sum(w * np.polynomial.polynomial.polyval2d(x, z, coef)))
        ref = oracle_weighted_pair_integral(coef, elements[0], elements[1], s)
        assert val == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_refinement_convergence(s):
    # doubling n changes a fixed smooth integrand by < 1e-12 once n >= n0(s);
    # thresholds recorded from the study geometry (see also n0 table below)
    n0 = {0.3: 8, 0.5: 6, 0.7: 9}[s]
    g = lambda x, z: np.exp(x - 0.5 * z)
    cases = [
        ((0.0, 1.0), (0.0, 1.0)),  # identical
        ((0.0, 0.4), (0.4, 1.0)),  # adjacent
        ((0.0, 0.4), (0.6, 1.3)),  # disjoint
    ]
    for elements in cases:
        x, z, w = pair_quadrature(s, n0, elements)
        v1 = float(np.sum(w * g(x, z)))
        x, z, w = pair_quadrature(s, 2 * n0, elements)
        v2 = float(np.sum(w * g(x, z)))
        assert abs(v2 - v1) < 1e-12 * max(1.0, abs(v2))


def test_nodes_inside_elements():
    for elements in PAIR_CASES:
        x, z, w = pair_quadrature(0.4, 6, elements)
        (a1, b1), (a2, b2) = elements
        assert np.all((x > a1) & (x < b1))
        assert np.all((z > a2) & (z < b2))


def test_pair_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_quadrature(1.5, 4, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        pair_quadrature(0.5, 0, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="overlap"):
        pair_quadrature(0.5, 4, ((0, 1), (0.5, 3)))
    with pytest.raises(ValueError, match="overlap"):
        pair_quadrature(0.5, 4, ((0, 2), (0.5, 1)))
