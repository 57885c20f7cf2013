import importlib
import math
import pkgutil

import numpy as np
import pytest

import frachp
import frachp.quadrature as quadrature_mod
from frachp import convergence_study, interpolation_error_study
from frachp.quadrature import (_EIGH_MAX, _golub_welsch, _jacobi01,
                               _jacobi_newton, _rule01)
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


# (exp0, exp1) of the weight t^exp0 (1-t)^exp1 as the package uses them:
# identical pairs (1-2s, 1), adjacent pairs and the left boundary block of
# the complement (2-2s, 0), the right one (0, 2-2s), and the one-sided
# weights of `approx` (e, 0)
_S = (0.02, 0.3, 0.5, 0.7, 0.98)
RULE_EXPONENTS = ([(1.0 - 2.0 * s, 1.0) for s in _S]
                  + [(2.0 - 2.0 * s, 0.0) for s in _S]
                  + [(0.0, 2.0 - 2.0 * s) for s in _S]
                  + [(e, 0.0) for e in (-0.98, -0.9, -0.5, 0.5, 0.9, 0.98)])
RULE_IDS = [f"{e0:.2f},{e1:.2f}" for e0, e1 in RULE_EXPONENTS]


@pytest.mark.parametrize("exp0, exp1", RULE_EXPONENTS, ids=RULE_IDS)
def test_gauss_jacobi_moments(exp0, exp1):
    # an n-point Gauss rule integrates t^k, k <= 2n - 1, exactly; the moments
    # B(k + exp0 + 1, exp1 + 1) follow from B(exp0 + 1, exp1 + 1) by the
    # ratio (k + exp0) / (k + exp0 + exp1 + 1), which keeps them to ~k ulp
    for n in list(range(1, _EIGH_MAX + 1)) + [128, 256, 1024]:
        t, w = _jacobi01(n, exp0, exp1)
        assert t[0] > 0.0 and t[-1] < 1.0 and np.all(np.diff(t) > 0.0)
        assert np.all(w > 0.0)
        moment = beta(exp0 + 1.0, exp1 + 1.0)
        tk = np.ones(n)
        worst = 0.0
        for k in range(2 * n):
            worst = max(worst, abs(w @ tk / moment - 1.0))
            tk *= t
            moment *= (k + 1.0 + exp0) / (k + 2.0 + exp0 + exp1)
        # scipy's roots_jacobi misses the n = 1024 moments by up to 1.8e-5
        assert worst <= (1e-12 if n <= _EIGH_MAX else 1e-10), n


@pytest.mark.parametrize("n", [_EIGH_MAX, _EIGH_MAX + 1])
@pytest.mark.parametrize("exp0, exp1", RULE_EXPONENTS[::3], ids=RULE_IDS[::3])
def test_gauss_jacobi_regimes_agree(n, exp0, exp1):
    # the eigenvector rule and the Newton rule meet at the size switch
    t_eig, w_eig = _golub_welsch(n, exp0, exp1)
    t_newton, w_newton = _jacobi_newton(n, exp0, exp1)
    np.testing.assert_allclose(t_newton, t_eig, rtol=0, atol=2e-15)
    np.testing.assert_allclose(w_newton, w_eig, rtol=1e-12)


def _mp_golub_welsch(n, exp0, exp1, mp):
    """Golub-Welsch in mpmath: eigen-decomposition of the symmetric Jacobi
    matrix of (1-x)^exp1 (1+x)^exp0 on (-1, 1), mapped to t = (x + 1) / 2."""
    al, be = mp.mpf(exp1), mp.mpf(exp0)
    J = mp.zeros(n, n)
    for k in range(n):
        s2 = 2 * k + al + be
        if k == 0:
            J[0, 0] = (be - al) / (al + be + 2)
        else:
            J[k, k] = (be * be - al * al) / (s2 * (s2 + 2))
            b2 = (4 * k * (k + al) * (k + be) * (k + al + be)
                  / (s2 * s2 * (s2 + 1) * (s2 - 1)))
            J[k, k - 1] = J[k - 1, k] = mp.sqrt(b2)
    if n > 1:  # k = 1 with the factor (1 + al + be) cancelled
        J[1, 0] = J[0, 1] = mp.sqrt(4 * (1 + al) * (1 + be)
                                    / ((2 + al + be) ** 2 * (3 + al + be)))
    x, V = mp.eigsy(J)
    mass = mp.beta(be + 1, al + 1)
    order = sorted(range(n), key=lambda i: x[i])
    return (np.array([float((x[i] + 1) / 2) for i in order]),
            np.array([float(mass * V[0, i] ** 2) for i in order]))


@pytest.mark.parametrize("n, exp0, exp1", [(12, -0.96, 1.0), (40, -0.96, 1.0),
                                           (40, -0.9, 0.0)])
def test_gauss_jacobi_weights_against_mpmath(n, exp0, exp1):
    # scipy's roots_jacobi is 3.4e-11 and 6.8e-12 off on the two n = 40 cases
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        t_ref, w_ref = _mp_golub_welsch(n, exp0, exp1, mp)
    t, w = _jacobi01(n, exp0, exp1)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12)


def test_jacobi_rule_cache_is_bounded():
    # the singular schemes' exponents move with s: a sweep over many s
    # evicts old rules instead of growing the cache
    maxsize = _jacobi01.cache_info().maxsize
    for s in np.linspace(0.01, 0.99, 2 * maxsize + 1):
        t, w = _jacobi01(4, 1.0 - 2.0 * s, 1.0)
        assert not t.flags.writeable and not w.flags.writeable
    assert _jacobi01.cache_info().currsize <= maxsize


# every table cache of the package, with sample arguments
CACHED_TABLES = {
    "quadrature._rule01": (5,),
    "quadrature._jacobi01": (5, -0.4, 1.0),
    "basis.gauss_lobatto_nodes": (4,),
    "basis._bary_weights": (4,),
    "basis._lobatto_nodes01": (4,),
    "basis._diff_matrix": (4,),
    "basis._gauss_shapes": (3, 9),
    "assembly._triu": (6, 2),
}


def package_caches():
    """Every function of a frachp module that has cache_info, by the module
    and name it is defined under."""
    caches = set()
    for info in pkgutil.iter_modules(frachp.__path__):
        module = importlib.import_module(f"frachp.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                caches.add(f"{value.__module__}.{value.__qualname__}"
                           .removeprefix("frachp."))
    return caches


@pytest.mark.parametrize("name", sorted(CACHED_TABLES))
def test_cached_tables_are_read_only(name):
    # the tables are shared by every element, pair and s: a write to one
    # would change every later result; a cache added without a case here
    # fails the set comparison
    assert package_caches() == set(CACHED_TABLES)
    module, function = name.split(".")
    tables = getattr(importlib.import_module(f"frachp.{module}"),
                     function)(*CACHED_TABLES[name])
    for table in tables if isinstance(tables, tuple) else (tables,):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]


def test_paper_working_set_fits_in_the_rule_cache(monkeypatch):
    # a second round of the paper's studies computes no Gauss-Jacobi rule,
    # the 128- to 1024-point Newton rules of the weighted integrals included
    _jacobi01.cache_clear()
    calls = []

    def counting(rule):
        def wrapped(n, exp0, exp1):
            calls.append((n, exp0, exp1))
            return rule(n, exp0, exp1)
        return wrapped

    for name in ("_golub_welsch", "_jacobi_newton"):
        monkeypatch.setattr(quadrature_mod, name,
                            counting(getattr(quadrature_mod, name)))
    for round_ in range(2):
        for kind in ("uniform", "reduced"):
            convergence_study([0.3, 0.5, 0.7], 0.6, 10, kind)
        for s in (0.3, 0.5, 0.7):
            interpolation_error_study(s, 0.6, 10)
        if round_ == 0:
            first = len(calls)
            assert any(n > _EIGH_MAX for n, _, _ in calls)
    assert first > 0 and len(calls) == first


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
