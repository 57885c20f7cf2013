"""Independent brute-force oracles for the singular integrals in the tests.

The double-integral oracle evaluates the inner z-integral in closed form
(polynomial shift plus power-function antiderivatives) and the outer
x-integral with QUADPACK adaptive quadrature; the complement-term oracle is
fully adaptive.  Nothing here shares an evaluation path with the package's
product quadrature schemes.  Small helpers shared by several test files
close the module: the complement weight kappa in closed form, a degree rule
with no two neighbouring elements of one degree, the dof permutation of the
reflection x -> a + b - x, two evaluators on the package's own nodes and
shapes: the Gauss-Lobatto interpolant on one interval and the derivative
of a FEM function, and the mass and stiffness matrices of -u'' on a dof
map, the limits of the fractional stiffness matrix as s -> 0 and s -> 1.
"""

import numpy as np
from numpy.polynomial import Polynomial as Poly
from scipy import integrate

from frachp import kernel_constant
from frachp.basis import (_diff_matrix, _eval, _shape_matrix,
                          gauss_lobatto_nodes)
from frachp.quadrature import _check_s


def lagrange_polys(p, interval):
    """The p+1 Lagrange cardinal polynomials on the mapped Gauss-Lobatto
    nodes, built from explicit root products (independent of the package's
    barycentric evaluation)."""
    a, b = interval
    t = gauss_lobatto_nodes(p)
    xn = a + 0.5 * (b - a) * (t + 1.0)
    polys = []
    for k in range(p + 1):
        pk = Poly([1.0])
        for j in range(p + 1):
            if j != k:
                pk = pk * Poly([-xn[j], 1.0]) / (xn[k] - xn[j])
        polys.append(pk)
    return polys


def poly_abs_power_integral(numer, x, c, d, mu):
    """Exact integral over z in (c, d) of numer(z) * |z - x|^mu.

    numer is a numpy Polynomial; mu may be negative.  For x inside (c, d)
    any non-integrable monomial must carry an exactly-zero coefficient
    (roundoff residue below 1e-10 of the coefficient scale is dropped).
    """
    shifted = numer(Poly([x, 1.0]))  # coefficients in delta = z - x
    coef = np.atleast_1d(shifted.coef)
    scale = np.max(np.abs(coef))

    def anti(m, e):
        q = m + mu + 1.0
        if abs(q) < 1e-12:
            return np.log(e)
        return e ** q / q

    total = 0.0
    if x <= c:
        for m, a_m in enumerate(coef):
            if a_m != 0.0:
                total += a_m * (anti(m, d - x) - anti(m, c - x))
    elif x >= d:
        for m, a_m in enumerate(coef):
            if a_m != 0.0:
                total += a_m * (-1.0) ** m * (anti(m, x - c) - anti(m, x - d))
    else:
        for m, a_m in enumerate(coef):
            if a_m == 0.0:
                continue
            if m + mu + 1.0 <= 1e-12:
                if abs(a_m) > 1e-10 * scale:
                    raise ValueError(
                        f"non-integrable term delta^{m + mu} with coefficient "
                        f"{a_m} inside the integration interval")
                continue
            total += a_m * ((-1.0) ** m * anti(m, x - c) + anti(m, d - x))
    return total


def kernel_pair_integral(numer_for_x, T1, T2, mu, epsabs=1e-12):
    """iint over T1 x T2 of numer(x; z) |x - z|^mu, adaptive in x, exact in z.

    numer_for_x(x) must return the z-polynomial of the numerator for fixed x.
    """
    def integrand(x):
        return poly_abs_power_integral(numer_for_x(x), x, T2[0], T2[1], mu)

    val = integrate.quad(integrand, T1[0], T1[1], epsabs=epsabs,
                         epsrel=1e-10, limit=400, full_output=1)[0]
    return val


def oracle_weighted_pair_integral(coef_xz, T1, T2, s, epsabs=1e-12):
    """iint q(x, z) |x - z|^(1 - 2s) for a bivariate coefficient array
    q = sum coef_xz[a, b] x^a z^b -- the reference for the per-pair
    quadrature in pair_reference.py."""
    coef_xz = np.asarray(coef_xz, dtype=float)

    def numer_for_x(x):
        xs = x ** np.arange(coef_xz.shape[0])
        return Poly(xs @ coef_xz)

    return kernel_pair_integral(numer_for_x, T1, T2, 1.0 - 2.0 * s, epsabs)


def _pair_basis_polys(mesh, dofmap, i, j):
    """global dof -> (polynomial on T_i, polynomial on T_j) for the pair."""
    zero = Poly([0.0])
    p1, p2 = int(dofmap.degrees[i - 1]), int(dofmap.degrees[j - 1])
    polys1 = lagrange_polys(p1, mesh.nodes[i - 1:i + 1])
    polys2 = lagrange_polys(p2, mesh.nodes[j - 1:j + 1])
    funcs = {}
    for k, g in enumerate(dofmap.table[i - 1, :p1 + 1]):
        if g >= 0:
            funcs[int(g)] = [polys1[k], zero]
    for k, g in enumerate(dofmap.table[j - 1, :p2 + 1]):
        if g >= 0:
            funcs.setdefault(int(g), [zero, zero])[1] = polys2[k]
    return funcs


def oracle_stiffness(mesh, dofmap, s, epsabs=1e-12):
    """Brute-force stiffness matrix: for every ordered element pair, the
    double integral of the weak-form numerator against |x-z|^(-1-2s), plus
    the fully adaptive complement term."""
    N = dofmap.n_dofs
    A = np.zeros((N, N))
    mu = -1.0 - 2.0 * s
    ne = mesh.n_elements
    for i in range(1, ne + 1):
        for j in range(i, ne + 1):
            funcs = _pair_basis_polys(mesh, dofmap, i, j)
            gs = sorted(funcs)
            T1, T2 = mesh.nodes[i - 1:i + 1], mesh.nodes[j - 1:j + 1]
            for ki_idx, gk in enumerate(gs):
                pk1, pk2 = funcs[gk]
                for gl in gs[ki_idx:]:
                    pl1, pl2 = funcs[gl]
                    val = kernel_pair_integral(
                        lambda x: (Poly([pk1(x)]) - pk2) * (Poly([pl1(x)]) - pl2),
                        T1, T2, mu, epsabs)
                    if i != j:
                        val *= 2.0  # mirrored ordered pair (j, i)
                    A[gk, gl] += val
                    if gk != gl:
                        A[gl, gk] += val
    C = kernel_constant(s)
    A *= 0.5 * C
    a, b = mesh.a, mesh.b
    two_s = 2.0 * s
    for e in range(ne):
        lo, hi = mesh.nodes[e:e + 2]
        p = int(dofmap.degrees[e])
        polys = lagrange_polys(p, (lo, hi))
        g = dofmap.table[e, :p + 1]
        keep = [k for k in range(len(g)) if g[k] >= 0]
        for a_idx, k in enumerate(keep):
            for l in keep[a_idx:]:
                prod = polys[k] * polys[l]
                # the product vanishes to second order at a domain endpoint,
                # so the full integrand is integrable; QAGS handles the
                # remaining algebraic endpoint behavior by extrapolation
                val = integrate.quad(
                    lambda x: prod(x) * ((x - a) ** -two_s + (b - x) ** -two_s)
                    / two_s,
                    lo, hi, epsabs=epsabs, epsrel=1e-10, limit=400,
                    full_output=1)[0]
                A[g[k], g[l]] += C * val
                if g[k] != g[l]:
                    A[g[l], g[k]] += C * val
    return A


def complement_weight(domain, s, x):
    """kappa(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s) for interior x."""
    _check_s(s)
    a, b = float(domain[0]), float(domain[1])
    x = np.asarray(x, dtype=float)
    if np.any(x <= a) or np.any(x >= b):
        raise ValueError("complement weight diverges on the boundary; "
                         "points must be strictly interior")
    val = ((x - a) ** (-2.0 * s) + (b - x) ** (-2.0 * s)) / (2.0 * s)
    return val[()]


class MixedDegrees:
    """Degrees 1, 2, ..., 4, 1, 2, ... left to right: a map on which
    neighbouring elements never share a degree."""

    def degrees(self, mesh):
        return 1 + np.arange(mesh.n_elements) % 4


def reflection_permutation(dofmap):
    """perm with perm[g] the dof that the reflection x -> a + b - x maps dof
    g to: local k of element e goes to local p_e - k of element E-1-e, the
    vertices included.  Needs a degree vector symmetric under reflection."""
    E = len(dofmap.degrees)
    perm = np.full(dofmap.n_dofs, -1)
    for e in range(E):
        p = int(dofmap.degrees[e])
        assert p == dofmap.degrees[E - 1 - e]
        src = dofmap.table[e, :p + 1]
        dst = dofmap.table[E - 1 - e, p::-1]
        perm[src[src >= 0]] = dst[src >= 0]
    assert sorted(perm) == list(range(dofmap.n_dofs))
    return perm


def gauss_lobatto_interpolant(v, element, p):
    """Degree-p interpolant of v at the mapped Gauss-Lobatto nodes, as a
    callable on arrays (a scalar gives a scalar); v is called once per
    node."""
    lo, hi = float(element[0]), float(element[1])
    x = lo + 0.5 * (hi - lo) * (gauss_lobatto_nodes(p) + 1.0)
    values = np.array([float(v(xi)) for xi in x])

    def interpolant(xs):
        xs = np.asarray(xs, dtype=float)
        t = ((xs - lo) / (hi - lo)).ravel()
        return (values @ _shape_matrix(p, t)).reshape(xs.shape)[()]

    return interpolant


def eval_fem_derivative(dofmap, coeffs, x):
    """Derivative of the FEM function at x (one-sided at mesh nodes, from
    the element on the right)."""
    return _eval(dofmap, coeffs, x, derivative=True)


def mass_and_laplacian_stiffness(dofmap):
    """(M, K) with M[k, l] = int phi_k phi_l and K[k, l] = int phi_k' phi_l',
    the Galerkin matrices of the identity and of -u'' on dofmap.  C(s)
    normalises the fractional Laplacian so that it tends to the identity
    as s -> 0 and to -u'' as s -> 1 (Di Nezza, Palatucci & Valdinoci,
    Bull. Sci. Math. 136, 2012, section 4), and so does the stiffness
    matrix, at first order in the distance to the limit.  Element by
    element on numpy's (p + 1)-point Gauss-Legendre rule, exact for both
    products; the shape derivatives are D^T S, the nodal derivatives."""
    N = dofmap.n_dofs
    # row and column N, reached by the index -1, take the constrained dofs
    M, K = np.zeros((N + 1, N + 1)), np.zeros((N + 1, N + 1))
    for e, (h, p) in enumerate(zip(dofmap.h, dofmap.degrees.tolist())):
        x, w = np.polynomial.legendre.leggauss(p + 1)
        t, w = 0.5 * (x + 1.0), 0.5 * w
        S = _shape_matrix(p, t)
        dS = _diff_matrix(p).T @ S
        g = np.ix_(dofmap.table[e, :p + 1], dofmap.table[e, :p + 1])
        M[g] += h * (S * w) @ S.T
        K[g] += (dS * w) @ dS.T / h
    return M[:N, :N], K[:N, :N]
