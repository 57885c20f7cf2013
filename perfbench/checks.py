"""Correctness checks on frachp's outputs, independent of the package.

The exact energy of the f = 1 benchmark on (-1, 1) is computed here rather
than taken from ``frachp.postproc``, and the residual of every solve is
recomputed from the assembled system.  Tolerances are of roundoff size:

* the signed energy gap a(u,u) - a(u_N,u_N) may be negative by at most
  N * eps * a(u,u);
* a stored seed value is matched when the squared energy errors differ by at
  most ENERGY_ROUNDOFF * N * eps * a(u,u).  Reordering the quadrature points
  of every element pair moves a(u_N,u_N) by up to 1.1 N eps a(u,u), so a
  factor of 8 leaves room for a different summation order and nothing more;
* weighted interpolation errors sum a few thousand quadrature terms, so
  they are matched to WEIGHTED_RTOL (about 450 eps) relative;
* a solve's relative residual ||b - A c|| / ||b|| must not exceed 1e-10.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

EPS = float(np.finfo(float).eps)
ENERGY_ROUNDOFF = 8.0
WEIGHTED_RTOL = 1e-13
RESIDUAL_MAX = 1e-10
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def exact_energy(s):
    """a(u, u) = 2^(-2s) pi / (Gamma(s+1/2) Gamma(s+3/2))."""
    return (2.0 ** (-2.0 * s) * math.pi
            / (math.gamma(s + 0.5) * math.gamma(s + 1.5)))


def energy_key(rule, s, sigma, L):
    return f"{rule}:{s!r}:{sigma!r}:{L}"


def weighted_key(s, sigma, L):
    return f"{s!r}:{sigma!r}:{L}"


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def residual_problem(solves, s, n):
    """Problem with the recorded solve of order n at this s, or None."""
    rel = solves.get((s, n))
    if rel is None:
        return f"no solve of order {n} recorded for s={s}"
    if not rel <= RESIDUAL_MAX:
        return f"relative residual {rel:.3e} > {RESIDUAL_MAX:g}"
    return None


def gap_problem(s, n, discrete_energy):
    """Problem with the sign of a(u,u) - a(u_N,u_N), or None."""
    exact = exact_energy(s)
    gap = exact - discrete_energy
    if not gap >= -n * EPS * exact:
        return f"energy gap {gap:.3e} is negative beyond roundoff"
    return None


def energy_row_problems(row, solves, reference):
    """Problems with one convergence/solve CSV row (a dict of strings)."""
    s, sigma = float(row["s"]), float(row["sigma"])
    L, n = int(row["L"]), int(row["N"])
    err, disc = float(row["energy_error"]), float(row["discrete_energy"])
    problems = [gap_problem(s, n, disc), residual_problem(solves, s, n)]
    ref = reference["energy"].get(energy_key(row["rule"], s, sigma, L))
    if ref is None:
        problems.append("no reference value")
    elif ref["N"] != n:
        problems.append(f"N={n}, reference N={ref['N']}")
    else:
        tol = ENERGY_ROUNDOFF * n * EPS * exact_energy(s)
        if not abs(err * err - ref["energy_error"] ** 2) <= tol:
            problems.append(f"energy error {err!r} differs from reference "
                            f"{ref['energy_error']!r}")
    return [p for p in problems if p]


def weighted_row_problems(row, reference):
    """Problems with one interp-study CSV row (a dict of strings)."""
    s, sigma, L = float(row["s"]), float(row["sigma"]), int(row["L"])
    err = float(row["weighted_error"])
    ref = reference["weighted"].get(weighted_key(s, sigma, L))
    if ref is None:
        return ["no reference value"]
    if not abs(err - ref) <= WEIGHTED_RTOL * ref:
        return [f"weighted error {err!r} differs from reference {ref!r}"]
    return []


def a_priori_bound(sigma, L):
    """Reference decay 2 sigma^(L/2) / L of the uniform p = L study; at
    sigma = 0.6, L = 14 the errors over s in [0.02, 0.98] stay below 70% of
    it."""
    return 2.0 * sigma ** (L / 2.0) / L


def library_solve_problems(s, sigma, L, n, discrete_energy, energy_error,
                           solves):
    """Problems with one library solve of the s sweep."""
    problems = [gap_problem(s, n, discrete_energy),
                residual_problem(solves, s, n)]
    exact = exact_energy(s)
    gap = exact - discrete_energy
    if not abs(energy_error ** 2 - max(gap, 0.0)) <= (
            ENERGY_ROUNDOFF * n * EPS * exact):
        problems.append(f"reported energy error {energy_error!r} does not "
                        f"match the gap {gap!r}")
    bound = a_priori_bound(sigma, L)
    if not math.sqrt(max(gap, 0.0)) <= bound:
        problems.append(f"energy error {math.sqrt(max(gap, 0.0)):.3e} above "
                        f"the a-priori bound {bound:.3e}")
    return [p for p in problems if p]
