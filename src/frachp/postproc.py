"""Benchmark solution, energy-norm error, and the convergence-study driver.

One timed loop serves every study point: for each level L it sets the
level up once (mesh, dof map, f = 1 load, assembly plan), then for each s
runs the stiffness pass and solve and records the point.
convergence_study runs it over L = 1..L_max, solve_record at one L and
one s.  Writing the records as CSV is the command line's job.

The benchmark is the homogeneous Dirichlet problem on (-1, 1) with f = 1,
whose solution is u(x) = c_s (1 - x^2)^s with
c_s = 2^(-2s) sqrt(pi) / (Gamma(s+1/2) Gamma(1+s)).  Its energy
a(u, u) = <1, u> is available in closed form, so the energy-norm error of a
Galerkin approximation follows from the identity

    a(u - u_N, u - u_N) = a(u, u) - a(u_N, u_N)

without ever evaluating fractional Sobolev norms directly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .assembly import _pass, _plan, assemble_load
from .basis import DegreeRule, build_dof_map
from .geomesh import build_geometric_mesh
from .linsolve import cholesky_solve
from .quadrature import _check_s

__all__ = ["ConvergenceRecord", "EnergyGapError", "exact_solution",
           "exact_energy", "energy_error", "solve_problem", "solve_record",
           "convergence_study"]


def solution_constant(s):
    """c_s = 2^(-2s) sqrt(pi) / (Gamma(s+1/2) Gamma(1+s))."""
    _check_s(s)
    return (2.0 ** (-2.0 * s) * math.sqrt(math.pi)
            / (math.gamma(s + 0.5) * math.gamma(1.0 + s)))


def exact_solution(s):
    """The benchmark solution on [-1, 1] for f = 1, as a callable.

    u(x) = c_s (1 - x^2)^s, zero at x = +-1.
    """
    c = solution_constant(s)

    def u(x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1.0):
            raise ValueError("benchmark solution is defined on [-1, 1]")
        return (c * (1.0 - x * x) ** s)[()]

    return u


def exact_energy(s):
    """a(u, u) = int u = 2^(-2s) pi / (Gamma(s+1/2) Gamma(s+3/2))."""
    _check_s(s)
    return (2.0 ** (-2.0 * s) * math.pi
            / (math.gamma(s + 0.5) * math.gamma(s + 1.5)))


class EnergyGapError(RuntimeError):
    """The discrete energy exceeds the exact energy beyond roundoff."""


def energy_error(system, sol, s):
    """sqrt(a(u,u) - a(u_N,u_N)) for the f = 1 benchmark on (-1, 1).

    The Galerkin solution cannot carry more energy than u, so the signed
    gap a(u,u) - a(u_N,u_N) is nonnegative up to roundoff, ~N eps a(u,u)
    with N = system.n; within that margin a negative gap reads as a zero
    error.  A gap below -N eps a(u,u) is a quadrature or assembly defect
    and raises EnergyGapError.  An s other than system.s raises ValueError:
    the gap would be taken against the exact energy of another problem.
    """
    if float(s) != system.s:
        raise ValueError(f"s = {s} differs from the s = {system.s} the "
                         "system was assembled at")
    exact = exact_energy(s)
    gap = exact - sol.energy
    if gap < -system.n * np.finfo(float).eps * exact:
        raise EnergyGapError(
            f"discrete energy {sol.energy!r} exceeds the exact energy "
            f"{exact!r} by {-gap:.3e}, beyond the roundoff of N = "
            f"{system.n} dofs")
    return math.sqrt(max(gap, 0.0))


@dataclass(frozen=True)
class ConvergenceRecord:
    """One study point: configuration, problem size, and energy error."""

    s: float
    sigma: float
    L: int
    degree_rule: DegreeRule
    N: int
    energy_error: float
    discrete_energy: float
    wall_seconds: float


def _level(sigma, L, rule):
    """The set-up of one level, shared by every s: its dof map, the f = 1
    load, which the first stiffness pass marks read-only, and the assembly
    plan."""
    dofmap = build_dof_map(build_geometric_mesh((-1.0, 1.0), sigma, L), rule)
    return dofmap, assemble_load(np.ones_like, dofmap), _plan(dofmap)


def _solve(plan, load, s):
    """The system at s on a level's plan and load, and its solution."""
    system = _pass(plan, s, load)
    return system, cholesky_solve(system)


def solve_problem(s, sigma, L, rule):
    """Assemble and solve the f = 1 benchmark on (-1, 1).

    Returns (mesh, dofmap, system, solution); the system's stiffness and
    load are read-only.
    """
    dofmap, load, plan = _level(sigma, L, rule)
    return (dofmap.mesh, dofmap) + _solve(plan, load, s)


@contextmanager
def _naming(s, L):
    """Raise a failure of the enclosed solve, an EnergyGapError included,
    as a RuntimeError naming (s, L)."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"solve failed at s={s}, L={L}: {exc}") from exc


def _sweep(s_list, sigma, levels, rule_kind):
    """The timed study loop that solve_record and convergence_study share.

    Checks every s first.  For each L of levels it sets the level up once
    (mesh, dof map, f = 1 load, assembly plan) and, for each s, runs the
    stiffness pass and solve and records the point with p = L; wall_seconds
    is the level's set-up plus the point's own pass and solve, without the
    error evaluation.  A failure is raised as a RuntimeError naming (s, L),
    one of the set-up naming the first s.  Returns the records, one list per
    s, and the last system; each system is freed before the next is built.
    """
    s_list = [_check_s(s) for s in s_list]
    rows, system = [[] for _ in s_list], None
    for L in levels if s_list else ():
        rule = DegreeRule(rule_kind, L)
        start = time.perf_counter()
        with _naming(s_list[0], L):
            _, load, plan = _level(sigma, L, rule)
        setup = time.perf_counter() - start
        for s, row in zip(s_list, rows):
            system = sol = None  # free this matrix before the next is built
            start = time.perf_counter()
            with _naming(s, L):
                system, sol = _solve(plan, load, s)
                wall = setup + time.perf_counter() - start
                row.append(ConvergenceRecord(
                    s=s, sigma=float(sigma), L=L, degree_rule=rule,
                    N=system.n, energy_error=energy_error(system, sol, s),
                    discrete_energy=sol.energy, wall_seconds=wall))
    return rows, system


def solve_record(s, sigma, L, rule_kind):
    """One study point: solve with p = L and time the solve.

    Returns (record, system).  A failure of the solve, an EnergyGapError
    included, is raised as a RuntimeError naming (s, L).
    """
    rows, system = _sweep([s], sigma, [L], rule_kind)
    return rows[0][0], system


def convergence_study(s_list, sigma, L_max, rule_kind):
    """Run the L = 1..L_max sweep with p = L for each fractional order.

    rule_kind is 'uniform' (degree L everywhere) or 'reduced' (degree 1 on
    the two boundary elements).  Each L builds its mesh, dof map, f = 1
    load and assembly plan once, for every s; a record's wall_seconds is
    that shared set-up plus its own stiffness pass and solve.  Records are
    emitted in (s, L) lexicographic order, each equal to solve_record's but
    for wall_seconds.  A failure is raised as a RuntimeError naming (s, L)
    at the lowest failing L; one of the shared set-up names the first s.
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1, got {L_max}")
    rows, _ = _sweep(s_list, sigma, range(1, L_max + 1), rule_kind)
    return [record for row in rows for record in row]
