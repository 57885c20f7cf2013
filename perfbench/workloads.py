"""The benchmark's workloads: one pass of each, with its correctness checks.

An operation is one solve or one interpolation-error point.  It fails when it
raises, when the CLI command that carries it exits non-zero, or when a check
in ``checks`` rejects it.

* paper_sweep: the paper's figure set through the CLI -- the uniform and
  reduced convergence studies and the interpolation study for
  s = 0.3, 0.5, 0.7, sigma = 0.6, L = 1..10.  Many small systems (N <= 219),
  so per-pair Python work in assembly/quadrature dominates; the only
  workload that runs ``approx``.
* deep_solve: ``frachp solve`` at s = 0.5, sigma = 0.6, L = 24 (N = 1199,
  an 11.5 MB matrix).  The largest dense system: the only workload where the
  Cholesky factor, refinement and memory matter.
* s_sweep: one mesh (sigma = 0.6, L = 14, uniform, N = 419) solved through
  the library for 21 values of s, one per stratum of [0.02, 0.98], jittered
  from the seed and the pass number.  Mesh, dof map and shape tables are the
  same for every solve; only the kernel exponents change.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import os
import traceback

import numpy as np
from scipy import linalg

import frachp.assembly
import frachp.basis
import frachp.cli
import frachp.geomesh
import frachp.postproc
from frachp.basis import DegreeRule

from . import checks

SIGMA = 0.6
PAPER_S = (0.3, 0.5, 0.7)
S_RANGE = (0.02, 0.98)

# name -> sizes; "tiny" runs the same code paths in well under a second.
SIZES = {
    "full": {"paper_levels": 10, "deep_levels": 24, "sweep_levels": 14,
             "sweep_count": 21},
    "tiny": {"paper_levels": 2, "deep_levels": 3, "sweep_levels": 3,
             "sweep_count": 3},
}


class Context:
    """State shared by the passes of one benchmark run."""

    def __init__(self, out_dir, reference, sizes, tracer):
        self.out_dir = out_dir
        self.reference = reference
        self.sizes = sizes
        self.tracer = tracer
        self.tracing = False
        self.solves = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def span(self, name, **attrs):
        if self.tracing:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext(attrs)

    def solve_hook(self, cholesky_solve):
        """Wrap cholesky_solve to record each solve's relative residual."""
        def checked(system, *args, **kwargs):
            sol = cholesky_solve(system, *args, **kwargs)
            with self.span("bench.check") as attrs:
                A, b = system.stiffness, system.load
                rel = float(np.linalg.norm(b - A @ sol.coeffs)
                            / np.linalg.norm(b))
                attrs["rel_residual"] = rel
            self.solves[(float(system.s), int(A.shape[0]))] = rel
            return sol
        return checked

    def outcome(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")

    def cli(self, argv, name):
        """Run a CLI command writing to out_dir/name; returns its CSV rows,
        or a problem string."""
        out = os.path.join(self.out_dir, name)
        if os.path.exists(out):
            os.remove(out)
        self.solves = {}
        with self.span("cli.run") as attrs:
            try:
                code = frachp.cli.run(argv + ["--out", out])
            except Exception:
                traceback.print_exc()
                code = "an exception"
        if code != 0:
            return f"`frachp {' '.join(argv)}` returned {code}"
        attrs["out_bytes"] = os.path.getsize(out)
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))


def _levels_args(levels):
    return ["--sigma", repr(SIGMA), "--levels", str(levels)]


def _check_rows(ctx, rows, label, keys, check):
    """Count one operation per expected (s, L) row of a CLI command."""
    found = {}
    if not isinstance(rows, str):
        found = {(float(r["s"]), int(r["L"])): r for r in rows}
    for key in keys:
        if isinstance(rows, str):
            problems = [rows]
        elif key not in found:
            problems = ["row missing"]
        else:
            problems = check(found[key])
        ctx.outcome(f"{label} s={key[0]} L={key[1]}", problems)


def _energy_check(ctx):
    return lambda row: checks.energy_row_problems(row, ctx.solves,
                                                  ctx.reference)


def paper_sweep(ctx, pass_index, seed):
    levels = ctx.sizes["paper_levels"]
    s_arg = ",".join(repr(s) for s in PAPER_S)
    keys = [(s, L) for s in PAPER_S for L in range(1, levels + 1)]
    for rule in ("uniform", "reduced"):
        argv = (["convergence", "--s", s_arg] + _levels_args(levels)
                + ["--rule", rule])
        rows = ctx.cli(argv, f"convergence_{rule}.csv")
        _check_rows(ctx, rows, rule, keys, _energy_check(ctx))
    rows = ctx.cli(["interp-study", "--s", s_arg] + _levels_args(levels),
                   "interp.csv")
    _check_rows(ctx, rows, "interp", keys,
                lambda row: checks.weighted_row_problems(row, ctx.reference))


def deep_solve(ctx, pass_index, seed):
    levels = ctx.sizes["deep_levels"]
    argv = (["solve", "--s", "0.5"] + _levels_args(levels)
            + ["--rule", "uniform"])
    rows = ctx.cli(argv, "solve.csv")
    _check_rows(ctx, rows, "solve", [(0.5, levels)], _energy_check(ctx))


def sweep_values(seed, pass_index, count):
    """One s per stratum of S_RANGE, jittered by (seed, pass_index)."""
    rng = np.random.default_rng([seed, pass_index])
    lo, hi = S_RANGE
    width = (hi - lo) / count
    return [lo + (k + u) * width for k, u in enumerate(rng.random(count))]


def s_sweep(ctx, pass_index, seed):
    L = ctx.sizes["sweep_levels"]
    for s in sweep_values(seed, pass_index, ctx.sizes["sweep_count"]):
        ctx.solves = {}
        try:
            _, dofmap, system, sol = frachp.postproc.solve_problem(
                s, SIGMA, L, DegreeRule.uniform(L))
            err = frachp.postproc.energy_error(system, sol, s)
        except Exception as exc:
            traceback.print_exc()
            ctx.outcome(f"s_sweep s={s!r}", [f"raised {exc!r}"])
            continue
        ctx.outcome(f"s_sweep s={s!r}", checks.library_solve_problems(
            s, SIGMA, L, dofmap.n_dofs, sol.energy, err, ctx.solves))


WORKLOADS = {"paper_sweep": paper_sweep, "deep_solve": deep_solve,
             "s_sweep": s_sweep}


def settle_blas_buffers():
    """Factor a 600 x 600 SPD matrix a few times before deep_solve.

    Which OpenBLAS thread buffers deep_solve's factorizations touch first
    is timing dependent; it moved peak_rss_mb between 113 and 123 MB in
    otherwise identical runs.  Touching them up front (peak ~80 MB, below
    deep_solve's own) makes the figure repeat to ~0.3%.  The smaller
    workloads repeat without it, and it would hide their peak.
    """
    a = np.random.default_rng(0).random((600, 600))
    for _ in range(3):
        spd = a @ a.T + 600.0 * np.eye(600)
        linalg.cho_solve(linalg.cho_factor(spd, lower=True), a[0])


def thread_probes(tracer, sizes):
    """Time assemble(..., threads=1) and threads=2 on deep_solve's last
    mesh, untraced, while assemble still takes a `threads` argument."""
    assemble = frachp.assembly.assemble
    if "threads" not in inspect.signature(assemble).parameters:
        return
    levels = sizes["deep_levels"]
    mesh = frachp.geomesh.build_geometric_mesh((-1.0, 1.0), SIGMA, levels)
    dofmap = frachp.basis.build_dof_map(mesh, DegreeRule.uniform(levels))
    tracer.pass_index = "threads"
    for threads in (1, 2):
        with tracer.span("assembly.threads_probe", threads=threads):
            assemble(mesh, dofmap, 0.5, threads=threads)
