"""Command-line front end: convergence studies, single solves, interpolation
studies, and mesh dumps, all emitting deterministic CSV."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import approx, postproc
from .geomesh import build_geometric_mesh

__all__ = ["run", "main"]

_RECORD_HEADER = "s,sigma,L,rule,N,energy_error,discrete_energy,wall_ms"
CONVERGENCE_HEADER = _RECORD_HEADER + ",guide_uniform,guide_reduced"
INTERP_HEADER = "p,L,sigma,s,weighted_error"


def _checked(convert, ok, what):
    """An argparse type that accepts convert(text) where ok holds; for any
    other value argparse names the flag and exits 2."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


def _floats(text):
    return [float(tok) for tok in text.split(",")]


_unit = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_orders = _checked(_floats, lambda xs: all(0.0 < x < 1.0 for x in xs),
                   "a comma-separated list of numbers in (0, 1)")
_layers = _checked(int, lambda n: n >= 1, "an integer >= 1")
_nonneg = _checked(int, lambda n: n >= 0, "an integer >= 0")
_domain = _checked(_floats, lambda d: len(d) == 2 and d[0] < d[1]
                   and math.isfinite(d[1] - d[0]),
                   "two values a < b with b - a finite")


def _parser():
    parser = argparse.ArgumentParser(
        prog="frachp",
        description="hp-FEM solver for the 1D integral fractional Laplacian "
                    "Dirichlet problem",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, error=p.error)
        return p

    def common(p, solver=True):
        p.add_argument("--s", type=_orders, default=[0.5],
                       help="comma-separated fractional orders in (0,1)")
        p.add_argument("--sigma", type=_unit, default=0.6,
                       help="mesh grading factor in (0,1)")
        p.add_argument("--levels", type=_layers, default=10,
                       help="number of refinement layers L")
        if solver:
            p.add_argument("--rule", choices=("uniform", "reduced"),
                           default="uniform", help="degree rule (p = L)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    common(command("convergence", _cmd_convergence,
                   "run the L = 1..levels study"))

    p_solve = command("solve", _cmd_solve,
                      "solve one configuration (p = levels)")
    common(p_solve)
    p_solve.add_argument("--dump-matrix", metavar="PREFIX", default=None,
                         help="write stiffness/load as PREFIX_A.csv, PREFIX_b.csv")

    p_interp = command("interp-study", _cmd_interp_study,
                       "weighted interpolation-error sweep")
    common(p_interp, solver=False)
    p_interp.add_argument("--eps-prime", type=float, default=0.05,
                          help="weight offset: beta' = 1 - s - eps_prime")

    p_mesh = command("mesh", _cmd_mesh, "dump mesh nodes as CSV, one per line")
    p_mesh.add_argument("--sigma", type=_unit, default=0.6)
    p_mesh.add_argument("--levels", type=_nonneg, default=10)
    p_mesh.add_argument("--domain", type=_domain, default=[-1.0, 1.0],
                        help="interval endpoints a,b")
    p_mesh.add_argument("--out", default=None)

    return parser


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(header, rows, path):
    """The header, then one line per row: floats at 17 significant digits,
    other values as str."""
    lines = [header] + [",".join(f"{v:.17g}" if isinstance(v, float)
                                 else str(v) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", path)


def _fields(r):
    """The _RECORD_HEADER values of one study record."""
    return (r.s, r.sigma, r.L, r.degree_rule.kind, r.N, r.energy_error,
            r.discrete_energy, r.wall_seconds * 1e3)


def _cmd_convergence(args):
    records = postproc.convergence_study(args.s, args.sigma, args.levels,
                                         args.rule)
    _write_csv(CONVERGENCE_HEADER, [
        _fields(r) + (2.0 * args.sigma ** (r.L / 2.0) / r.L,
                      0.22 * args.sigma ** (r.L / 2.0)) for r in records],
        args.out)
    return 0


def _cmd_solve(args):
    if len(args.s) != 1:
        args.error(f"argument --s: solve takes one fractional order, "
                   f"got {len(args.s)}")
    record, system = postproc.solve_record(args.s[0], args.sigma,
                                           args.levels, args.rule)
    _write_csv(_RECORD_HEADER, [_fields(record)], args.out)
    if args.dump_matrix is not None:
        np.savetxt(args.dump_matrix + "_A.csv", system.stiffness,
                   delimiter=",", fmt="%.17g")
        np.savetxt(args.dump_matrix + "_b.csv", system.load, fmt="%.17g")
    return 0


def _cmd_interp_study(args):
    for s in args.s:  # the library's own beta' check does not name the flag
        if not 0.0 < 1.0 - s - args.eps_prime < 1.0:
            args.error(f"argument --eps-prime: beta' = 1 - s - eps_prime = "
                       f"{1.0 - s - args.eps_prime} not in (0, 1) at s={s}")
    _write_csv(INTERP_HEADER, [
        row for s in args.s for row in approx.interpolation_error_study(
            s, args.sigma, args.levels, args.eps_prime)], args.out)
    return 0


def _cmd_mesh(args):
    mesh = build_geometric_mesh(args.domain, args.sigma, args.levels)
    _write("".join(f"{x:.17g}\n" for x in mesh.nodes), args.out)
    return 0


def run(argv=None):
    """Parse arguments and execute; returns the process exit code.

    0 on success; 2 on a bad argument (argparse names the flag), on a
    ValueError, or on an output path that cannot be written; 3 on a
    numerical failure.
    """
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse: --help, or an error naming a flag
        return int(exc.code) if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
