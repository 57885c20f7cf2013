"""Command-line front end: convergence studies, single solves, interpolation
studies, and mesh dumps, all emitting deterministic CSV."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import approx, postproc
from .geomesh import build_geometric_mesh
from .linsolve import NotSPDError

__all__ = ["run", "main"]

CONVERGENCE_HEADER = postproc.CSV_HEADER + ",guide_uniform,guide_reduced"
INTERP_HEADER = "p,L,sigma,s,weighted_error"


class _Invalid(ValueError):
    """Validation failure carrying the offending flag name."""

    def __init__(self, flag, message):
        super().__init__(f"invalid value for {flag}: {message}")
        self.flag = flag


def _float_list(text):
    return [float(tok) for tok in text.split(",")]


def _parser():
    parser = argparse.ArgumentParser(
        prog="frachp",
        description="hp-FEM solver for the 1D integral fractional Laplacian "
                    "Dirichlet problem",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, solver=True):
        p.add_argument("--s", type=_float_list, default=[0.5],
                       help="comma-separated fractional orders in (0,1)")
        p.add_argument("--sigma", type=float, default=0.6,
                       help="mesh grading factor in (0,1)")
        p.add_argument("--levels", type=int, default=10,
                       help="number of refinement layers L")
        if solver:
            p.add_argument("--rule", choices=("uniform", "reduced"),
                           default="uniform", help="degree rule (p = L)")
            p.add_argument("--quad-offset", type=int, default=6,
                           help="quadrature points per direction = p + offset")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_conv = sub.add_parser("convergence", help="run the L = 1..levels study")
    common(p_conv)

    p_solve = sub.add_parser("solve", help="solve one configuration (p = levels)")
    common(p_solve)
    p_solve.add_argument("--dump-matrix", metavar="PREFIX", default=None,
                         help="write stiffness/load as PREFIX_A.csv, PREFIX_b.csv")

    p_interp = sub.add_parser("interp-study",
                              help="weighted interpolation-error sweep")
    common(p_interp, solver=False)
    p_interp.add_argument("--eps-prime", type=float, default=0.05,
                          help="weight offset: beta' = 1 - s - eps_prime")

    p_mesh = sub.add_parser("mesh", help="dump mesh nodes as CSV, one per line")
    p_mesh.add_argument("--sigma", type=float, default=0.6)
    p_mesh.add_argument("--levels", type=int, default=10)
    p_mesh.add_argument("--domain", type=_float_list, default=[-1.0, 1.0],
                        help="interval endpoints a,b")
    p_mesh.add_argument("--out", default=None)

    return parser


def _validate(args):
    if hasattr(args, "sigma") and not 0.0 < args.sigma < 1.0:
        raise _Invalid("--sigma", f"{args.sigma} not in (0, 1)")
    if hasattr(args, "levels") and args.levels < 0:
        raise _Invalid("--levels", f"{args.levels} is negative")
    if args.subcommand != "mesh" and args.levels < 1:
        raise _Invalid("--levels",
                       f"{args.subcommand} needs at least one layer")
    if getattr(args, "quad_offset", 0) < 0:
        raise _Invalid("--quad-offset", f"{args.quad_offset} is negative")
    for s in getattr(args, "s", []):
        if not 0.0 < s < 1.0:
            raise _Invalid("--s", f"{s} not in (0, 1)")
        beta_p = 1.0 - s - getattr(args, "eps_prime", 0.0)
        if not 0.0 < beta_p < 1.0:
            raise _Invalid("--eps-prime", f"beta' = 1 - s - eps_prime = "
                           f"{beta_p} not in (0, 1) at s={s}")
    if args.subcommand == "solve" and len(args.s) != 1:
        raise _Invalid("--s", "solve expects a single fractional order")
    domain = getattr(args, "domain", (0.0, 1.0))
    if len(domain) != 2 or not (np.isfinite(domain).all() and domain[0] < domain[1]):
        raise _Invalid("--domain", f"{domain} is not two finite endpoints a < b")


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_convergence(args):
    records = postproc.convergence_study(
        args.s, args.sigma, args.levels, args.rule,
        quad_offset=args.quad_offset)
    lines = [CONVERGENCE_HEADER]
    for r in records:
        guide_u = 2.0 * args.sigma ** (r.L / 2.0) / r.L
        guide_r = 0.22 * args.sigma ** (r.L / 2.0)
        lines.append(",".join(postproc.record_fields(r)
                              + [f"{guide_u:.17g}", f"{guide_r:.17g}"]))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_solve(args):
    record, system = postproc.solve_record(
        args.s[0], args.sigma, args.levels, args.rule,
        quad_offset=args.quad_offset)
    _write(postproc.records_to_csv([record]), args.out)
    if args.dump_matrix is not None:
        np.savetxt(args.dump_matrix + "_A.csv", system.stiffness,
                   delimiter=",", fmt="%.17g")
        np.savetxt(args.dump_matrix + "_b.csv", system.load, fmt="%.17g")
    return 0


def _cmd_interp_study(args):
    lines = [INTERP_HEADER]
    for s in args.s:
        for p, L, sigma, s_val, err in approx.interpolation_error_study(
                s, args.sigma, args.levels, args.eps_prime):
            lines.append(f"{p},{L},{sigma:.17g},{s_val:.17g},{err:.17g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mesh(args):
    mesh = build_geometric_mesh(args.domain, args.sigma, args.levels)
    _write("".join(f"{x:.17g}\n" for x in mesh.nodes), args.out)
    return 0


_COMMANDS = {
    "convergence": _cmd_convergence,
    "solve": _cmd_solve,
    "interp-study": _cmd_interp_study,
    "mesh": _cmd_mesh,
}


def run(argv=None):
    """Parse arguments and execute; returns the process exit code.

    0 on success, 2 on validation errors, 3 on numerical failures.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _validate(args)
        return _COMMANDS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotSPDError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
