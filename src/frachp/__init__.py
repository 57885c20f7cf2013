"""hp-FEM solver and analysis toolkit for the 1D integral fractional Laplacian.

Solves (-Delta)^s u = f on a bounded interval with zero exterior condition,
using continuous piecewise polynomials on geometrically graded meshes, and
provides the quadrature, weighted-norm, and interpolation machinery needed
to study the exponential convergence of the method.
"""

from .approx import (DerivativeNormSequence, DerivativeRecurrence,
                     DivergentIntegralError, InterpolationBoundResult,
                     build_hp_interpolant, endpoint_interpolation_check,
                     gauss_lobatto_interpolant, interpolant_weighted_error,
                     interpolation_error_study, weighted_derivative_norms)
from .assembly import GalerkinSystem, assemble, assemble_load, kernel_constant
from .basis import (DegreeRule, DofMap, build_dof_map, eval_fem_derivative,
                    eval_fem_function, gauss_lobatto_nodes)
from .geomesh import GeometricMesh, build_geometric_mesh, element_of
from .linsolve import NotSPDError, Solution, cholesky_solve
from .postproc import (ConvergenceRecord, EnergyGapError, convergence_study,
                       energy_error, exact_energy, exact_solution,
                       records_to_csv, solve_problem)

__version__ = "0.1.0"
