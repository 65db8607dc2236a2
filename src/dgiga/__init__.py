"""Interior-penalty isogeometric analysis of diffusion on NURBS surfaces.

Multi-patch NURBS geometries (planar or embedded in R^3) are coupled with a
symmetric interior penalty Galerkin method; Dirichlet conditions are imposed
weakly.  The library covers basis evaluation and h-refinement, surface
geometry, assembly, iterative solution, and convergence-rate measurement
against manufactured solutions.
"""

from .analysis import ErrorReport, RateTable, measure_errors, rate_table
from .assembly import (
    ProblemData,
    SparseSystem,
    assemble_system,
    default_penalty,
)
from .driver import SolverFailure, run_sweep, sample_solution, solve_problem
from .geofile import GeometryData, ParseError, parse_geometry, serialize_geometry
from .geometry import (
    GeometryError,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    SingularMapError,
    TopologyError,
    match_interfaces,
    refine_surface,
)
from .linalg import NumericalBreakdownError, SolveReport, cg_solve
from .problems import builtin_problems, make_problem, parse_expression
from .space import DgSpace, DiscreteFunction, build_space
from .splines import KnotVector, NurbsBasis2D, greville, insert_knots

__version__ = "0.1.0"
