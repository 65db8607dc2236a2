"""Solve pipeline: assemble, solve, measure, sweep over refinements.

A sweep refines per stack of patches and uses nested iteration: CG on
level k+1 starts from the level-k solution prolonged exactly by the same
knot insertion (``space.prolong``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ErrorReport, RateTable, measure_errors, rate_table, surface_h_max
from .assembly import ProblemData, assemble_system, default_penalty
from .geometry import MultiPatchSurface, knot_groups, refine_surface, tabulate_grid
from .linalg import SolveReport, cg_solve
from .space import DiscreteFunction, build_space, prolong

__all__ = ["SolverFailure", "LevelResult", "solve_problem", "run_sweep"]


class SolverFailure(RuntimeError):
    """The iterative solver did not reach the requested tolerance."""

    def __init__(self, report: SolveReport):
        super().__init__(
            f"CG did not converge: {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.3e}"
        )
        self.report = report


def solve_problem(
    surface: MultiPatchSurface,
    p: int,
    data: ProblemData,
    tol: float = 1e-10,
    x0: np.ndarray | None = None,
) -> tuple[DiscreteFunction, SolveReport]:
    """Assemble and solve one discrete problem on the given surface.

    CG starts from the coefficient vector ``x0`` (zeros when None).
    Pure-Neumann problems (no Dirichlet edge anywhere) are solved in the
    complement of the constant nullspace, and the solution is shifted to
    zero integral mean over the surface.  The space is ``u_h.space``.
    """
    space = build_space(surface, p)
    system = assemble_system(space, data)
    x, report = cg_solve(
        system.matrix, system.rhs, tol=tol, mean_weights=system.basis_integrals, x0=x0
    )
    if not report.converged:
        raise SolverFailure(report)
    return space.function(x), report


@dataclass
class LevelResult:
    """One level of a sweep; its surface is ``solution.space.surface``."""

    level: int
    solution: DiscreteFunction
    errors: ErrorReport
    solve_report: SolveReport


def run_sweep(
    surface: MultiPatchSurface,
    p: int,
    problem_factory,
    levels: int,
    tol: float = 1e-10,
    delta: float | None = None,
    collect=None,
) -> tuple[RateTable, list[LevelResult]]:
    """Refine globally ``levels`` times, solving and measuring each level.

    ``problem_factory(surface, delta)`` builds the problem data per level
    (data may depend on per-patch coefficients of the refined surface).
    ``collect`` is called with each LevelResult as it completes.  CG on
    every level after the first starts from the previous level's solution,
    prolonged to the refined space.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if delta is None:
        delta = default_penalty(p)
    results = []
    current, x0 = surface, None
    for level in range(levels):
        if level > 0:
            current = refine_surface(current)
            x0 = prolong(results[-1].solution)
        data = problem_factory(current, delta)
        u_h, report = solve_problem(current, p, data, tol=tol, x0=x0)
        if data.u_exact is not None:
            errors = measure_errors(u_h, data)
        else:
            h_max = surface_h_max(current)
            errors = ErrorReport(math.nan, math.nan, u_h.space.total_dofs, h_max, [])
        result = LevelResult(level, u_h, errors, report)
        results.append(result)
        if collect is not None:
            collect(result)
    return rate_table([r.errors for r in results]), results


def sample_solution(result: LevelResult) -> str:
    """CSV sample of the solution on a uniform 10 x 10 parametric grid of each patch."""
    ts = np.linspace(0.0, 1.0, 10)
    n, patches, u_h = ts.size, result.solution.space.surface.patches, result.solution
    # x, y, z, uh per (patch, xi1, xi2); one row per (patch, xi2, xi1), led by patch, xi1, xi2.
    values = np.empty((4, len(patches), n, n))
    for stack in knot_groups(patches):
        coeffs = np.stack([u_h.patch_coeffs(pid) for pid in stack])
        tab = tabulate_grid([patches[pid] for pid in stack], ts, ts, coeffs)
        values[:3, stack], values[3, stack] = tab.points, tab.field
    values = values.transpose(1, 3, 2, 0)
    grid = ["%.17g,%.17g," % (xi1, xi2) for xi2 in ts.tolist() for xi1 in ts.tolist()]
    heads = [f"{pid},{point}" for pid in range(len(patches)) for point in grid]
    row = "%s%.17g,%.17g,%.17g,%.17g"
    lines = [row % (head, *v) for head, v in zip(heads, values.reshape(-1, 4).tolist())]
    return "\n".join(["patch,xi1,xi2,x,y,z,uh", *lines]) + "\n"
