"""Solve one Poisson problem on the 4-patch unit square and inspect it.

The manufactured solution u = sin(pi x) sin(pi y) fixes the source and the
Dirichlet data, so the discrete solution can be measured in the L2 and
energy norms.  Patches stay fully discontinuous; the interface and boundary
coupling is entirely in the penalty formulation (the boundary conditions
are imposed weakly, Nitsche style -- no DOFs are eliminated).
"""

import numpy as np

from dgiga import make_problem, measure_errors, solve_problem
from dgiga.geometries import square_grid
from dgiga.geometry import refine_surface, tabulate_grid

surface = square_grid(2)
for _ in range(3):
    surface = refine_surface(surface)

problem = make_problem("plane_sine", surface, degree=2)
print("penalty parameter:", problem.delta)

u_h, report = solve_problem(surface, 2, problem)  # u_h.space: the DG space
print(f"{u_h.space.total_dofs} DOFs, CG converged in {report.iterations} iterations "
      f"(relative residual {report.final_relative_residual:.2e})")

errors = measure_errors(u_h, problem)
print(f"L2 error  {errors.l2_error:.6e}")
print(f"DG error  {errors.dg_error:.6e}")
print("per-patch L2 parts:", np.round(errors.per_patch, 10))

# Point values: the discrete solution is defined patch by patch.  Its
# coefficient grid is contracted like the geometry, here on the 1 x 1 grid
# of each patch's parametric center.
for pid, patch in enumerate(surface.patches):
    tab = tabulate_grid([patch], [0.5], [0.5], u_h.patch_coeffs(pid)[None])
    point, value = tab.points.reshape(3), tab.field.item()
    exact = float(problem.u_exact(point[None, :])[0])
    print(f"patch {pid} center {point[:2]}: u_h {value:.6f}, u {exact:.6f}")
