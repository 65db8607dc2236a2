"""Diffusion ON surfaces: the tangential (Laplace-Beltrami) operator.

Two settings.  First the quarter cylinder with Dirichlet boundary, whose
manufactured solution lives in cylinder coordinates; the geometry is exact,
so the observed rates match the planar ones.  Second a cylinder closed in
the angular direction: no Dirichlet boundary anywhere, so the solution is
only defined up to a constant; the solver works in the complement of that
nullspace and fixes the constant so that the solution has zero integral.
"""

import numpy as np

from dgiga import (
    ProblemData,
    assemble_system,
    default_penalty,
    make_problem,
    measure_errors,
    run_sweep,
    solve_problem,
)
from dgiga.geometries import full_cylinder, quarter_cylinder_grid
from dgiga.geometry import refine_surface

print("quarter cylinder, Dirichlet boundary, u = sin(theta) sin(pi z)")
for p in (2, 3):
    surface = quarter_cylinder_grid(p)

    def factory(surf, delta, p=p):
        return make_problem("cylinder_sine", surf, p, delta)

    table, _ = run_sweep(surface, p, factory, levels=4)
    last = table.rows[-1]
    print(f"  p={p}: L2 rate {last.l2_rate:.3f} (expect {p + 1}), "
          f"DG rate {last.dg_rate:.3f} (expect {p})")

print("\nfull cylinder, pure Neumann, u = cos(theta) = x")
surface = full_cylinder(2)
for _ in range(2):
    surface = refine_surface(surface)


def u_exact(pts):
    return pts[:, 0]


def grad_exact(pts):
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    g = np.zeros((len(pts), 3))
    g[:, 0] = np.sin(theta) ** 2
    g[:, 1] = -np.cos(theta) * np.sin(theta)
    return g


problem = ProblemData(
    f=lambda pid, pts: pts[:, 0],  # -Laplace_surface(cos theta) = cos theta
    g_N=lambda pts: np.zeros(len(pts)),
    delta=default_penalty(2),  # required: the coercive range grows with p
    u_exact=u_exact,
    grad_u_exact=grad_exact,
)
u_h, report = solve_problem(surface, 2, problem)
errors = measure_errors(u_h, problem)
print(f"  {u_h.space.total_dofs} DOFs, CG iterations {report.iterations}")
m = assemble_system(u_h.space, problem).basis_integrals  # m_i = integral of basis function i
print(f"  integral of u_h over the surface: {m @ u_h.coefficients:.2e} (fixed to zero)")
print(f"  L2 error {errors.l2_error:.4e}, DG error {errors.dg_error:.4e}")
