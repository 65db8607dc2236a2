import functools

import numpy as np
import pytest
from oracles import assemble_volume

import dgiga.driver
from dgiga.analysis import measure_errors
from dgiga.assembly import ProblemData, default_penalty
from dgiga.driver import SolverFailure, run_sweep, sample_solution, solve_problem
from dgiga.geometries import full_cylinder, square_grid
from dgiga.geometry import NurbsPatch, match_interfaces, refine_surface
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.splines import KnotVector, NurbsBasis2D, greville


def test_run_sweep_validates_levels():
    surface = square_grid(1)
    with pytest.raises(ValueError):
        run_sweep(surface, 1, lambda s, d: make_problem("plane_sine", s, 1, d), levels=0)


def test_single_level_sweep_has_no_rates():
    surface = square_grid(1)
    table, results = run_sweep(
        surface, 1, lambda s, d: make_problem("plane_sine", s, 1, d), levels=1
    )
    assert len(results) == 1
    import math

    assert math.isnan(table.rows[0].l2_rate)


def test_solver_failure_raises(monkeypatch):
    surface = refine_surface(square_grid(2))
    data = make_problem("plane_sine", surface, 2)
    # Two CG iterations cannot reach the tolerance.
    monkeypatch.setattr(dgiga.driver, "cg_solve", functools.partial(cg_solve, max_iter=2))
    with pytest.raises(SolverFailure):
        solve_problem(surface, 2, data)
    # tol outside (0, 1) is rejected upstream
    with pytest.raises(ValueError):
        solve_problem(surface, 2, data, tol=0.0)


def test_pure_neumann_on_closed_angular_cylinder():
    # Four patches close the full circle; only the two rims carry (Neumann)
    # boundary.  u = cos(theta) = x solves -Delta u = cos(theta) with zero
    # normal derivative at the rims and compatible (zero-mean) data.
    surface = full_cylinder(2)
    assert len(surface.edges_of_kind("interior")) == 4
    assert not surface.has_dirichlet
    surface = refine_surface(refine_surface(surface))

    def u(pts):
        return pts[:, 0]

    def grad(pts):
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        g = np.zeros((len(pts), 3))
        g[:, 0] = np.sin(theta) ** 2
        g[:, 1] = -np.cos(theta) * np.sin(theta)
        return g

    data = ProblemData(
        f=lambda pid, pts: pts[:, 0],
        g_N=lambda pts: np.zeros(len(pts)),
        delta=default_penalty(2),
        u_exact=u,
        grad_u_exact=grad,
    )
    u_h, report = solve_problem(surface, 2, data)
    assert report.converged
    assert abs(u_h.coefficients.sum()) <= 1e-9
    errors = measure_errors(u_h, data)
    assert errors.l2_error <= 1e-5
    assert errors.dg_error <= 1e-4


def test_pure_neumann_solution_has_zero_integral_mean_on_graded_mesh():
    # On a graded mesh the basis functions have very different integrals, so
    # a zero coefficient mean is not a zero integral mean; the exact
    # solution has zero integral mean and the error must converge.
    kv = KnotVector(2, [0, 0, 0, 0.02, 0.05, 0.1, 0.2, 1, 1, 1])
    g = greville(kv)
    cp = np.zeros((g.size, g.size, 3))
    cp[:, :, 0] = g[:, None]
    cp[:, :, 1] = g[None, :]
    patch = NurbsPatch(NurbsBasis2D(kv, kv, np.ones((g.size, g.size))), cp, 0)
    sides = ("west", "east", "south", "north")
    surface = match_interfaces([patch], {(0, s): "neumann" for s in sides})
    table, results = run_sweep(
        surface, 2, lambda s, d: make_problem("plane_cosine", s, 2, d), levels=4
    )
    assert table.rows[-1].l2_rate >= 2 + 1 - 0.3
    one = ProblemData(f=lambda pid, pts: np.ones(len(pts)), delta=12.0)
    for r in results:
        m = assemble_volume(r.solution.space, one).rhs  # m_i = int phi_i
        x = r.solution.coefficients
        assert abs(m @ x) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(x)


def test_sample_solution_grid(tmp_path):
    surface = square_grid(1)
    _, results = run_sweep(
        surface, 1, lambda s, d: make_problem("plane_sine", s, 1, d), levels=1
    )
    text = sample_solution(results[0])
    lines = text.strip().split("\n")
    assert lines[0] == "patch,xi1,xi2,x,y,z,uh"
    assert len(lines) == 1 + 4 * 100
    first = lines[1].split(",")
    assert len(first) == 7


def test_degree_four_end_to_end():
    surface = refine_surface(square_grid(4))
    data = make_problem("plane_sine", surface, 4)
    assert data.delta == 60.0
    u_h, report = solve_problem(surface, 4, data)
    assert report.converged
    errors = measure_errors(u_h, data)
    assert errors.l2_error <= 1e-5


def test_nested_iteration_saves_cg_iterations_on_the_finest_level():
    """Warm-started CG on level 4 of the p = 3 full cylinder needs at most
    0.8 times the iterations of a cold start on the same system."""
    from dgiga.assembly import assemble_system
    from dgiga.linalg import cg_solve

    spec = ("u=x*cos(pi*z); f=(1+pi^2)*x*cos(pi*z); gN=0*x; "
            "gx=y^2*cos(pi*z); gy=-x*y*cos(pi*z); gz=-pi*x*sin(pi*z)")

    def factory(surf, delta):
        return make_problem(spec, surf, 3, delta)

    _, results = run_sweep(full_cylinder(3, 2), 3, factory, levels=5)
    finest = results[-1]
    space = finest.solution.space
    system = assemble_system(space, factory(space.surface, default_penalty(3)))
    _, cold = cg_solve(system.matrix, system.rhs, mean_weights=system.basis_integrals)
    assert cold.converged
    assert finest.solve_report.iterations <= 0.8 * cold.iterations
