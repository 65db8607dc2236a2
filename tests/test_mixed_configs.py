"""Configurations beyond axis-aligned grids: rotated patch parameters and
mixed boundary conditions with nonzero Neumann data."""

import numpy as np
import pytest
from oracles import uniform_open_knots

from dgiga.analysis import measure_errors
from dgiga.assembly import ProblemData, default_penalty, interface_slots
from dgiga.driver import run_sweep, solve_problem
from dgiga.geometries import planar_rectangle_patch, square_grid
from dgiga.geometry import NurbsPatch, match_interfaces, refine_surface, tabulate_sides
from dgiga.splines import NurbsBasis2D, greville


def rotated_strip(p=2):
    """[0,2]x[0,1] as two patches; the right patch's parameters are rotated,
    so its SOUTH side meets the left patch's EAST side."""
    a = planar_rectangle_patch(p, origin=(0.0, 0.0), pid=0)
    kv = uniform_open_knots(p, 1)
    g = greville(kv)
    n = g.size
    cp = np.empty((n, n, 3))
    cp[:, :, 0] = 1.0 + g[None, :]
    cp[:, :, 1] = g[:, None]
    cp[:, :, 2] = 0.0
    b = NurbsPatch(NurbsBasis2D(kv, kv, np.ones((n, n))), cp, 1)
    tags = {
        (0, "west"): "dirichlet",
        (0, "south"): "dirichlet",
        (0, "north"): "dirichlet",
        (1, "west"): "dirichlet",
        (1, "east"): "dirichlet",
        (1, "north"): "dirichlet",
    }
    return match_interfaces([a, b], tags)


def strip_problem(delta):
    def u(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad(pts):
        g = np.zeros((len(pts), 3))
        g[:, 0] = np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        g[:, 1] = np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        return g

    return ProblemData(
        f=lambda pid, pts: 2 * np.pi**2 * u(pts),
        g_D=u,
        delta=delta,
        u_exact=u,
        grad_u_exact=grad,
    )


def test_rotated_patch_pairs_east_with_south():
    surface = rotated_strip()
    (edge,) = surface.edges_of_kind("interior")
    sides = {edge.left[1], edge.right[1]}
    assert sides == {"east", "south"}
    tab = tabulate_sides(surface.patches, interface_slots([edge]), 3)
    half = tab.starts[1]
    assert np.max(np.linalg.norm(tab.conormal[:, :half] + tab.conormal[:, half:], axis=0)) <= 1e-12


def test_rotated_patch_solution_converges():
    surface = rotated_strip()

    def factory(surf, delta):
        return strip_problem(delta)

    table, results = run_sweep(surface, 2, factory, levels=4)
    assert all(r.solve_report.converged for r in results)
    l2_rate, dg_rate = table.rows[-1].l2_rate, table.rows[-1].dg_rate
    assert abs(l2_rate - 3.0) <= 0.2
    assert abs(dg_rate - 2.0) <= 0.2


def test_nonzero_neumann_data_converges():
    # Same manufactured solution, but the east edge carries its exact flux
    # as Neumann data instead of Dirichlet values.
    def factory(surf, delta):
        def u(pts):
            return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

        def grad(pts):
            g = np.zeros((len(pts), 3))
            g[:, 0] = np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
            g[:, 1] = np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
            return g

        def g_n(pts):
            # outward conormal on the east boundary (x = 1) is +e_x
            return np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

        return ProblemData(
            f=lambda pid, pts: 2 * np.pi**2 * u(pts),
            g_D=u,
            g_N=g_n,
            delta=delta,
            u_exact=u,
            grad_u_exact=grad,
        )

    patches = [planar_rectangle_patch(2, pid=0)]
    tags = {
        (0, "west"): "dirichlet",
        (0, "south"): "dirichlet",
        (0, "north"): "dirichlet",
        (0, "east"): "neumann",
    }
    surface = match_interfaces(patches, tags)
    table, results = run_sweep(
        surface, 2, lambda surf, delta: factory(surf, delta), levels=4
    )
    assert all(r.solve_report.converged for r in results)
    l2_rate, dg_rate = table.rows[-1].l2_rate, table.rows[-1].dg_rate
    assert abs(l2_rate - 3.0) <= 0.2
    assert abs(dg_rate - 2.0) <= 0.2


def test_mixed_bc_pointwise_accuracy():
    patches = [planar_rectangle_patch(3, pid=0)]
    tags = {
        (0, "west"): "dirichlet",
        (0, "south"): "dirichlet",
        (0, "north"): "neumann",
        (0, "east"): "neumann",
    }
    surface = match_interfaces(patches, tags)
    for _ in range(3):
        surface = refine_surface(surface)

    # u = x^3 y + y^2: cubic-in-x data representable at p=3 only through the
    # full bilinear form, not by interpolation alone.
    def u(pts):
        return pts[:, 0] ** 3 * pts[:, 1] + pts[:, 1] ** 2

    def grad(pts):
        g = np.zeros((len(pts), 3))
        g[:, 0] = 3 * pts[:, 0] ** 2 * pts[:, 1]
        g[:, 1] = pts[:, 0] ** 3 + 2 * pts[:, 1]
        return g

    def f(pid, pts):
        return -(6 * pts[:, 0] * pts[:, 1] + 2.0)

    def g_n(pts):
        east = np.isclose(pts[:, 0], 1.0)
        gn = np.where(east, 3 * pts[:, 0] ** 2 * pts[:, 1], pts[:, 0] ** 3 + 2 * pts[:, 1])
        return gn

    data = ProblemData(
        f=f, g_D=u, g_N=g_n, delta=default_penalty(3), u_exact=u, grad_u_exact=grad
    )
    u_h, report = solve_problem(surface, 3, data, tol=1e-12)
    assert report.converged
    errors = measure_errors(u_h, data)
    # The exact solution lies in the discrete space; only consistency-level
    # errors (quadrature of the non-polynomial metric is exact here) remain.
    assert errors.l2_error <= 1e-9
    assert errors.dg_error <= 1e-7
