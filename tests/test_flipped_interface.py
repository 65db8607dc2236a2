"""Interfaces whose edge parameters run in opposite directions.

The patch grids produce aligned interfaces; here the right patch is built
with its second parameter reversed, so pairing must detect the orientation
flip and every downstream consumer (traces, conormals, assembly, errors)
must compose with it.
"""

import numpy as np
import pytest
from conftest import symmetry_deviation
from oracles import edge_jump, interpolate, partner_t

from dgiga.analysis import measure_errors
from dgiga.assembly import ProblemData, assemble_system, default_penalty, interface_slots
from dgiga.driver import solve_problem
from dgiga.geometries import planar_rectangle_patch
from dgiga.geometry import NurbsPatch, match_interfaces, refine_surface, tabulate_sides
from dgiga.space import build_space
from dgiga.splines import NurbsBasis2D


def two_patches(flip_right: bool):
    a = planar_rectangle_patch(2, origin=(0.0, 0.0), pid=0)
    b = planar_rectangle_patch(2, origin=(1.0, 0.0), pid=1)
    if flip_right:
        cp = b.control_points[:, ::-1, :].copy()
        w = b.basis.weights[:, ::-1].copy()
        b = NurbsPatch(NurbsBasis2D(b.basis.basis_u, b.basis.basis_v, w), cp, 1)
    tags = {
        (0, "west"): "dirichlet",
        (0, "south"): "dirichlet",
        (0, "north"): "dirichlet",
        (1, "east"): "dirichlet",
        (1, "south"): "dirichlet",
        (1, "north"): "dirichlet",
    }
    return match_interfaces([a, b], tags)


def problem_on_strip(delta):
    # u = sin(pi x) sin(pi y) vanishes on the whole boundary of [0,2]x[0,1].
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


def test_flip_is_detected_and_consistent(rng):
    surface = two_patches(flip_right=True)
    (edge,) = surface.edges_of_kind("interior")
    assert edge.orientation_flip
    pl = surface.patches[edge.left[0]]
    pr = surface.patches[edge.right[0]]
    for t in rng.random(10):
        a = pl.side_point(edge.left[1], float(t))
        b = pr.side_point(edge.right[1], partner_t(edge, float(t)))
        assert np.linalg.norm(a - b) <= 1e-12
    tab = tabulate_sides(surface.patches, interface_slots([edge]), 4)
    half = tab.starts[1]
    assert np.max(np.linalg.norm(tab.points[:, :half] - tab.points[:, half:], axis=0)) <= 1e-12
    assert np.max(np.linalg.norm(tab.conormal[:, :half] + tab.conormal[:, half:], axis=0)) <= 1e-12


def test_interpolant_continuous_across_flipped_interface(rng):
    surface = refine_surface(two_patches(flip_right=True))
    space = build_space(surface, 2)
    u = interpolate(space, lambda pts: np.sin(pts[:, 0] + 0.2 * pts[:, 1]))
    (edge,) = surface.edges_of_kind("interior")
    for t in rng.random(15):
        assert abs(edge_jump(u, edge, float(t))) <= 1e-11


def test_flipped_and_aligned_solves_agree():
    results = {}
    for flip in (False, True):
        surface = two_patches(flip_right=flip)
        for _ in range(2):
            surface = refine_surface(surface)
        data = problem_on_strip(default_penalty(2))
        u_h, report = solve_problem(surface, 2, data, tol=1e-12)
        assert report.converged
        errors = measure_errors(u_h, data)
        results[flip] = errors
    # Same discrete problem up to a DOF permutation: identical error norms.
    assert results[True].l2_error == pytest.approx(results[False].l2_error, rel=1e-8)
    assert results[True].dg_error == pytest.approx(results[False].dg_error, rel=1e-8)


def test_flipped_system_symmetric():
    surface = two_patches(flip_right=True)
    space = build_space(surface, 2)
    system = assemble_system(space, problem_on_strip(24.0))
    assert symmetry_deviation(system.matrix) <= 1e-12
