"""The vectorized tabulation against the pointwise evaluation.

``tabulate_patch``, ``tabulate_side`` and the grid kernel must reproduce
``eval_nurbs2d``/``frame_at``/``surface_gradient``/``conormal_at``/
``edge_mesh_size`` at every point, on every bundled geometry, the p = 3
rational full cylinder and an orientation-flipped interface.
"""

import numpy as np
import pytest
from conftest import bundled
from test_flipped_interface import two_patches

from dgiga.assembly import ProblemData, assemble_boundary, assemble_system, assemble_volume
from dgiga.driver import LevelResult, sample_solution
from dgiga.geofile import load_surface
from dgiga.geometries import full_cylinder, planar_rectangle_patch
from dgiga.geometry import (
    SIDES,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    SingularMapError,
    _tabulate,
    conormal_at,
    edge_breakpoints,
    edge_mesh_size,
    frame_at,
    refine_surface,
    side_param,
    surface_gradient,
    tabulate_patch,
    tabulate_side,
)
from dgiga.quadrature import panel_rules
from dgiga.space import build_space
from dgiga.splines import breakpoints, eval_nurbs2d

BUNDLED_FILES = ("square4.g", "square4_p2.g", "square4_p3.g", "qcyl4.g", "qcyl4_p3.g")
GEOMETRIES = {
    **{name: lambda name=name: load_surface(bundled(name)) for name in BUNDLED_FILES},
    "full_cylinder_p3": lambda: full_cylinder(3),
    "flipped_interface": lambda: two_patches(flip_right=True),
}


@pytest.fixture(params=sorted(GEOMETRIES), scope="module")
def surface(request):
    # One refinement, so every patch and side has several elements.
    return refine_surface(GEOMETRIES[request.param]())


def random_function(surface):
    space = build_space(surface, surface.patches[0].degree[0])
    return space.function(np.random.default_rng(5).standard_normal(space.total_dofs))


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-13)


def check_point(patch, tab, surface_grads, idx, xi):
    """Basis, surface gradients, point and area density at tab[idx] against xi."""
    vals, grads, window = eval_nurbs2d(patch.basis, xi)
    frame = frame_at(patch, xi)
    lead = tab.sqrt_det_g.shape
    first = (np.broadcast_to(tab.first_u, lead)[idx], np.broadcast_to(tab.first_v, lead)[idx])
    assert first == window
    close(tab.values[idx], vals)
    close(tab.grads[idx], grads)
    for a, b in np.ndindex(vals.shape):
        close(surface_grads[idx][a, b], surface_gradient(frame, grads[a, b]))
    close(tab.points[idx], frame.point)
    close(tab.sqrt_det_g[idx], frame.sqrt_det_g)


def test_patch_tabulation_matches_pointwise(surface):
    u_h = random_function(surface)
    q = u_h.space.degree + 2
    for pid, patch in enumerate(surface.patches):
        tab = tabulate_patch(patch, q)
        xu, wu = panel_rules(breakpoints(patch.basis.basis_u), q)
        xv, wv = panel_rules(breakpoints(patch.basis.basis_v), q)
        G = tab.surface_gradient(tab.grads)
        values, grads = u_h.eval_tabulated(pid, tab)
        for idx in np.ndindex(tab.sqrt_det_g.shape):
            eu, ev, i, j = idx
            xi = (xu[eu, i], xv[ev, j])
            check_point(patch, tab, G, idx, xi)
            close(tab.weights[idx], wu[eu, i] * wv[ev, j] * frame_at(patch, xi).sqrt_det_g)
            value, grad = u_h.eval(pid, xi)
            close(values[idx], value)
            close(grads[idx], grad)


def test_side_tabulation_matches_pointwise(surface):
    q = surface.patches[0].degree[0] + 1
    for edge in surface.edges:
        pid, side = edge.left
        patch = surface.patches[pid]
        left = tabulate_side(patch, side, q)
        G = left.surface_gradient(left.grads)
        ts, wt = panel_rules(edge_breakpoints(surface, edge), q)
        assert left.chords.shape == (ts.shape[0],)
        for e in range(ts.shape[0]):
            close(left.chords[e], edge_mesh_size(surface, edge, e))
        for idx in np.ndindex(ts.shape):
            t = float(ts[idx])
            check_point(patch, left, G, idx, side_param(side, t))
            jacobian = frame_at(patch, side_param(side, t)).jacobian
            tangent = jacobian[:, 1] if side in ("west", "east") else jacobian[:, 0]
            close(left.speed[idx], np.linalg.norm(tangent))
            close(left.weights[idx], wt[idx] * left.speed[idx])
            close(left.conormal[idx], conormal_at(surface, edge, "left", t))
        if edge.right is None:
            continue
        pid_r, side_r = edge.right
        right = tabulate_side(surface.patches[pid_r], side_r, q)
        if edge.orientation_flip:
            right = right.reversed()
        G = right.surface_gradient(right.grads)
        for idx in np.ndindex(ts.shape):
            t = float(ts[idx])
            xi = side_param(side_r, edge.partner_t(t))
            check_point(surface.patches[pid_r], right, G, idx, xi)
            close(right.points[idx], left.points[idx])
            close(right.conormal[idx], conormal_at(surface, edge, "right", t))


def test_grid_tabulation_matches_pointwise_up_to_xi_one(surface):
    ts = np.linspace(0.0, 1.0, 5)  # hits the interior knot 0.5 and xi = 1
    for patch in surface.patches:
        tab = _tabulate(patch, ts, ts)
        G = tab.surface_gradient(tab.grads)
        for idx in np.ndindex(tab.sqrt_det_g.shape):
            check_point(patch, tab, G, idx, (ts[idx[0]], ts[idx[1]]))


def test_sample_solution_matches_pointwise_evaluation(surface):
    u_h = random_function(surface)
    result = LevelResult(0, surface, u_h, None, None)
    for line in sample_solution(result, points_per_side=4).splitlines()[1:]:
        pid, x1, x2, x, y, z, uh = line.split(",")
        xi = (float(x1), float(x2))
        close([float(x), float(y), float(z)], surface.patches[int(pid)].point(xi))
        close(float(uh), u_h.eval(int(pid), xi)[0])


def collapsed_layout():
    good = planar_rectangle_patch(1, pid=0)
    bad = NurbsPatch(good.basis, np.zeros_like(good.control_points), 1)
    edges = [InterfaceEdge("dirichlet", (pid, side)) for pid in (0, 1) for side in SIDES]
    return build_space(MultiPatchSurface([good, bad], edges), 1)


@pytest.mark.parametrize("assemble", [assemble_system, assemble_volume, assemble_boundary])
def test_assembly_reports_singular_patch(assemble):
    with pytest.raises(SingularMapError, match="patch 1"):
        assemble(collapsed_layout(), ProblemData())
