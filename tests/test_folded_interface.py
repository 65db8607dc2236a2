"""Edge terms against a pointwise SIPG assembly.

Two unit squares meet at a 120 degree dihedral along one edge, with their
edge parameters opposed and both turned by one generic rotation, so the
right side's own conormal is not minus the left one and no component of
either vanishes.  The interface terms must take the normal derivatives of
both sides along the left conormal, as ``_side_terms`` chooses it.  The
same pointwise oracle checks the edge terms (``_edge_terms``) on a seeded layout with
flipped interfaces and all three edge kinds.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation
from oracles import (
    conormal_at,
    edge_breakpoints,
    edge_matrix,
    edge_mesh_size,
    eval_nurbs2d,
    frame_at,
    global_window,
    partner_t,
    side_param,
    surface_gradient,
)
from test_geometry import seeded_grid

from dgiga.assembly import ProblemData, _side_terms, edge_alpha, interface_slots
from dgiga.geometries import planar_rectangle_patch
from dgiga.geometry import NurbsPatch, match_interfaces, refine_surface, tabulate_sides
from dgiga.quadrature import panel_rules
from dgiga.space import build_space

P = 2
PHI = np.pi / 3  # the wall's slope over the square's plane: a 120 degree dihedral
ROTATION = Rotation.from_rotvec([0.4, -0.9, 0.7]).as_matrix()


def folded_space():
    """The square (u, v, 0) and the wall (1 + cos(PHI) u, 1 - v, sin(PHI) u),
    joined along x = 1, z = 0 against each other's v, both turned by ROTATION.

    The outer sides are Neumann, so without g_N only interface terms enter.
    """
    flat = planar_rectangle_patch(P, pid=0)
    u, v = flat.control_points[..., 0], flat.control_points[..., 1]
    wall = np.stack([1.0 + np.cos(PHI) * u, v, np.sin(PHI) * u], axis=-1)[:, ::-1]
    patches = [NurbsPatch(flat.basis, cp @ ROTATION.T, pid)
               for pid, cp in enumerate((flat.control_points, wall))]
    tags = {(pid, side): "neumann" for pid in (0, 1)
            for side in ("west", "east", "south", "north")}
    del tags[(0, "east")], tags[(1, "west")]
    surface = refine_surface(match_interfaces(patches, tags, alpha=[1.0, 3.0]))
    return build_space(surface, P)


def trace(space, pid, xi, normal):
    """Global indices, values and normal derivatives along ``normal`` at one point."""
    patch = space.surface.patches[pid]
    vals, grads, (a1, a2) = eval_nurbs2d(patch.basis, xi)
    frame = frame_at(patch, xi)
    m1, m2 = vals.shape
    gidx = global_window(space, pid, a1, a2, m1, m2)
    dn = [surface_gradient(frame, grads[a, b]) @ normal for a, b in np.ndindex(m1, m2)]
    return gidx.ravel(), vals.ravel(), np.array(dn)


def dense(n, gidx, values):
    out = np.zeros(n)
    np.add.at(out, gidx, values)
    return out


def pointwise_edges(space, data):
    """Matrix and load of the edge terms, point by point through ``frame_at``."""
    surface, q, n = space.surface, space.degree + 1, space.total_dofs
    matrix, rhs = np.zeros((n, n)), np.zeros(n)
    for edge in surface.edges:
        (pid_l, side_l), alpha_l = edge.left, surface.alpha[edge.left[0]]
        ts, wt = panel_rules(edge_breakpoints(surface, edge), q)
        for e, i in np.ndindex(ts.shape):
            t = float(ts[e, i])
            xi = side_param(side_l, t)
            frame = frame_at(surface.patches[pid_l], xi)
            tangent = frame.jacobian[:, 1 if side_l in ("west", "east") else 0]
            w = wt[e, i] * np.linalg.norm(tangent)
            normal = conormal_at(surface, edge, "left", t)
            gidx, vals, dn = trace(space, pid_l, xi, normal)
            h = edge_mesh_size(surface, edge, e)
            if edge.kind == "neumann":
                if data.g_N is not None:
                    rhs += w * data.g_N(frame.point[None])[0] * dense(n, gidx, vals)
                continue
            jump, flux = dense(n, gidx, vals), dense(n, gidx, alpha_l * dn)
            if edge.kind == "interior":
                pid_r, side_r = edge.right
                alpha_r = surface.alpha[pid_r]
                right = trace(space, pid_r, side_param(side_r, partner_t(edge, t)), normal)
                jump -= dense(n, right[0], right[1])
                flux = 0.5 * (flux + dense(n, right[0], alpha_r * right[2]))
                pen = data.delta * edge_alpha(alpha_l, alpha_r) / h
            else:
                pen = data.delta * alpha_l / h
                if data.g_D is not None:
                    rhs += w * data.g_D(frame.point[None])[0] * (pen * jump - flux)
            matrix += w * (pen * np.outer(jump, jump) - np.outer(flux, jump)
                           - np.outer(jump, flux))
    return matrix, rhs


def test_fold_takes_normal_derivatives_along_the_left_conormal():
    space = folded_space()
    surface, q = space.surface, P + 1
    (edge,) = surface.edges_of_kind("interior")
    assert edge.orientation_flip
    (pid_l, side_l), (pid_r, side_r) = edge.left, edge.right
    ts, _ = panel_rules(edge_breakpoints(surface, edge), q)
    tab = tabulate_sides(surface.patches, interface_slots([edge]), q)
    half = tab.chords.size // 2
    gidx, _, dn = _side_terms(space, tab, half, 2 * half)
    n = space.total_dofs
    # The fold: the right side's own conormal is far from -n_left.
    assert np.min(np.linalg.norm(tab.conormal[:, :half] + tab.conormal[:, half:], axis=0)) > 0.5
    for e, i in np.ndindex(ts.shape):
        t = float(ts[e, i])
        n_left = conormal_at(surface, edge, "left", t)
        left = trace(space, pid_l, side_param(side_l, t), n_left)
        right = trace(space, pid_r, side_param(side_r, partner_t(edge, t)), n_left)
        # By global index: functions outside the trace window have dn = 0.
        for row, (ref_gidx, _, ref_dn) in ((e, left), (half + e, right)):
            np.testing.assert_allclose(dense(n, gidx[row], dn[row, i]),
                                       dense(n, ref_gidx, ref_dn), rtol=0.0, atol=1e-13)
    data = ProblemData(delta=10.0)
    expected, _ = pointwise_edges(space, data)
    matrix, _ = edge_matrix(space, data)
    np.testing.assert_allclose(matrix, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("seed", [7, 11])
def test_edge_assembly_matches_pointwise_on_a_flipped_layout(seed):
    surface = seeded_grid(seed, 3)
    assert {e.kind for e in surface.edges} == {"interior", "dirichlet", "neumann"}
    space = build_space(surface, P)
    data = ProblemData(
        g_D=lambda x: 1.0 + x[:, 0] * x[:, 1] - x[:, 1] ** 2,
        g_N=lambda x: x[:, 0] - 2.0 * x[:, 1] ** 3,
        delta=24.0,
    )
    expected, load = pointwise_edges(space, data)
    matrix, rhs = edge_matrix(space, data)
    np.testing.assert_allclose(matrix, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
    np.testing.assert_allclose(rhs, load, rtol=0.0, atol=1e-13 * np.abs(load).max())
