"""Interface terms on a folded surface.

Two unit squares meet at a 90 degree dihedral along one edge, so the right
side's own conormal is not minus the left one.  The interface terms must
take the normal derivatives of both sides along the left conormal.
"""

import numpy as np
from oracles import conormal_at, edge_breakpoints, edge_mesh_size

from dgiga.assembly import ProblemData, _side_terms, assemble_interface, interface_slots
from dgiga.geometries import planar_rectangle_patch
from dgiga.geometry import (
    NurbsPatch,
    frame_at,
    match_interfaces,
    refine_surface,
    side_param,
    surface_gradient,
    tabulate_sides,
)
from dgiga.quadrature import panel_rules
from dgiga.space import build_space
from dgiga.splines import eval_nurbs2d

P = 2


def folded_space():
    """The square z = 0 and the square x = 1 (rising in z), joined along x = 1, z = 0."""
    flat = planar_rectangle_patch(P, pid=0)
    cp = flat.control_points
    wall = np.stack([np.ones_like(cp[..., 0]), cp[..., 1], cp[..., 0]], axis=-1)
    patches = [flat, NurbsPatch(flat.basis, wall, 1)]
    tags = {(pid, side): "dirichlet" for pid in (0, 1)
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
    gidx = space.global_block(pid, a1, a2, m1, m2)
    dn = [surface_gradient(frame, grads[a, b]) @ normal for a, b in np.ndindex(m1, m2)]
    return gidx.ravel(), vals.ravel(), np.array(dn)


def test_fold_takes_normal_derivatives_along_the_left_conormal():
    space = folded_space()
    surface, q = space.surface, P + 1
    (edge,) = surface.edges_of_kind("interior")
    (pid_l, side_l), (pid_r, side_r) = edge.left, edge.right
    ts, wt = panel_rules(edge_breakpoints(surface, edge), q)
    tab = tabulate_sides(surface.patches, interface_slots([edge]), q)
    half = tab.chords.size // 2
    normal = np.concatenate([tab.conormal[:half]] * 2)
    _, _, dn = _side_terms(space, tab, normal)
    data = ProblemData(delta=10.0)
    expected = np.zeros((space.total_dofs, space.total_dofs))
    for e, i in np.ndindex(ts.shape):
        t = float(ts[e, i])
        n_left = conormal_at(surface, edge, "left", t)
        # The fold: the right side's own conormal is not -n_left.
        assert abs(conormal_at(surface, edge, "right", t) @ n_left) < 1e-13
        left = trace(space, pid_l, side_param(side_l, t), n_left)
        right = trace(space, pid_r, side_param(side_r, edge.partner_t(t)), n_left)
        np.testing.assert_allclose(dn[e, i], left[2], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dn[half + e, i], right[2], rtol=0.0, atol=1e-13)
        jump, flux = np.zeros(space.total_dofs), np.zeros(space.total_dofs)
        for (gidx, vals, dn_q), sign, pid in ((left, 1.0, pid_l), (right, -1.0, pid_r)):
            np.add.at(jump, gidx, sign * vals)
            np.add.at(flux, gidx, 0.5 * surface.alpha[pid] * dn_q)
        jacobian = frame_at(surface.patches[pid_l], side_param(side_l, t)).jacobian
        speed = np.linalg.norm(jacobian[:, 1])
        pen = data.delta * surface.alpha.mean() / edge_mesh_size(surface, edge, e)
        coupling = pen * np.outer(jump, jump) - np.outer(flux, jump) - np.outer(jump, flux)
        expected += wt[e, i] * speed * coupling
    matrix = assemble_interface(space, data).matrix.toarray()
    np.testing.assert_allclose(matrix, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
