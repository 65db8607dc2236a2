import numpy as np
import pytest

from dgiga.geometries import (
    _arc_segments,
    planar_rectangle_patch,
    quarter_cylinder_grid,
    quarter_cylinder_patch,
    square_grid,
)
from dgiga.geometry import (
    NurbsPatch,
    SingularMapError,
    TopologyError,
    _refine_patch,
    conormal,
    conormal_at,
    edge_breakpoints,
    edge_mesh_size,
    frame_at,
    match_interfaces,
    mesh_size,
    refine_surface,
    side_param,
    surface_gradient,
    surface_normal,
)
from dgiga.splines import NurbsBasis2D, greville, uniform_open_knots


def test_identity_patch_frame(rng):
    patch = planar_rectangle_patch(2)
    for _ in range(20):
        frame = frame_at(patch, rng.random(2))
        np.testing.assert_allclose(frame.metric, np.eye(2), atol=1e-13)
        assert frame.sqrt_det_g == pytest.approx(1.0, abs=1e-13)


def test_quarter_cylinder_midparameter_hits_45_degrees():
    patch = quarter_cylinder_patch(2)
    np.testing.assert_allclose(
        patch.basis.weights[:, 0], [1.0, np.sqrt(2) / 2, 1.0], atol=1e-15
    )
    for z in (0.0, 0.3, 1.0):
        frame = frame_at(patch, (0.5, z))
        np.testing.assert_allclose(
            frame.point, [np.sqrt(2) / 2, np.sqrt(2) / 2, z], atol=1e-14
        )


def test_quarter_cylinder_lies_on_circle(rng):
    patch = quarter_cylinder_patch(2)
    for _ in range(100):
        pt = patch.point(rng.random(2))
        assert abs(np.hypot(pt[0], pt[1]) - 1.0) <= 1e-12


def test_surface_gradient_planar_identity(rng):
    patch = planar_rectangle_patch(1)
    for _ in range(10):
        frame = frame_at(patch, rng.random(2))
        pg = rng.normal(size=2)
        np.testing.assert_allclose(
            surface_gradient(frame, pg), [pg[0], pg[1], 0.0], atol=1e-13
        )
        np.testing.assert_allclose(surface_gradient(frame, [0, 0]), 0.0, atol=1e-15)


def test_surface_gradient_of_height_on_cylinder(rng):
    # The cylinder's z coordinate equals the second parameter, so the
    # tangential gradient of the height function is the axis direction.
    patch = quarter_cylinder_patch(2)
    for _ in range(20):
        frame = frame_at(patch, rng.random(2))
        np.testing.assert_allclose(
            surface_gradient(frame, [0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-12
        )


@pytest.mark.parametrize(
    "surface_fn", [lambda: square_grid(2), lambda: quarter_cylinder_grid(2)]
)
def test_tangency_of_surface_gradients(surface_fn, rng):
    surface = surface_fn()
    for _ in range(1000):
        pid = int(rng.integers(surface.num_patches))
        patch = surface.patches[pid]
        frame = frame_at(patch, rng.random(2))
        grad = surface_gradient(frame, rng.normal(size=2))
        assert abs(grad @ surface_normal(frame)) <= 1e-10 * max(1.0, np.linalg.norm(grad))


def test_conormal_examples():
    patch = planar_rectangle_patch(1)
    np.testing.assert_allclose(conormal(patch, "east", 0.4), [1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(conormal(patch, "west", 0.7), [-1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(conormal(patch, "south", 0.2), [0, -1, 0], atol=1e-14)
    np.testing.assert_allclose(conormal(patch, "north", 0.9), [0, 1, 0], atol=1e-14)


def test_conormal_on_cylinder_top_edge(rng):
    # Top edge (z = 1): the conormal is the cylinder axis, orthogonal to a
    # finite-difference tangent of the edge curve.
    patch = quarter_cylinder_patch(2)
    for t in rng.random(10):
        c = conormal(patch, "north", float(t))
        np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-12)
        h = 1e-6
        t0, t1 = np.clip([t - h, t + h], 0.0, 1.0)
        fd_tangent = patch.side_point("north", t1) - patch.side_point("north", t0)
        fd_tangent /= np.linalg.norm(fd_tangent)
        assert abs(c @ fd_tangent) <= 1e-6


def test_two_squares_have_opposite_conormals(rng):
    surface = square_grid(1, nx=2, ny=1)
    (edge,) = surface.edges_of_kind("interior")
    for t in rng.random(10):
        n_l = conormal_at(surface, edge, "left", float(t))
        n_r = conormal_at(surface, edge, "right", float(t))
        np.testing.assert_allclose(n_l, -n_r, atol=1e-14)


@pytest.mark.parametrize(
    "surface_fn", [lambda: square_grid(1), lambda: quarter_cylinder_grid(2)]
)
def test_interior_edge_consistency(surface_fn, rng):
    surface = surface_fn()
    for edge in surface.edges_of_kind("interior"):
        pid_l, side_l = edge.left
        pid_r, side_r = edge.right
        for t in rng.random(20):
            a = surface.patches[pid_l].side_point(side_l, float(t))
            b = surface.patches[pid_r].side_point(side_r, edge.partner_t(float(t)))
            assert np.linalg.norm(a - b) <= 1e-10
            n_l = conormal_at(surface, edge, "left", float(t))
            n_r = conormal_at(surface, edge, "right", float(t))
            assert np.linalg.norm(n_l + n_r) <= 1e-8


def test_match_counts_square_and_cylinder():
    square = square_grid(1)
    assert len(square.edges_of_kind("interior")) == 4
    assert len(square.edges_of_kind("dirichlet")) == 8
    cyl = quarter_cylinder_grid(2)
    assert len(cyl.edges_of_kind("interior")) == 4
    assert len(cyl.edges_of_kind("dirichlet")) == 8


def test_unmatched_untagged_side_raises():
    patches = [planar_rectangle_patch(1, pid=0)]
    with pytest.raises(TopologyError, match="no boundary tag"):
        match_interfaces(patches, {(0, "west"): "dirichlet"})


def test_tag_on_interior_side_raises():
    surface = square_grid(1, nx=2, ny=1)
    patches = surface.patches
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    tags[(0, "east")] = "dirichlet"  # interior side
    with pytest.raises(TopologyError, match="interior side"):
        match_interfaces(patches, tags)


def test_nonmatching_meshes_rejected():
    surface = square_grid(1, nx=2, ny=1)
    patches = [surface.patches[0], _refine_patch(surface.patches[1])]
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    with pytest.raises(TopologyError, match="non-matching meshes"):
        match_interfaces(patches, tags)


def test_metric_spd_at_quadrature_points(rng):
    from dgiga.quadrature import panel_rules
    from dgiga.splines import breakpoints

    for surface in (square_grid(1), quarter_cylinder_grid(2)):
        for patch in surface.patches:
            q = patch.degree[0] + 1
            xu, _ = panel_rules(breakpoints(patch.basis.basis_u), q)
            xv, _ = panel_rules(breakpoints(patch.basis.basis_v), q)
            for x1 in xu.ravel():
                for x2 in xv.ravel():
                    ev = np.linalg.eigvalsh(frame_at(patch, (x1, x2)).metric)
                    assert np.all(ev > 0)


def test_mesh_sizes_on_uniform_square():
    kv = uniform_open_knots(1, 4)
    g = greville(kv)
    cp = np.zeros((kv.n, kv.n, 3))
    cp[:, :, 0] = g[:, None]
    cp[:, :, 1] = g[None, :]
    patch = NurbsPatch(NurbsBasis2D(kv, kv, np.ones((kv.n, kv.n))), cp, 0)
    for eu in range(4):
        for ev in range(4):
            assert mesh_size(patch, (eu, ev)) == pytest.approx(np.sqrt(2) / 4, abs=1e-14)
    surface = match_interfaces([patch], {(0, s): "dirichlet" for s in ("west", "east", "south", "north")})
    for edge in surface.edges:
        assert edge_breakpoints(surface, edge).size == 5
        for e in range(4):
            assert edge_mesh_size(surface, edge, e) == pytest.approx(0.25, abs=1e-14)


def test_refinement_halves_h_on_affine_patches():
    surface = square_grid(2)
    fine = refine_surface(surface)
    h0 = mesh_size(surface.patches[0], (0, 0))
    h1 = mesh_size(fine.patches[0], (0, 0))
    assert abs(h1 - 0.5 * h0) <= 1e-12


def test_cylinder_edge_chord_matches_angle_formula():
    # Symmetric 45-degree arc: one refinement splits the bottom edge into
    # elements of exactly pi/8 opening, whose chord is 2 sin(pi/16).
    (xy, w_arc), = _arc_segments(0.0, np.pi / 4, 2, 1)
    from dgiga.geometries import _bezier_knots

    kv = _bezier_knots(2)
    gz = greville(kv)
    cp = np.empty((3, 3, 3))
    cp[:, :, 0] = xy[:, 0:1]
    cp[:, :, 1] = xy[:, 1:2]
    cp[:, :, 2] = gz[None, :]
    patch = NurbsPatch(NurbsBasis2D(kv, kv, np.repeat(w_arc[:, None], 3, axis=1)), cp, 0)
    surface = match_interfaces(
        [patch], {(0, s): "dirichlet" for s in ("west", "east", "south", "north")}
    )
    surface = refine_surface(surface)
    south = [e for e in surface.edges if e.left[1] == "south"][0]
    patch = surface.patches[0]
    bp = edge_breakpoints(surface, south)
    for e in range(bp.size - 1):
        a = patch.side_point("south", bp[e])
        b = patch.side_point("south", bp[e + 1])
        dtheta = np.arctan2(b[1], b[0]) - np.arctan2(a[1], a[0])
        assert dtheta == pytest.approx(np.pi / 8, abs=1e-12)
        assert edge_mesh_size(surface, south, e) == pytest.approx(
            2 * np.sin(np.pi / 16), abs=1e-12
        )


def test_singular_parameterization_reports_location():
    patch = planar_rectangle_patch(1)
    collapsed = NurbsPatch(patch.basis, np.zeros_like(patch.control_points), 7)
    with pytest.raises(SingularMapError, match="patch 7"):
        frame_at(collapsed, (0.5, 0.5))


def test_side_param_conventions():
    assert side_param("west", 0.3) == (0.0, 0.3)
    assert side_param("east", 0.3) == (1.0, 0.3)
    assert side_param("south", 0.3) == (0.3, 0.0)
    assert side_param("north", 0.3) == (0.3, 1.0)
