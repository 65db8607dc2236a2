import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import (edge_breakpoints, edge_mesh_size, gauss_tabulation, mesh_size, partner_t,
                     refine_patch, uniform_open_knots)
from test_tabulation import GEOMETRIES

from dgiga.assembly import assemble_system, default_penalty, interface_slots
from dgiga.driver import run_sweep
from dgiga.geometries import (
    _arc_segments,
    _outer_tags,
    full_cylinder,
    planar_rectangle_patch,
    quarter_cylinder_grid,
    square_grid,
)
from dgiga.geometry import (
    MATCH_TOL,
    SIDES,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    SingularMapError,
    TopologyError,
    _refine_nets,
    knot_groups,
    match_interfaces,
    refine_surface,
    tabulate_grid,
    tabulate_sides,
)
from dgiga.problems import make_problem
from dgiga.quadrature import panel_rules
from dgiga.splines import KnotVector, NurbsBasis2D, greville, midpoint_refine


def metric(tab):
    """First fundamental form J^T J at every point of a tabulation."""
    return np.einsum("ki...,kj...->...ij", tab.jacobian, tab.jacobian)


def unit_normal(tab):
    nu = np.cross(tab.jacobian[:, 0], tab.jacobian[:, 1], axis=0)
    return nu / np.linalg.norm(nu, axis=0, keepdims=True)


def edge_tabulation(surface, edge, q=4):
    """Both slots of an interior edge at the same q Gauss points per element."""
    tab = tabulate_sides(surface.patches, interface_slots([edge]), q)
    return tab, tab.starts[1]


def test_identity_patch_frame(rng):
    patch = planar_rectangle_patch(2)
    tab = tabulate_grid([patch], rng.random(5), rng.random(4))
    np.testing.assert_allclose(metric(tab), np.broadcast_to(np.eye(2), metric(tab).shape),
                               atol=1e-13)
    np.testing.assert_allclose(tab.sqrt_det_g, 1.0, atol=1e-13)


def fingerprint(built) -> str:
    """Hash of the exact bits of a patch or surface: nets, weights, knots, edges."""
    patches, edges = (built.patches, built.edges) if isinstance(built, MultiPatchSurface) else ([built], [])
    h = hashlib.sha256()
    for patch in patches:
        for a in (patch.control_points, patch.basis.weights,
                  patch.basis.basis_u.knots, patch.basis.basis_v.knots):
            h.update(a.tobytes())
    h.update(repr([(e.kind, e.left, e.right, e.orientation_flip) for e in edges]).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("build, expected", [
    (lambda: quarter_cylinder_grid(2, 1, 1).patches[0], "75b3456f412ca74c"),
    (lambda: quarter_cylinder_grid(3, 1, 1, radius=2.0, height=0.5).patches[0], "ec63d6ef444a68e2"),
    (lambda: quarter_cylinder_grid(3, 4, 3, height=2.0), "a26f44cf15d98539"),
    (lambda: full_cylinder(2), "94374a310912213e"),
    (lambda: full_cylinder(3, 2, bc="dirichlet", radius=0.5), "1e7bf606e8681a9f"),
], ids=["quarter_patch_p2", "quarter_patch_p3", "quarter_grid_p3", "full_p2", "full_p3"])
def test_cylinder_builders_are_pinned_bit_for_bit(build, expected):
    assert fingerprint(build()) == expected


def test_non_finite_alpha_and_weights_rejected():
    patch = planar_rectangle_patch(1)
    for alpha in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="diffusion coefficients"):
            MultiPatchSurface([patch], [], alpha=[alpha])
    basis = patch.basis
    for w in (np.nan, np.inf, -1.0):
        weights = basis.weights.copy()
        weights[1, 0] = w
        with pytest.raises(ValueError, match="weights"):
            NurbsBasis2D(basis.basis_u, basis.basis_v, weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_control_points_rejected(bad):
    """They passed, and a later tabulation raised SingularMapError at (0, 0)."""
    patch = planar_rectangle_patch(2)
    cp = patch.control_points.copy()
    cp[1, 2, 0] = bad
    with pytest.raises(ValueError, match="control points must be finite"):
        NurbsPatch(patch.basis, cp, 0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="control points"):
        quarter_cylinder_grid(2, radius=bad)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="control points"):
        full_cylinder(3, radius=bad)


def test_quarter_cylinder_midparameter_hits_45_degrees():
    patch = quarter_cylinder_grid(2, 1, 1).patches[0]
    np.testing.assert_allclose(
        patch.basis.weights[:, 0], [1.0, np.sqrt(2) / 2, 1.0], atol=1e-15
    )
    zs = np.array([0.0, 0.3, 1.0])
    points = tabulate_grid([patch], [0.5], zs).points.reshape(3, 3)
    expected = np.stack([np.full(3, np.sqrt(2) / 2), np.full(3, np.sqrt(2) / 2), zs])
    np.testing.assert_allclose(points, expected, atol=1e-14)


def test_quarter_cylinder_lies_on_circle(rng):
    patch = quarter_cylinder_grid(2, 1, 1).patches[0]
    pts = tabulate_grid([patch], rng.random(10), rng.random(10)).points
    assert np.max(np.abs(np.hypot(pts[0], pts[1]) - 1.0)) <= 1e-12


def test_surface_gradient_planar_identity(rng):
    patch = planar_rectangle_patch(1)
    tab = tabulate_grid([patch], rng.random(4), rng.random(3))
    pg = rng.normal(size=(2,) + tab.sqrt_det_g.shape)
    expected = np.concatenate([pg, np.zeros((1,) + pg.shape[1:])])
    np.testing.assert_allclose(tab.surface_gradient(pg), expected, atol=1e-13)
    np.testing.assert_allclose(tab.surface_gradient(np.zeros_like(pg)), 0.0, atol=1e-15)


def test_surface_gradient_of_height_on_cylinder(rng):
    # The cylinder's z coordinate equals the second parameter, so the
    # tangential gradient of the height function is the axis direction.
    patch = quarter_cylinder_grid(2, 1, 1).patches[0]
    tab = tabulate_grid([patch], rng.random(5), rng.random(4))
    pg = np.broadcast_to(np.array([0.0, 1.0]).reshape(2, 1, 1, 1), (2,) + tab.sqrt_det_g.shape)
    grads = tab.surface_gradient(pg)
    expected = np.broadcast_to(np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1), grads.shape)
    np.testing.assert_allclose(grads, expected, atol=1e-12)


@pytest.mark.parametrize(
    "surface_fn", [lambda: square_grid(2), lambda: quarter_cylinder_grid(2)]
)
def test_tangency_of_surface_gradients(surface_fn, rng):
    surface = surface_fn()
    for patch in surface.patches:
        tab = tabulate_grid([patch], rng.random(16), rng.random(16))
        grad = tab.surface_gradient(rng.normal(size=(2,) + tab.sqrt_det_g.shape))
        normal_part = np.abs(np.sum(grad * unit_normal(tab), axis=0))
        assert np.all(normal_part <= 1e-10 * np.maximum(1.0, np.linalg.norm(grad, axis=0)))


def test_conormal_examples():
    patch = planar_rectangle_patch(1)
    expected = {"east": [1, 0, 0], "west": [-1, 0, 0], "south": [0, -1, 0], "north": [0, 1, 0]}
    for side, n in expected.items():
        for flip in (False, True):
            c = tabulate_sides([patch], [(0, side, flip)], 3).conormal
            np.testing.assert_allclose(c, np.broadcast_to(np.reshape(n, (3, 1, 1)), c.shape), atol=1e-14)


def test_conormal_on_cylinder_top_edge(rng):
    # Top edge (z = 1): the conormal is the cylinder axis, orthogonal to a
    # finite-difference tangent of the edge curve.
    patch = quarter_cylinder_grid(2, 1, 1).patches[0]
    q = 10
    conormals = tabulate_sides([patch], [(0, "north", False)], q).conormal.reshape(3, -1).T
    ts, _ = panel_rules(patch.side_knots("north").breaks, q)
    for t, c in zip(ts.ravel(), conormals):
        np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-12)
        h = 1e-6
        t0, t1 = np.clip([t - h, t + h], 0.0, 1.0)
        fd_tangent = patch.side_point("north", t1) - patch.side_point("north", t0)
        fd_tangent /= np.linalg.norm(fd_tangent)
        assert abs(c @ fd_tangent) <= 1e-6


def test_two_squares_have_opposite_conormals(rng):
    surface = square_grid(1, nx=2, ny=1)
    (edge,) = surface.edges_of_kind("interior")
    tab, half = edge_tabulation(surface, edge, q=10)
    np.testing.assert_allclose(tab.conormal[:, :half], -tab.conormal[:, half:], atol=1e-14)


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
            b = surface.patches[pid_r].side_point(side_r, partner_t(edge, float(t)))
            assert np.linalg.norm(a - b) <= 1e-10
        tab, half = edge_tabulation(surface, edge)
        assert np.max(np.linalg.norm(tab.points[:, :half] - tab.points[:, half:], axis=0)) <= 1e-10
        assert np.max(np.linalg.norm(tab.conormal[:, :half] + tab.conormal[:, half:], axis=0)) <= 1e-8


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
    patches = [surface.patches[0], refine_patch(surface.patches[1])]
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    with pytest.raises(TopologyError, match="non-matching meshes"):
        match_interfaces(patches, tags)


def test_untagged_side_is_reported_before_a_non_matching_mesh():
    surface = square_grid(1, nx=2, ny=1)
    patches = [surface.patches[0], refine_patch(surface.patches[1])]
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    del tags[(0, "west")]
    with pytest.raises(TopologyError, match=r"\(0, 'west'\) matches no neighbor"):
        match_interfaces(patches, tags)


def test_hand_built_interface_between_different_knots_rejected():
    """Same element count, different v breaks: the edge points would pair wrongly."""
    kv_u = KnotVector(2, [0, 0, 0, 1, 1, 1])
    patches = []
    for pid, knots in enumerate(([0, 0, 0, 0.5, 1, 1, 1], [0, 0, 0, 0.3, 1, 1, 1])):
        kv_v = KnotVector(2, knots)
        cp = np.zeros((kv_u.n, kv_v.n, 3))
        cp[..., 0] = pid + greville(kv_u)[:, None]
        cp[..., 1] = greville(kv_v)[None, :]
        patches.append(NurbsPatch(NurbsBasis2D(kv_u, kv_v, np.ones(cp.shape[:2])), cp, pid))
    edges = [InterfaceEdge("interior", (0, "east"), (1, "west"))] + [
        InterfaceEdge("dirichlet", (pid, side))
        for pid, sides in ((0, ("west", "south", "north")), (1, ("east", "south", "north")))
        for side in sides
    ]
    with pytest.raises(TopologyError, match="non-matching meshes"):
        MultiPatchSurface(patches, edges)


def test_hand_built_patch_ids_must_be_list_positions():
    patches = [planar_rectangle_patch(1, pid=1)]
    with pytest.raises(TopologyError, match="patch ids must equal list positions"):
        MultiPatchSurface(patches, [InterfaceEdge("dirichlet", (0, s)) for s in SIDES])


def misspelt_dirichlet(edges):
    return [dataclasses.replace(e, kind="Dirichlet") if e.kind == "dirichlet" else e
            for e in edges]


def replace_first(kind, **changes):
    def edit(edges):
        k = next(k for k, e in enumerate(edges) if e.kind == kind)
        return edges[:k] + [dataclasses.replace(edges[k], **changes)] + edges[k + 1:]
    return edit


@pytest.mark.parametrize("edit, match", [
    # Dropped by edges_of_kind: plane_sine "converged" at rates 0.21 and 0.02.
    (misspelt_dirichlet, "unknown edge kind 'Dirichlet'"),
    (replace_first("interior", right=None), "interior edge .* with right side None"),
    (replace_first("dirichlet", right=(0, "west")), "dirichlet edge .* with right side"),
    (replace_first("dirichlet", left=(0, "top")), r"\(0, top\) is unknown"),
    (replace_first("dirichlet", left=(4, "west")), r"\(4, west\) is unknown"),
    (replace_first("dirichlet", left=(-1, "west")), r"\(-1, west\) is unknown"),
    (lambda edges: edges + [InterfaceEdge("neumann", edges[-1].left)], "in two edges"),
    (lambda edges: edges + [InterfaceEdge("interior", (0, "west"), (0, "west"))],
     "in two edges"),
], ids=["misspelt_kind", "interior_without_right", "boundary_with_right", "unknown_side",
        "pid_too_large", "negative_pid", "side_in_two_edges", "side_paired_with_itself"])
def test_hand_built_malformed_edges_rejected(edit, match):
    surface = square_grid(2)
    with pytest.raises(TopologyError, match=match):
        MultiPatchSurface(surface.patches, edit(list(surface.edges)))


def test_sides_in_no_edge_are_allowed():
    surface = square_grid(2)
    assert MultiPatchSurface(surface.patches, surface.edges_of_kind("interior")).edges
    assert not MultiPatchSurface(surface.patches, []).has_dirichlet


@pytest.mark.parametrize("ids", [(0, 0), (1, 0)])
def test_matcher_reports_patch_ids_that_are_not_list_positions(ids):
    surface = square_grid(1, nx=2, ny=1)
    patches = [NurbsPatch(p.basis, p.control_points, i) for p, i in zip(surface.patches, ids)]
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    with pytest.raises(TopologyError, match="patch ids must equal list positions"):
        match_interfaces(patches, tags)


def test_metric_spd_at_quadrature_points(rng):
    for surface in (square_grid(1), quarter_cylinder_grid(2)):
        for patch in surface.patches:
            tab = gauss_tabulation([patch], patch.degree[0] + 1)
            assert np.all(np.linalg.eigvalsh(metric(tab)) > 0)


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
        tabulate_grid([collapsed], [0.5], [0.5])


@pytest.mark.parametrize("scale", [1e-4, 1e-6])
def test_a_small_patch_solves_like_the_unit_square(scale):
    """A square patch of side 1e-4 (0.1 mm in metres) stopped with
    SingularMapError (det g=1.000e-16) while one of side 1e-3 solved: the test
    compared det g with 1e-14 whatever the patch's size.  Scaled by s, the
    plane sine problem has the unit square's linear system up to rounding, so
    the coefficients may differ only by what CG's stopping rule
    ||b - A x|| <= tol ||b|| leaves each solve: ||x - x*|| <= cond(A) tol ||x*||."""
    tol = 1e-13

    def sweep(s):
        patch = planar_rectangle_patch(2, size=(s, s))
        surface = match_interfaces([patch], {(0, side): "dirichlet" for side in SIDES})
        spec = (f"u=sin(pi*x/{s!r})*sin(pi*y/{s!r}); "
                f"f=2*pi^2/{s!r}^2*(sin(pi*x/{s!r})*sin(pi*y/{s!r}))")
        problem = lambda surf, delta: make_problem(spec, surf, 2, delta)
        return problem, run_sweep(surface, 2, problem, 3, tol=tol)[1]

    problem, unit = sweep(1.0)
    for a, b in zip(unit, sweep(scale)[1]):
        space = a.solution.space
        A = assemble_system(space, problem(space.surface, default_penalty(2))).matrix.toarray()
        x = a.solution.coefficients
        bound = 2 * np.linalg.cond(A) * tol * np.linalg.norm(x)
        assert np.linalg.norm(b.solution.coefficients - x) <= bound


def test_side_param_conventions():
    # On the unit square the map is the identity, so a side point shows
    # which parameter the side fixes and which one t runs along.
    patch = planar_rectangle_patch(2)
    expected = {"west": (0.0, 0.3), "east": (1.0, 0.3), "south": (0.3, 0.0), "north": (0.3, 1.0)}
    for side, xy in expected.items():
        np.testing.assert_allclose(patch.side_point(side, 0.3), [*xy, 0.0], atol=1e-15)


# -- topology carried through refinement ---------------------------------------


def seeded_grid(seed, n=4):
    """n x n unit-square grid with seeded patch ids and u-reversed patches.

    The knot vectors are not symmetric, so a reversed patch's side knots
    match its neighbour's only through the orientation flip.
    """
    rng = np.random.default_rng(seed)
    kv_u = KnotVector(2, [0, 0, 0, 0.3, 1, 1, 1])
    kv_v = KnotVector(2, [0, 0, 0, 0.6, 1, 1, 1])
    gu, gv = greville(kv_u), greville(kv_v)
    ids = rng.permutation(n * n)
    flip = rng.random(n * n) < 0.5
    patches = [None] * (n * n)
    for j in range(n):
        for i in range(n):
            cell = j * n + i
            cp = np.zeros((gu.size, gv.size, 3))
            cp[..., 0] = (i + gu[:, None]) / n
            cp[..., 1] = (j + gv[None, :]) / n
            ku = kv_u
            if flip[cell]:
                ku, cp = KnotVector(2, 1.0 - kv_u.knots[::-1]), cp[::-1]
            pid = int(ids[cell])
            patches[pid] = NurbsPatch(NurbsBasis2D(ku, kv_v, np.ones(cp.shape[:2])), cp, pid)
    tags = {}
    for patch in patches:
        for side in SIDES:
            x, y, _ = patch.side_point(side, 0.5)
            if min(x, y, 1.0 - x, 1.0 - y) < 1e-12:
                tags[(patch.id, side)] = "dirichlet" if x < 0.5 else "neumann"
    surface = match_interfaces(patches, tags, rng.uniform(1.0, 2.0, n * n))
    assert any(e.orientation_flip for e in surface.edges)
    return surface


def edge_tuples(surface):
    return [(e.kind, e.left, e.right, bool(e.orientation_flip)) for e in surface.edges]


TOPOLOGY_CASES = {
    **GEOMETRIES,
    "seeded_grid": lambda: seeded_grid(11),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_CASES))
def test_refinement_carries_the_matched_topology(name):
    surface = TOPOLOGY_CASES[name]()
    for _ in range(2):
        refined = refine_surface(surface)
        tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
        rematched = match_interfaces(refined.patches, tags, surface.alpha)
        assert edge_tuples(refined) == edge_tuples(rematched)
        np.testing.assert_array_equal(refined.alpha, surface.alpha)
        surface = refined


def test_sweep_does_not_rematch_interfaces(monkeypatch):
    import dgiga.geometry

    surface = square_grid(1)

    def forbidden(*args, **kwargs):
        raise AssertionError("match_interfaces called during the sweep")

    monkeypatch.setattr(dgiga.geometry, "match_interfaces", forbidden)
    _, results = run_sweep(
        surface, 1, lambda surf, delta: make_problem("plane_sine", surf, 1, delta), levels=3
    )
    assert [r.errors.dofs for r in results] == [16, 36, 100]


def test_refine_rejects_interior_edge_between_different_knots():
    left = planar_rectangle_patch(1, pid=0)
    right = refine_patch(planar_rectangle_patch(1, origin=(1.0, 0.0), pid=1))
    edges = [InterfaceEdge("interior", (0, "east"), (1, "west"))] + [
        InterfaceEdge("dirichlet", (pid, side))
        for pid, sides in ((0, ("west", "south", "north")), (1, ("east", "south", "north")))
        for side in sides
    ]
    with pytest.raises(TopologyError, match="non-matching meshes"):
        refine_surface(MultiPatchSurface([left, right], edges))


REFINEMENT_CASES = {
    "seeded_grid": lambda: seeded_grid(7, 8),
    "full_cylinder_p3": lambda: full_cylinder(3, 2),
    "quarter_cylinder_p4": lambda: quarter_cylinder_grid(4, 2, 2),
}


@pytest.mark.parametrize("name", sorted(REFINEMENT_CASES))
def test_stacked_refinement_matches_the_per_patch_reference(name):
    """refine_surface equals refine_patch on every patch, bit for bit, over 3 levels."""
    surface = REFINEMENT_CASES[name]()
    reference = list(surface.patches)
    for _ in range(3):
        surface = refine_surface(surface)
        reference = [refine_patch(p) for p in reference]
        for got, want in zip(surface.patches, reference):
            assert got.id == want.id
            assert fingerprint(got) == fingerprint(want)


def dense_refine_nets(patches, grids):
    """``_refine_nets`` with T applied by dense einsum sums."""
    kv_u, Tu = midpoint_refine(patches[0].basis.basis_u)
    kv_v, Tv = midpoint_refine(patches[0].basis.basis_v)
    w = np.stack([p.basis.weights for p in patches])[..., None]
    nets = np.einsum("ij,pjbk->pibk", Tu.toarray(), np.concatenate([grids * w, w], axis=-1))
    nets = np.einsum("ij,pajk->paik", Tv.toarray(), nets)
    return kv_u, kv_v, nets[..., -1], nets[..., :-1] / nets[..., -1:]


@pytest.mark.parametrize("build", [lambda: square_grid(2), lambda: full_cylinder(3, 2)],
                         ids=["square_p2", "cylinder_p3"])
def test_sparse_refinement_equals_the_dense_sums_bit_for_bit(build, rng):
    """At 64 elements a patch and beyond, on control points and on coefficients."""
    surface = build()
    for _ in range(3):
        surface = refine_surface(surface)
    assert surface.patches[0].basis.basis_u.num_elements ** 2 >= 64
    for group in knot_groups(surface.patches):
        members = [surface.patches[pid] for pid in group]
        points = np.stack([p.control_points for p in members])
        for grids in (points, rng.standard_normal(points.shape[:-1] + (1,))):
            got, want = _refine_nets(members, grids), dense_refine_nets(members, grids)
            assert got[:2] == want[:2]
            for a, b in zip(got[2:], want[2:]):
                assert a.tobytes() == b.tobytes()


def test_refinement_runs_once_per_knot_group(monkeypatch):
    import dgiga.geometry

    calls = []
    refine_nets = dgiga.geometry._refine_nets

    def counting(patches, grids):
        calls.append(len(patches))
        return refine_nets(patches, grids)

    monkeypatch.setattr(dgiga.geometry, "_refine_nets", counting)
    surface = seeded_grid(7, 8)
    for _ in range(3):
        groups = dgiga.geometry.knot_groups(surface.patches)
        calls.clear()
        surface = refine_surface(surface)
        assert calls == [len(group) for group in groups]
        assert len(groups) < surface.num_patches


# -- the matcher against an all-pairs reference --------------------------------


def extent_tol(points):
    """MATCH_TOL scaled by the largest side of the points' bounding box."""
    points = np.reshape(points, (-1, 3))
    return MATCH_TOL * np.max(points.max(axis=0) - points.min(axis=0))


def all_pairs_partners(patches):
    """Every side against every later side at 5 pointwise samples."""
    ts = np.linspace(0.0, 1.0, 5)
    sides = [(p.id, side) for p in patches for side in SIDES]
    samples = {s: np.array([patches[s[0]].side_point(s[1], t) for t in ts]) for s in sides}
    tol = extent_tol(list(samples.values()))
    partner = {}
    for a, sa in enumerate(sides):
        if sa in partner:
            continue
        for sb in sides[a + 1 :]:
            if sb in partner:
                continue
            A, B = samples[sa], samples[sb]
            straight = np.max(np.linalg.norm(A - B, axis=1))
            reversed_ = np.max(np.linalg.norm(A - B[::-1], axis=1))
            if min(straight, reversed_) > tol:
                continue
            if sa in partner:
                raise TopologyError(f"side {sb} matches more than one side")
            partner[sa] = (sb, reversed_ < straight)
            partner[sb] = (sa, reversed_ < straight)
    return sides, partner


def all_pairs_edges(patches, tags):
    sides, partner = all_pairs_partners(patches)
    edges, seen = [], set()
    for s in sides:
        if s in seen:
            continue
        if s in partner:
            other, flip = partner[s]
            seen.update((s, other))
            edges.append(("interior", s, other, bool(flip)))
        else:
            seen.add(s)
            edges.append((tags[s], s, None, False))
    return edges


def random_layout(rng):
    """Rectangles on a random grid with holes, flipped and transposed patches.

    Whole columns share a midpoint x (vertical sides on one grid line,
    horizontal sides of one column), also across holes.
    """
    nx, ny = rng.integers(1, 5, size=2)
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, nx))])
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, ny))])
    p = int(rng.integers(1, 4))
    cells = [(i, j) for j in range(ny) for i in range(nx) if rng.random() < 0.8] or [(0, 0)]
    ids = rng.permutation(len(cells))
    patches = [None] * len(cells)
    for (i, j), pid in zip(cells, ids):
        base = planar_rectangle_patch(
            p, origin=(xs[i], ys[j]), size=(xs[i + 1] - xs[i], ys[j + 1] - ys[j])
        )
        cp = base.control_points
        if rng.random() < 0.5:
            cp = cp[::-1]
        if rng.random() < 0.5:
            cp = cp[:, ::-1]
        if rng.random() < 0.3:
            cp = cp.swapaxes(0, 1)
        patches[pid] = NurbsPatch(base.basis, cp.copy(), int(pid))
    sides, partner = all_pairs_partners(patches)
    tags = {s: ("dirichlet", "neumann")[int(rng.integers(2))] for s in sides if s not in partner}
    return patches, tags


@pytest.mark.parametrize("seed", range(12))
def test_matcher_agrees_with_all_pairs_reference(seed):
    patches, tags = random_layout(np.random.default_rng(seed))
    surface = match_interfaces(patches, tags)
    assert edge_tuples(surface) == all_pairs_edges(patches, tags)


def test_three_coincident_sides_raise():
    patches = [
        planar_rectangle_patch(1, pid=0),
        planar_rectangle_patch(1, origin=(1.0, 0.0), pid=1),
        planar_rectangle_patch(1, origin=(1.0, 0.0), pid=2),
    ]
    with pytest.raises(TopologyError, match=r"side \(2, 'west'\) matches more than one side"):
        all_pairs_partners(patches)
    with pytest.raises(TopologyError, match=r"side \(2, 'west'\) matches more than one side"):
        match_interfaces(patches)


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0)])
def test_neighbour_shifted_by_twice_tol_does_not_pair(direction):
    tol = extent_tol([(0.0, 0.0, 0.0), (2.0, 1.0, 0.0)])  # the unshifted pair's corners
    outer = {(0, s): "dirichlet" for s in ("west", "south", "north")}
    outer.update({(1, s): "dirichlet" for s in ("east", "south", "north")})

    def pair(shift):
        origin = (1.0 + shift * direction[0], shift * direction[1])
        return [planar_rectangle_patch(2, pid=0), planar_rectangle_patch(2, origin=origin, pid=1)]

    close = match_interfaces(pair(0.5 * tol), outer)
    assert len(close.edges_of_kind("interior")) == 1
    with pytest.raises(TopologyError, match=r"side \(0, 'east'\) matches no neighbor"):
        match_interfaces(pair(2.0 * tol), outer)
    apart = {**outer, (0, "east"): "neumann", (1, "west"): "neumann"}
    assert match_interfaces(pair(2.0 * tol), apart).edges_of_kind("interior") == []


@pytest.mark.parametrize("side", [1e-9, 1e-8, 1e-6, 1e6, 1e12])
def test_matching_does_not_depend_on_the_surface_scale(side):
    patches = [planar_rectangle_patch(2, (i * side, j * side), (side, side), 2 * j + i)
               for j in range(2) for i in range(2)]
    surface = match_interfaces(patches, _outer_tags(2, 2, "dirichlet"))
    assert edge_tuples(surface) == edge_tuples(square_grid(2))
