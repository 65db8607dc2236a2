import numpy as np
import pytest
from oracles import edge_average, edge_jump, global_window, interpolate, trace_on_edge
from test_geometry import REFINEMENT_CASES

from dgiga.geometries import planar_rectangle_patch, quarter_cylinder_grid, square_grid
from dgiga.geometry import match_interfaces, refine_surface, tabulate_grid
from dgiga.space import build_space
from dgiga.splines import KnotVector, NurbsBasis2D, greville


def evaluate(f, pid, xu, xv):
    """Values (len(xu), len(xv)) and tangential gradients of f on a grid of one patch."""
    tab = tabulate_grid([f.space.surface.patches[pid]], xu, xv, f.patch_coeffs(pid)[None])
    shape = (len(xu), len(xv))
    grads = tab.surface_gradient(tab.field_grad).reshape(3, *shape)
    return tab.field.reshape(shape), np.moveaxis(grads, 0, -1)


def single_patch_surface(patch, bc="dirichlet"):
    return match_interfaces(
        [patch], {(0, s): bc for s in ("west", "east", "south", "north")}
    )


def test_dof_counts_grid():
    space = build_space(square_grid(1), 1)
    assert space.total_dofs == 16
    assert list(space.offsets) == [0, 4, 8, 12, 16]


def test_dof_counts_single_patch_with_interior_knot():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    g = greville(kv)
    cp = np.zeros((4, 4, 3))
    cp[:, :, 0] = g[:, None]
    cp[:, :, 1] = g[None, :]
    patch_surface = single_patch_surface(
        type(square_grid(1).patches[0])(NurbsBasis2D(kv, kv, np.ones((4, 4))), cp, 0)
    )
    space = build_space(patch_surface, 2)
    assert space.total_dofs == 16
    # One global refinement inserts {0.25, 0.75}: 9 knots, so n = 9-2-1 = 6
    # per direction.
    refined = refine_surface(patch_surface)
    kv_fine = refined.patches[0].basis.basis_u
    np.testing.assert_allclose(kv_fine.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
    assert kv_fine.n == len(kv_fine.knots) - 2 - 1 == 6
    assert build_space(refined, 2).total_dofs == 36


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        build_space(square_grid(1), 2)


def test_partition_of_unity_function(rng):
    surface = quarter_cylinder_grid(2)
    space = build_space(surface, 2)
    ones = space.function(np.ones(space.total_dofs))
    for pid in range(surface.num_patches):
        value, grad = evaluate(ones, pid, rng.random(5), rng.random(5))
        np.testing.assert_allclose(value, 1.0, rtol=0.0, atol=1e-12)
        assert np.max(np.linalg.norm(grad, axis=-1)) <= 1e-10


def test_linear_reproduction_via_greville_interpolant(rng):
    surface = single_patch_surface(planar_rectangle_patch(1))
    space = build_space(surface, 1)
    u = interpolate(space, lambda pts: pts[:, 0])
    xu, xv = rng.random(4), rng.random(3)
    value, grad = evaluate(u, 0, xu, xv)
    np.testing.assert_allclose(value, np.broadcast_to(xu[:, None], value.shape), atol=1e-13)
    np.testing.assert_allclose(grad, np.broadcast_to([1.0, 0.0, 0.0], grad.shape), atol=1e-12)


def test_gradient_matches_finite_differences(rng):
    surface = single_patch_surface(planar_rectangle_patch(2))
    space = build_space(surface, 2)
    f = space.function(rng.normal(size=space.total_dofs))
    h = 1e-6
    for _ in range(20):
        xi = rng.uniform(0.05, 0.95, size=2)
        value, grads = evaluate(f, 0, xi[0] + [-h, 0.0, h], xi[1] + [-h, 0.0, h])
        grad = grads[1, 1]
        fd0 = (value[2, 1] - value[0, 1]) / (2 * h)
        fd1 = (value[1, 2] - value[1, 0]) / (2 * h)
        scale = max(1.0, abs(fd0), abs(fd1))
        assert abs(grad[0] - fd0) / scale <= 1e-5
        assert abs(grad[1] - fd1) / scale <= 1e-5


def two_patch_space(p=1):
    surface = square_grid(p, nx=2, ny=1)
    return surface, build_space(surface, p)


def test_trace_jump_average_constants(rng):
    surface, space = two_patch_space()
    (edge,) = surface.edges_of_kind("interior")
    ones = space.function(np.ones(space.total_dofs))
    indicator = space.function(
        np.concatenate([np.ones(4), np.zeros(4)])  # 1 on left patch, 0 on right
    )
    left_is_patch0 = edge.left[0] == 0
    for t in rng.random(10):
        assert edge_jump(ones, edge, float(t)) == pytest.approx(0.0, abs=1e-13)
        assert edge_average(ones, edge, float(t)) == pytest.approx(1.0, abs=1e-13)
        expected_jump = 1.0 if left_is_patch0 else -1.0
        assert edge_jump(indicator, edge, float(t)) == pytest.approx(expected_jump, abs=1e-13)
        assert edge_average(indicator, edge, float(t)) == pytest.approx(0.5, abs=1e-13)


def test_jump_average_product_identity(rng):
    surface, space = two_patch_space(p=2)
    (edge,) = surface.edges_of_kind("interior")
    u = space.function(rng.normal(size=space.total_dofs))
    v = space.function(rng.normal(size=space.total_dofs))
    for t in rng.random(20):
        t = float(t)
        ul, _ = trace_on_edge(u, edge, "left", t)
        ur, _ = trace_on_edge(u, edge, "right", t)
        vl, _ = trace_on_edge(v, edge, "left", t)
        vr, _ = trace_on_edge(v, edge, "right", t)
        lhs = ul * vl - ur * vr  # jump of the product
        rhs = edge_average(u, edge, t) * edge_jump(v, edge, t) + edge_jump(
            u, edge, t
        ) * edge_average(v, edge, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_boundary_edge_conventions(rng):
    surface, space = two_patch_space()
    boundary = surface.edges_of_kind("dirichlet")[0]
    f = space.function(rng.normal(size=space.total_dofs))
    t = 0.37
    value, _ = trace_on_edge(f, boundary, "left", t)
    assert edge_jump(f, boundary, t) == pytest.approx(value)
    assert edge_average(f, boundary, t) == pytest.approx(value)
    with pytest.raises(ValueError, match="right"):
        trace_on_edge(f, boundary, "right", t)


@pytest.mark.parametrize(
    "surface_fn", [lambda: square_grid(2), lambda: quarter_cylinder_grid(2)]
)
def test_interpolant_of_smooth_function_has_tiny_jumps(surface_fn, rng):
    surface = refine_surface(surface_fn())
    space = build_space(surface, 2)
    u = interpolate(space, lambda pts: np.cos(pts[:, 0] + 0.3) * pts[:, 1] + pts[:, 2])
    for edge in surface.edges_of_kind("interior"):
        for t in rng.random(10):
            assert abs(edge_jump(u, edge, float(t))) <= 1e-10


def test_ordering_deterministic():
    s1 = square_grid(2)
    s2 = square_grid(2)
    a = build_space(s1, 2)
    b = build_space(s2, 2)
    assert np.array_equal(a.offsets, b.offsets)
    assert a.total_dofs == b.total_dofs
    idx_a = [global_window(a, pid, 1, 2, 1, 1).item() for pid in range(4)]
    idx_b = [global_window(b, pid, 1, 2, 1, 1).item() for pid in range(4)]
    assert idx_a == idx_b


@pytest.mark.parametrize("name", ["full_cylinder_p3", "seeded_flipped"])
def test_prolongation_is_exact(name, rng):
    """u_h and its prolongation to the refined space are the same function."""
    from test_geometry import seeded_grid

    from dgiga.geometries import full_cylinder
    from dgiga.space import prolong

    coarse = full_cylinder(3, 2) if name == "full_cylinder_p3" else seeded_grid(7, 4)
    p = coarse.patches[0].degree[0]
    space = build_space(coarse, p)
    u_h = space.function(rng.normal(size=space.total_dofs))
    fine = refine_surface(coarse)
    u_f = build_space(fine, p).function(prolong(u_h))
    ts = np.linspace(0.0, 1.0, 10)
    for pid in range(coarse.num_patches):
        a, _ = evaluate(u_h, pid, ts, ts)
        b, _ = evaluate(u_f, pid, ts, ts)
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-13 * np.abs(a).max())


@pytest.mark.parametrize("name", sorted(REFINEMENT_CASES))
def test_prolonged_control_x_is_the_refined_control_x(name):
    """Prolonging the function whose coefficients are the control points' x gives
    the refined control points' x bit for bit: one refiner for nets and functions."""
    from dgiga.space import prolong

    coarse = REFINEMENT_CASES[name]()
    space = build_space(coarse, coarse.patches[0].degree[0])
    x = [patch.control_points[..., 0].T.ravel() for patch in coarse.patches]  # k2-major
    fine_x = [patch.control_points[..., 0].T.ravel() for patch in refine_surface(coarse).patches]
    assert np.array_equal(prolong(space.function(np.concatenate(x))), np.concatenate(fine_x))
