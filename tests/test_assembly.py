import numpy as np
import pytest
import scipy.sparse as sp
from conftest import symmetry_deviation
from oracles import assemble_volume, edge_matrix, interpolate, tabulate_patch
from test_stacked_passes import cylinder, two_signatures, volume_blocks

import dgiga.geometry

from dgiga.assembly import (
    ProblemData,
    assemble_system,
    default_penalty,
    edge_alpha,
)
from dgiga.geometries import (
    full_cylinder,
    planar_rectangle_patch,
    quarter_cylinder_grid,
    square_grid,
)
from dgiga.geometry import match_interfaces, refine_surface
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.space import build_space


def single_patch_surface(p=1, bc="dirichlet"):
    return match_interfaces(
        [planar_rectangle_patch(p)],
        {(0, s): bc for s in ("west", "east", "south", "north")},
    )


@pytest.mark.parametrize("p,expected", [(1, 12.0), (2, 24.0), (3, 40.0), (4, 60.0)])
def test_default_penalty(p, expected):
    assert default_penalty(p) == expected


def test_default_penalty_rejects_degree_zero():
    with pytest.raises(ValueError):
        default_penalty(0)


def test_zero_source_gives_zero_volume_rhs():
    surface = square_grid(1)
    space = build_space(surface, 1)
    part = assemble_volume(space, ProblemData(f=lambda pid, pts: np.zeros(len(pts)), delta=12.0))
    np.testing.assert_allclose(part.rhs, 0.0, atol=0.0)
    part = assemble_volume(space, ProblemData(f=None, delta=12.0))
    np.testing.assert_allclose(part.rhs, 0.0, atol=0.0)


def test_volume_stiffness_is_bilinear_quad_matrix():
    # Single bilinear element on the identity square: the classic 4x4
    # Laplace stiffness with our (k2-major) corner ordering
    # (0,0), (1,0), (0,1), (1,1).
    surface = single_patch_surface(p=1)
    space = build_space(surface, 1)
    K = assemble_volume(space, ProblemData(delta=12.0)).matrix.toarray()
    third, sixth = 1.0 / 3.0, 1.0 / 6.0
    expected = np.array(
        [
            [2 * third, -sixth, -sixth, -2 * sixth],
            [-sixth, 2 * third, -2 * sixth, -sixth],
            [-sixth, -2 * sixth, 2 * third, -sixth],
            [-2 * sixth, -sixth, -sixth, 2 * third],
        ]
    )
    np.testing.assert_allclose(K, expected, atol=1e-14)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)


def test_volume_block_scales_linearly_in_alpha():
    base = square_grid(2)
    doubled = square_grid(2, alpha=2.0 * base.alpha)
    data = ProblemData(delta=12.0)
    K1 = assemble_volume(build_space(base, 2), data).matrix.toarray()
    K2 = assemble_volume(build_space(doubled, 2), data).matrix.toarray()
    np.testing.assert_array_equal(K2, 2.0 * K1)


RATIONAL_SURFACES = {"cylinder_p3": cylinder, "two_signatures": two_signatures}


@pytest.mark.parametrize("name", sorted(RATIONAL_SURFACES))
def test_volume_blocks_match_the_rational_basis_route(name):
    """Weight-free factors, weights applied after the matmul, against
    alpha sum w grad R . grad R from the rational basis itself."""
    surface = RATIONAL_SURFACES[name]()
    space = build_space(surface, surface.patches[0].degree[0])
    data = ProblemData(f=lambda pid, x: (pid + 1.0) * x[:, 0] - x[:, 2] ** 2, delta=12.0)
    q = space.degree + 1
    for pid, patch in enumerate(surface.patches):
        K, loads = (a[0] for a in volume_blocks(space, data, [pid]))
        assert np.array_equal(K, K.transpose(0, 2, 1))  # exactly symmetric
        tab = tabulate_patch(patch, q)
        E, m = K.shape[:2]
        nu, nv = tab.weights.shape

        def by_element(a):  # (nu, nv, ...) -> element-major (E, q * q, ...)
            a = a.reshape(nu // q, q, nv // q, q, *a.shape[2:]).swapaxes(1, 2)
            return a.reshape(E, q * q, *a.shape[4:])

        G = by_element(np.moveaxis(tab.surface_gradient(tab.grads), 0, -1).reshape(nu, nv, m, 3))
        w = by_element(tab.weights)
        K_ref = surface.alpha[pid] * np.einsum("ep,epak,epbk->eab", w, G, G)
        R = by_element(tab.values.reshape(nu, nv, m))
        f = by_element(data.f(pid, tab.points.reshape(3, -1).T).reshape(nu, nv))
        np.testing.assert_allclose(K, K_ref, rtol=0.0, atol=1e-13 * np.abs(K_ref).max())
        for row, weight in ((0, f * w), (1, w)):
            ref = np.einsum("ep,epa->ea", weight, R)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(loads[row], ref, rtol=0.0, atol=1e-13 * scale)


def test_volume_assembly_builds_no_rational_basis(monkeypatch):
    def forbidden(*args):
        raise AssertionError("assemble_volume built the rational basis")

    monkeypatch.setattr(dgiga.geometry, "_rational_basis", forbidden)
    surface = refine_surface(full_cylinder(3, 2))
    assemble_volume(build_space(surface, 3), ProblemData(f=lambda pid, x: x[:, 0], delta=12.0))


def test_interface_part_vanishes_on_continuous_functions(rng):
    # Neumann sides and no g_N: only the interface terms enter.
    surface = square_grid(2, bc="neumann")
    space = build_space(surface, 2)
    data = ProblemData(delta=default_penalty(2))
    A_int, _ = edge_matrix(space, data)
    u = interpolate(space, lambda pts: np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]))
    v = u.coefficients
    assert abs(v @ (A_int @ v)) <= 1e-10 * max(1.0, float(v @ v))


def test_interface_assembly_is_symmetric(rng):
    surface = square_grid(1, nx=2, ny=1, bc="neumann", alpha=[1.0, 3.5])
    space = build_space(surface, 1)
    A, _ = edge_matrix(space, ProblemData(delta=12.0))
    assert symmetry_deviation(sp.csr_array(A)) <= 1e-12


def test_dg_energy_of_linear_function_is_exact(rng):
    # All-Neumann tags: only volume + interface terms enter v^T A v, and both
    # consistency and penalty vanish on a globally linear interpolant.
    patches = [
        planar_rectangle_patch(1, origin=(0.0, 0.0), pid=0),
        planar_rectangle_patch(1, origin=(1.0, 0.0), pid=1),
    ]
    tags = {
        (0, "west"): "neumann",
        (0, "south"): "neumann",
        (0, "north"): "neumann",
        (1, "east"): "neumann",
        (1, "south"): "neumann",
        (1, "north"): "neumann",
    }
    surface = match_interfaces(patches, tags, alpha=[2.0, 2.0])
    space = build_space(surface, 1)
    system = assemble_system(space, ProblemData(delta=12.0))
    u = interpolate(space, lambda pts: 2.0 * pts[:, 0] + 3.0 * pts[:, 1])
    v = u.coefficients
    energy = float(v @ (system.matrix @ v))
    # alpha * |grad u|^2 * area = 2 * (4 + 9) * 2
    assert energy == pytest.approx(52.0, abs=1e-10)


def test_constant_is_solved_exactly_with_constant_dirichlet_data():
    c = 2.75
    surface = square_grid(2)
    space = build_space(surface, 2)
    data = ProblemData(
        f=None,
        g_D=lambda pts: np.full(len(pts), c),
        delta=default_penalty(2),
    )
    system = assemble_system(space, data)
    x = np.full(space.total_dofs, c)
    residual = system.matrix @ x - system.rhs
    assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(system.rhs))


def test_neumann_unit_flux_rhs_sums_to_edge_length():
    for p in (1, 2, 3):
        surface = match_interfaces(
            [planar_rectangle_patch(p)],
            {
                (0, "west"): "dirichlet",
                (0, "south"): "dirichlet",
                (0, "north"): "dirichlet",
                (0, "east"): "neumann",
            },
        )
        space = build_space(surface, p)
        data = ProblemData(g_N=lambda pts: np.ones(len(pts)), delta=default_penalty(p))
        _, rhs = edge_matrix(space, data)
        assert rhs.sum() == pytest.approx(1.0, abs=1e-13)


def test_boundary_rhs_zero_for_zero_data():
    surface = square_grid(1)
    space = build_space(surface, 1)
    zero = lambda pts: np.zeros(len(pts))
    _, rhs = edge_matrix(space, ProblemData(g_D=zero, g_N=zero, delta=12.0))
    np.testing.assert_allclose(rhs, 0.0, atol=0.0)


@pytest.mark.parametrize(
    "surface_fn,p",
    [(lambda: square_grid(1), 1), (lambda: quarter_cylinder_grid(2), 2)],
)
def test_coercivity_proxy_with_default_penalty(surface_fn, p, rng):
    surface = surface_fn()
    space = build_space(surface, p)
    data = make_problem("plane_sine" if p == 1 else "cylinder_sine", surface, p)
    system = assemble_system(space, data)
    for _ in range(100):
        v = rng.normal(size=space.total_dofs)
        assert float(v @ (system.matrix @ v)) > 0.0
    x, report = cg_solve(system.matrix, system.rhs, tol=1e-10)
    assert report.converged


def test_edge_alpha_is_mean():
    assert edge_alpha(1.0, 3.0) == 2.0
    assert edge_alpha(1.0, 1e4) == pytest.approx(5000.5)


def test_penalty_must_be_positive():
    with pytest.raises(ValueError):
        ProblemData(delta=0.0)


def test_penalty_has_no_default():
    """The old default 12 is default_penalty(1): at p = 2 it ran with no warning and an
    L2 rate of 2.79 instead of 2.98, and at p = 4 CG broke down."""
    with pytest.raises(TypeError, match="delta"):
        ProblemData(f=lambda pid, pts: np.zeros(len(pts)))


def test_basis_integrals_only_without_dirichlet_edges():
    data = ProblemData(delta=default_penalty(2))
    dirichlet = build_space(square_grid(2), 2)
    assert assemble_system(dirichlet, data).basis_integrals is None
    space = build_space(square_grid(2, bc="neumann"), 2)
    m = assemble_system(space, data).basis_integrals
    one = ProblemData(f=lambda pid, pts: np.ones(len(pts)), delta=12.0)
    unit_load = assemble_volume(space, one).rhs
    np.testing.assert_array_equal(m, unit_load)
    assert np.all(m > 0.0) and m.sum() == pytest.approx(1.0, abs=1e-13)


def test_assembly_deterministic():
    surface = square_grid(2)
    space = build_space(surface, 2)
    data = make_problem("plane_sine", surface, 2)
    s1 = assemble_system(space, data)
    s2 = assemble_system(build_space(square_grid(2), 2), data)
    np.testing.assert_array_equal(s1.matrix.data, s2.matrix.data)
    np.testing.assert_array_equal(s1.matrix.indices, s2.matrix.indices)
    np.testing.assert_array_equal(s1.rhs, s2.rhs)


@pytest.mark.parametrize("name", ["seeded_flipped", "full_cylinder_p3"])
def test_system_matrix_is_canonical_csr(name):
    """Sorted, duplicate-free indices in every row, edges included."""
    from test_geometry import seeded_grid

    surface = seeded_grid(7, 4) if name == "seeded_flipped" else full_cylinder(3, 2)
    p = surface.patches[0].degree[0]
    space, data = build_space(surface, p), make_problem("plane_sine", surface, p)
    assert assemble_system(space, data).matrix.has_canonical_format
    assert assemble_system(space, ProblemData(delta=12.0)).matrix.has_canonical_format


def test_cg_solution_matches_direct_factorization():
    import scipy.sparse.linalg as spla

    from dgiga.geometry import refine_surface

    surface = refine_surface(square_grid(2))
    space = build_space(surface, 2)
    data = make_problem("plane_sine", surface, 2)
    system = assemble_system(space, data)
    x_direct = spla.spsolve(system.matrix.tocsc(), system.rhs)
    x_cg, report = cg_solve(system.matrix, system.rhs, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(x_cg - x_direct) <= 1e-8 * np.linalg.norm(x_direct)
