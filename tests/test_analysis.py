import dataclasses
import math

import numpy as np
import pytest
from oracles import assemble_volume, interpolate, l2_error_at

from dgiga.analysis import ErrorReport, measure_errors, rate_table, surface_h_max
from dgiga.assembly import ProblemData, default_penalty
from dgiga.driver import run_sweep, solve_problem
from dgiga.geometries import full_cylinder, planar_rectangle_patch, square_grid
from dgiga.geometry import match_interfaces, refine_surface
from dgiga.problems import make_problem
from dgiga.space import build_space


def zero(pts):
    return np.zeros(len(pts))


def zero3(pts):
    return np.zeros((len(pts), 3))


def l2_of(u_h, u_exact):
    # square_grid surfaces carry Dirichlet tags, so no mean is subtracted.
    return measure_errors(u_h, ProblemData(u_exact=u_exact, delta=12.0)).l2_error


def test_l2_error_of_space_member_is_tiny():
    surface = square_grid(1)
    space = build_space(surface, 1)
    field = lambda pts: 2.0 * pts[:, 0] - pts[:, 1] + 0.25
    u_h = interpolate(space, field)
    assert l2_of(u_h, field) <= 1e-12


def test_l2_error_of_constant_gap_is_one():
    surface = square_grid(1)
    space = build_space(surface, 1)
    zero_h = space.function(np.zeros(space.total_dofs))
    assert l2_of(zero_h, lambda pts: np.ones(len(pts))) == pytest.approx(1.0, abs=1e-13)


def test_l2_error_of_sine_product_is_half():
    surface = refine_surface(refine_surface(square_grid(2)))
    space = build_space(surface, 2)
    zero_h = space.function(np.zeros(space.total_dofs))
    u = lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    assert l2_of(zero_h, u) == pytest.approx(0.5, abs=1e-12)


def test_dg_error_zero_for_represented_solution():
    surface = square_grid(2)
    space = build_space(surface, 2)
    field = lambda pts: pts[:, 0]
    grad = lambda pts: np.tile([1.0, 0.0, 0.0], (len(pts), 1))
    u_h = interpolate(space, field)
    data = ProblemData(delta=default_penalty(2), u_exact=field, grad_u_exact=grad)
    assert measure_errors(u_h, data).dg_error <= 1e-10


def test_dg_error_measures_dirichlet_jumps_against_u_exact():
    # The Dirichlet jump belongs to the error u - u_h, so the boundary data
    # the solve used does not enter the energy error.
    surface = refine_surface(square_grid(2))
    data = make_problem("plane_sine", surface, 2)
    u_h = solve_problem(surface, 2, data)[0]
    shifted = dataclasses.replace(data, g_D=lambda pts: data.u_exact(pts) + 1.0)
    assert measure_errors(u_h, shifted).dg_error == measure_errors(u_h, data).dg_error


def test_dg_error_is_weighted_h1_seminorm_without_edges(rng):
    # Single all-Neumann patch: the jump sum is empty, so the energy error
    # of (u_h - 0) must match the stiffness quadratic form route.
    surface = match_interfaces(
        [planar_rectangle_patch(1)],
        {(0, s): "neumann" for s in ("west", "east", "south", "north")},
        alpha=[3.0],
    )
    space = build_space(surface, 1)
    u_h = space.function(rng.normal(size=space.total_dofs))
    dg = measure_errors(u_h, ProblemData(delta=12.0, u_exact=zero, grad_u_exact=zero3)).dg_error
    K = assemble_volume(space, ProblemData(delta=12.0)).matrix
    energy = float(u_h.coefficients @ (K @ u_h.coefficients))
    assert dg**2 == pytest.approx(energy, rel=1e-12)


def test_dg_error_of_patch_indicator_matches_jump_formula():
    # Two all-Neumann patches, u_h = 1 on one and 0 on the other: only the
    # interface penalty contributes, one delta per edge element.
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
    surface = match_interfaces(patches, tags)
    delta = 12.0
    data = ProblemData(delta=delta, u_exact=zero, grad_u_exact=zero3)
    for refinements in (0, 1, 2):
        surf = surface
        for _ in range(refinements):
            surf = refine_surface(surf)
        space = build_space(surf, 1)
        n1, n2 = space.surface.patches[0].basis.shape
        coeffs = np.concatenate([np.ones(n1 * n2), np.zeros(space.total_dofs - n1 * n2)])
        dg = measure_errors(space.function(coeffs), data).dg_error
        n_edge_elements = 2**refinements
        assert dg**2 == pytest.approx(delta * n_edge_elements, rel=1e-12)


def reports(*rows):
    """Error reports from (h_max, dofs, l2_error, dg_error) rows."""
    return [ErrorReport(l2, dg, dofs, h, []) for h, dofs, l2, dg in rows]


def test_rate_arithmetic():
    table = rate_table(reports((1.0, 10, 1.0, 1.0), (0.5, 30, 0.25, 0.125)))
    assert math.isnan(table.rows[0].l2_rate)
    assert [row.level for row in table.rows] == [0, 1]
    assert table.rows[1].l2_rate == pytest.approx(2.0)
    assert table.rows[1].dg_rate == pytest.approx(3.0)


def test_zero_error_yields_inf_rate_marker():
    table = rate_table(reports((1.0, 10, 1.0, 1.0), (0.5, 30, 0.0, 0.5)))
    assert math.isinf(table.rows[1].l2_rate)


def test_csv_format():
    rows = reports((1.0, 10, 0.5, 1.0), (0.5, 30, 0.125, 0.5))
    text = rate_table(rows).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate"
    first = lines[1].split(",")
    assert first[5] == "" and first[6] == ""  # no rates on level 0
    assert float(lines[2].split(",")[5]) == pytest.approx(2.0)
    # 17 significant digits survive a round trip
    assert float(lines[1].split(",")[3]) == 0.5
    assert rate_table(rows).to_csv() == text


def test_h_max_and_report_fields(planar_sweep):
    table, results = planar_sweep(2, 3)
    final = results[-1]
    assert final.errors.dofs == final.solution.space.total_dofs
    assert final.errors.h_max == pytest.approx(surface_h_max(final.solution.space.surface))
    assert len(final.errors.per_patch) == 4
    total_from_patches = math.sqrt(sum(e**2 for e in final.errors.per_patch))
    assert total_from_patches == pytest.approx(final.errors.l2_error, rel=1e-10)


def test_dg_error_monotone_under_refinement(planar_sweep):
    _, results = planar_sweep(2, 5)
    dg = [r.errors.dg_error for r in results]
    assert dg[1] <= dg[0] * 1.05
    for a, b in zip(dg[1:], dg[2:]):
        assert b <= a


def test_l2_quadrature_is_not_masking(planar_sweep):
    # The reported (p+2)-order error must be quadrature-converged: raising
    # the order further changes it by far less than 1%.  The assembly-order
    # rule is deliberately NOT used for reporting: its Gauss points sit near
    # superconvergence points of the solution and under-measure the error
    # by ~16% at p=2.
    _, results = planar_sweep(2, 5)
    final = results[-1]
    data = make_problem("plane_sine", final.solution.space.surface, 2)
    reported = measure_errors(final.solution, data).l2_error
    assert reported == pytest.approx(l2_error_at(final.solution, data.u_exact, 4), rel=1e-12)
    refined = l2_error_at(final.solution, data.u_exact, 6)
    assert abs(reported - refined) <= 0.01 * refined
    assembly_order = l2_error_at(final.solution, data.u_exact, 3)
    assert assembly_order < reported  # the masking goes one way


def test_measure_errors_without_gradient_reports_nan():
    surface = square_grid(1)
    space = build_space(surface, 1)
    data = ProblemData(u_exact=lambda pts: np.zeros(len(pts)), delta=12.0)
    report = measure_errors(space.function(np.zeros(space.total_dofs)), data)
    assert math.isnan(report.dg_error)
    assert report.l2_error == pytest.approx(0.0, abs=1e-15)


def test_measure_errors_requires_exact_solution():
    surface = square_grid(2)
    space = build_space(surface, 2)
    data = dataclasses.replace(make_problem("plane_sine", surface, 2), u_exact=None)
    with pytest.raises(ValueError, match="u_exact"):
        measure_errors(space.function(np.zeros(space.total_dofs)), data)


def test_l2_error_is_measured_modulo_constants_without_dirichlet_edges():
    # Pure Neumann on the full cylinder, with an exact solution of integral
    # mean 1: u_h has zero mean, so only the L2 error modulo constants can
    # converge (measured plainly it stays at sqrt(2 pi) on every level).
    spec = ("u=1+x*cos(pi*z); f=(1+pi^2)*x*cos(pi*z); gN=0*x; "
            "gx=y^2*cos(pi*z); gy=-x*y*cos(pi*z); gz=-pi*x*sin(pi*z)")
    table, _ = run_sweep(full_cylinder(3, 2), 3, lambda s, d: make_problem(spec, s, 3, d), 4)
    l2_rate, dg_rate = table.rows[-1].l2_rate, table.rows[-1].dg_rate
    assert abs(l2_rate - 4.0) <= 0.25
    assert abs(dg_rate - 3.0) <= 0.25
    assert table.rows[-1].l2_error < 1e-5
