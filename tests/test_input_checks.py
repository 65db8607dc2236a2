"""Input checks that no other test trips: each is tripped here and its message matched."""

import math

import numpy as np
import pytest

from dgiga.analysis import ErrorReport, rate_table
from dgiga.geometries import (_arc_segments, planar_rectangle_patch, quarter_cylinder_grid,
                              square_grid)
from dgiga.geometry import (MultiPatchSurface, NurbsPatch, SingularMapError, TopologyError,
                            match_interfaces)
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import KnotVector, NurbsBasis2D, greville


def test_quarter_cylinder_needs_degree_two():
    with pytest.raises(ValueError, match="exact circle arcs need degree >= 2"):
        quarter_cylinder_grid(1)


def test_quarter_cylinder_segments_are_a_power_of_two():
    with pytest.raises(ValueError, match="number of arc segments must be a power of two"):
        quarter_cylinder_grid(2, n_theta=3)


def test_arc_wider_than_a_quarter_circle_is_rejected():
    # No public constructor passes such an arc, so the helper is called directly.
    with pytest.raises(ValueError, match=r"arc must open by at most pi/2"):
        _arc_segments(0.0, np.pi, 2, 1)


def test_control_net_must_match_its_basis():
    basis = planar_rectangle_patch(2).basis  # 3 x 3 functions
    with pytest.raises(ValueError, match=r"control net \(3, 4, 3\) does not match basis \(3, 3\)"):
        NurbsPatch(basis, np.zeros((3, 4, 3)), 0)


def test_surface_needs_one_diffusion_coefficient_per_patch():
    surface = square_grid(2)
    with pytest.raises(ValueError, match="need one diffusion coefficient per patch"):
        MultiPatchSurface(surface.patches, surface.edges, [1.0, 2.0])


@pytest.mark.parametrize("tags, message", [
    ({(0, "top"): "dirichlet"}, r"tag references unknown patch side \(0, top\)"),
    ({(4, "west"): "dirichlet"}, r"tag references unknown patch side \(4, west\)"),
    ({(0, "west"): "robin"}, "unknown boundary tag 'robin'"),
], ids=["side", "patch", "kind"])
def test_matching_rejects_unknown_tags(tags, message):
    patches = square_grid(2).patches
    with pytest.raises(TopologyError, match=message):
        match_interfaces(patches, tags)


def test_function_needs_one_coefficient_per_dof():
    space = build_space(square_grid(2), 2)
    with pytest.raises(ValueError, match="coefficient vector length does not match space"):
        space.function(np.zeros(space.total_dofs + 1))


@pytest.mark.parametrize("knots", [[0, 0, 2, 2], [-1, -1, 1, 1]])
def test_knots_must_span_the_unit_interval(knots):
    with pytest.raises(ValueError, match=r"knot vector must span \[0, 1\]"):
        KnotVector(1, knots)


def test_problem_terms_must_be_key_equals_expression():
    with pytest.raises(ValueError, match="expression problem term 'x' is not key=expr"):
        make_problem("u=x; x", square_grid(2), 2)


def test_rate_after_a_zero_error_is_nan():
    reports = [ErrorReport(0.0, 1.0, 16, 0.5, []), ErrorReport(1e-3, 0.5, 64, 0.25, [])]
    row = rate_table(reports).rows[1]
    assert math.isnan(row.l2_rate)
    assert row.dg_rate == 1.0


def test_greville_point_at_degree_zero_is_the_span_midpoint():
    # An interior knot above the degree is rejected, so at p = 0 there is one span.
    assert np.array_equal(greville(KnotVector(0, [0.0, 1.0])), [0.5])


def test_matching_rejects_a_map_singular_inside_the_patch():
    """z -> z^2 on the square around 1/2 + 1/2 i: det g vanishes only at the centre,
    an interior sample of the matching grid, and on no side.  (West and east, and
    south and north, trace the same curves reversed, so the sides pair up.)"""
    ends = np.array([0.25, -0.25, 0.25])  # (t - 1/2)^2 in the quadratic Bernstein basis
    line = np.array([-0.5, 0.0, 0.5])  # t - 1/2
    net = np.stack([ends[:, None] - ends, 2.0 * line[:, None] * line, np.zeros((3, 3))], -1)
    kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
    patch = NurbsPatch(NurbsBasis2D(kv, kv, np.ones((3, 3))), net, 0)
    with pytest.raises(SingularMapError, match=r"patch 0 at xi=\(0.500000, 0.500000\)"):
        match_interfaces([patch])
