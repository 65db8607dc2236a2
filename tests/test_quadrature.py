import numpy as np
import pytest
from oracles import integrate_patch, surface_area

from dgiga.geometries import planar_rectangle_patch, quarter_cylinder_grid
from dgiga.geometry import refine_surface
from dgiga.quadrature import panel_rules


def one_span(q, a, b):
    """One-span rule: nodes and weights of shape (q,)."""
    nodes, weights = panel_rules(np.array([a, b], dtype=float), q)
    return nodes[0], weights[0]


def test_one_point_rule_is_midpoint():
    nodes, weights = one_span(1, 0.0, 1.0)
    np.testing.assert_allclose(nodes, [0.5], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0], atol=1e-15)


def test_two_point_rule_integrates_squares():
    nodes, weights = one_span(2, 0.0, 1.0)
    assert float(weights @ nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_five_point_rule_integrates_ninth_power():
    nodes, weights = one_span(5, 0.0, 1.0)
    assert float(weights @ nodes**9) == pytest.approx(0.1, abs=1e-14)


@pytest.mark.parametrize("q", range(1, 11))
def test_polynomial_exactness(q):
    a, b = -0.3, 1.7
    nodes, weights = one_span(q, a, b)
    deg = 2 * q - 1
    exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
    computed = float(weights @ nodes**deg)
    assert abs(computed - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("q", [1, 3, 7, 12, 30])
def test_weights_positive_and_sum_to_length(q):
    nodes, weights = one_span(q, 0.25, 0.75)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 0.5) <= 1e-13
    assert np.all((nodes > 0.25) & (nodes < 0.75))


@pytest.mark.parametrize("q", [2, 5, 17, 30])
def test_matches_numpy_leggauss(q):
    x, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = one_span(q, -1.0, 1.0)
    np.testing.assert_allclose(nodes, x, atol=1e-14)
    np.testing.assert_allclose(weights, w, atol=1e-14)


def test_rejects_bad_orders_and_intervals():
    with pytest.raises(ValueError):
        one_span(0, 0, 1)
    with pytest.raises(ValueError, match="unsupported"):
        one_span(31, 0, 1)
    with pytest.raises(ValueError):
        one_span(3, 1.0, 1.0)


def test_panel_rules_cover_breaks():
    nodes, weights = panel_rules(np.array([0.0, 0.25, 1.0]), 3)
    assert nodes.shape == (2, 3)
    assert abs(weights.sum() - 1.0) <= 1e-13


def test_constant_over_identity_square():
    patch = planar_rectangle_patch(2)
    for q in (1, 2, 4):
        assert integrate_patch(patch, None, q) == pytest.approx(1.0, abs=1e-13)


def test_refinement_keeps_polynomial_integrals():
    # Degree-(2,3) polynomial integrand on the identity patch is integrated
    # exactly by q=3 points, so refinement must not change the value.
    from dgiga.geometries import square_grid

    def fn(x, y, z):
        return x**2 * y**3 + 2.0 * x - y

    surface = square_grid(2, nx=1, ny=1)
    coarse = integrate_patch(surface.patches[0], fn, 3)
    fine_surface = refine_surface(surface)
    fine = integrate_patch(fine_surface.patches[0], fn, 3)
    assert abs(coarse - fine) <= 1e-12
    assert coarse == pytest.approx(1.0 / 12.0 + 1.0 - 0.5, abs=1e-14)


def test_quarter_cylinder_area():
    surface = quarter_cylinder_grid(2)
    for _ in range(3):
        surface = refine_surface(surface)
    assert abs(surface_area(surface, 3) - np.pi / 2) <= 1e-10


def test_multipatch_square_area_is_exact():
    from dgiga.geometries import square_grid

    for p in (1, 2, 3):
        assert abs(surface_area(square_grid(p), p + 1) - 1.0) <= 1e-12


def test_tabulate_patch_reproduces_patch_area():
    from oracles import tabulate_patch

    tab = tabulate_patch(quarter_cylinder_grid(3, 1, 1).patches[0], 10)
    assert tab.weights.shape == (10, 10)
    assert tab.weights.sum() == pytest.approx(np.pi / 2, abs=1e-12)


def test_tabulate_sides_measures_unit_side():
    from dgiga.geometries import planar_rectangle_patch
    from dgiga.geometry import tabulate_sides

    tab = tabulate_sides([planar_rectangle_patch(2)], [(0, "east", False)], 3)
    assert tab.weights.shape == (1, 3)
    assert tab.weights.sum() == pytest.approx(1.0, abs=1e-13)
