import inspect
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dgiga
from dgiga.geometries import quarter_cylinder_grid, square_grid
from dgiga.problems import builtin_problems, make_problem, parse_expression


def test_builtin_names():
    names = builtin_problems()
    assert "plane_sine" in names and "cylinder_sine" in names


def test_unknown_name_lists_cases():
    with pytest.raises(ValueError, match="plane_sine"):
        make_problem("no_such_case", square_grid(1), 1)


def closed_forms(x, y, z):
    """The built-ins in numpy, in their specs' operation order: for each
    name, the factor c in f = c alpha u, then u and its gradient."""
    theta = np.arctan2(y, x)
    u_theta = np.cos(theta) * np.sin(np.pi * z)
    zero = np.zeros_like(x)
    return {
        "plane_sine": (2.0 * np.pi**2, np.sin(np.pi * x) * np.sin(np.pi * y), [
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y), zero]),
        "plane_cosine": (2.0 * np.pi**2, np.cos(np.pi * x) * np.cos(np.pi * y), [
            -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y), zero]),
        "cylinder_sine": (1.0 + np.pi**2, np.sin(theta) * np.sin(np.pi * z), [
            -np.sin(theta) * u_theta, np.cos(theta) * u_theta,
            np.pi * np.sin(theta) * np.cos(np.pi * z)]),
    }


@pytest.mark.parametrize("name", ["plane_sine", "plane_cosine", "cylinder_sine"])
def test_builtin_specs_reproduce_closed_forms_bit_for_bit(rng, name):
    surface = square_grid(1, alpha=[1.0, 1e4, 1e4, 1.0])
    data = make_problem(name, surface, 1)
    pts = rng.uniform(-1.5, 1.5, (500, 3))
    c, u, grad = closed_forms(*pts.T)[name]
    same = lambda a, b: a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert same(data.u_exact(pts), u) and same(data.g_D(pts), u)
    assert same(data.grad_u_exact(pts), np.stack(grad, axis=1))
    for pid, alpha in enumerate(surface.alpha):
        assert same(data.f(pid, pts), c * alpha * u)
    if name == "plane_cosine":
        assert same(data.g_N(pts), np.zeros(len(pts)))
    else:
        assert data.g_N is None


def test_plane_sine_peak_values():
    surface = square_grid(1)
    data = make_problem("plane_sine", surface, 1)
    pt = np.array([[0.5, 0.5, 0.0]])
    assert float(data.u_exact(pt)[0]) == pytest.approx(1.0)
    assert float(data.f(0, pt)[0]) == pytest.approx(2.0 * np.pi**2)
    assert data.delta == 12.0


def test_plane_sine_source_scales_with_patch_coefficient():
    surface = square_grid(1, alpha=[1.0, 10.0, 10.0, 1.0])
    data = make_problem("plane_sine", surface, 1)
    pt = np.array([[0.3, 0.4, 0.0]])
    assert float(data.f(1, pt)[0]) == pytest.approx(10.0 * float(data.f(0, pt)[0]))


def test_cylinder_sine_vanishes_on_seam():
    surface = quarter_cylinder_grid(2)
    data = make_problem("cylinder_sine", surface, 2)
    # The seam theta = 0 is the line (1, 0, z).
    pts = np.column_stack([np.ones(5), np.zeros(5), np.linspace(0, 1, 5)])
    np.testing.assert_allclose(data.g_D(pts), 0.0, atol=1e-15)


def test_cylinder_sine_laplace_beltrami_identity(rng):
    # On the unit cylinder the surface Laplacian in (theta, z) coordinates
    # is u_tt + u_zz; check f = -alpha Delta u by central differences.
    surface = quarter_cylinder_grid(2)
    data = make_problem("cylinder_sine", surface, 2)

    def u_surf(theta, z):
        pts = np.column_stack([np.cos(theta), np.sin(theta), z])
        return data.u_exact(pts)

    h = 1e-4
    for _ in range(20):
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        z = rng.uniform(0.1, 0.9)
        t = np.full(1, theta)
        zz = np.full(1, z)
        u_tt = (u_surf(t + h, zz) - 2 * u_surf(t, zz) + u_surf(t - h, zz)) / h**2
        u_zz = (u_surf(t, zz + h) - 2 * u_surf(t, zz) + u_surf(t, zz - h)) / h**2
        lap = float((u_tt + u_zz)[0])
        pt = np.array([[np.cos(theta), np.sin(theta), z]])
        assert float(data.f(0, pt)[0]) == pytest.approx(-lap, rel=1e-5)


def test_cylinder_sine_gradient_is_tangential_and_consistent(rng):
    surface = quarter_cylinder_grid(2)
    data = make_problem("cylinder_sine", surface, 2)
    h = 1e-6
    for _ in range(20):
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        z = rng.uniform(0.05, 0.95)
        pt = np.array([[np.cos(theta), np.sin(theta), z]])
        g = data.grad_u_exact(pt)[0]
        radial = np.array([np.cos(theta), np.sin(theta), 0.0])
        assert abs(g @ radial) <= 1e-12
        # directional derivative along the arc
        fd = (
            float(data.u_exact(np.array([[np.cos(theta + h), np.sin(theta + h), z]]))[0])
            - float(data.u_exact(np.array([[np.cos(theta - h), np.sin(theta - h), z]]))[0])
        ) / (2 * h)
        tangent = np.array([-np.sin(theta), np.cos(theta), 0.0])
        assert g @ tangent == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_plane_cosine_is_neumann_compatible(rng):
    surface = square_grid(2, bc="neumann")
    data = make_problem("plane_cosine", surface, 2)
    # Zero normal derivative on the outer boundary.
    for t in rng.random(10):
        for pt in ([0.0, t], [1.0, t], [t, 0.0], [t, 1.0]):
            g = data.grad_u_exact(np.array([[pt[0], pt[1], 0.0]]))[0]
            normal_axis = 0 if pt[0] in (0.0, 1.0) else 1
            assert abs(g[normal_axis]) <= 1e-13


# -- expression language -------------------------------------------------------

def test_expression_evaluation():
    f = parse_expression("2*pi^2*sin(pi*x)*sin(pi*y) + 0*z")
    pts = np.array([[0.5, 0.5, 3.0], [0.25, 0.5, 0.0]])
    np.testing.assert_allclose(
        f(pts), 2 * np.pi**2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    )


def test_expression_constants_broadcast():
    f = parse_expression("1.5")
    assert f(np.zeros((4, 3))).shape == (4,)


def test_power_is_right_associative_and_binds_tighter_than_unary_minus():
    one_point = np.array([[3.0, 4.0, 0.0]])
    assert parse_expression("2^3^2")(one_point)[0] == 512.0
    assert parse_expression("-2^2")(one_point)[0] == -4.0
    # An unparenthesised power of a power: (x^2+y^2)^(0.5^2), not 5.
    assert parse_expression("(x^2+y^2)^0.5^2")(one_point)[0] == pytest.approx(5.0**0.5)


def test_expression_atan2():
    f = parse_expression("atan2(y, x)")
    pts = np.array([[1.0, 1.0, 0.0]])
    assert float(f(pts)[0]) == pytest.approx(np.pi / 4)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.shape",
        "lambda: 1",
        "open('f')",
        "q + 1",
        "x < y",
        "'abc'",
        "sin(x, key=1)",
        "1" + "0" * 400,  # an integer literal beyond float64
    ],
)
def test_expression_rejects_unsupported(bad):
    with pytest.raises(ValueError):
        parse_expression(bad)


@pytest.mark.parametrize("text", ["sin(x, y)", "cos()", "atan2(y)", "atan2(y, x, z)"])
def test_expression_checks_the_argument_count_when_parsed(text):
    """sin(x, y) was np.sin(x, y): numpy took y as ``out`` and overwrote the
    y column of the caller's points; cos() raised TypeError when called."""
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_expression(text)


@pytest.mark.parametrize("text", ["sin", "-exp", "(-8)^(1/3)"])
def test_expression_values_are_float64_numbers(text):
    """A bare function raised TypeError when called; (-8)^(1/3) was the
    complex cube root, cut to its real part 1.0000000000000002 with only a
    ComplexWarning, where float64 arithmetic gives NaN."""
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_expression(text)(np.zeros((2, 3)))


@pytest.mark.parametrize("depth", [1000, 100000])
def test_deeply_nested_expression_is_a_parse_error(depth):
    """Nesting past the recursion limit raised RecursionError, and past the
    parser's own limit MemoryError: the CLI exited 1, not 2."""
    with pytest.raises(ValueError, match="cannot parse"):
        parse_expression("-" * depth + "x")


def test_deeply_nested_expression_raises_value_error_when_called():
    """An expression that parses near the recursion limit ran out of stack
    when called from deeper frames, as in an assembly."""
    depth = sys.getrecursionlimit() - len(inspect.stack(0)) - 20
    field = parse_expression("-" * depth + "x")

    def deeper(frames):
        return field(np.zeros((2, 3))) if frames == 0 else deeper(frames - 1)

    with pytest.raises(ValueError, match="nested too deeply"):
        deeper(100)


def test_a_tower_of_powers_raises_at_once():
    """9^9^9 was Python integer arithmetic, which never returned; in float64
    it overflows to inf.  A subprocess, so that a hang fails the test."""
    code = ("import numpy as np\nfrom dgiga.problems import parse_expression\n"
            "try:\n    parse_expression('9^9^9')(np.zeros((1, 3)))\n"
            "except ValueError as exc:\n    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dgiga.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.stdout.startswith("expression '9^9^9' evaluates to inf"), done.stderr[-2000:]


def test_alpha_in_f_is_the_patch_coefficient():
    surface = square_grid(1, alpha=[1.0, 10.0, 100.0, 1000.0])
    data = make_problem("f=alpha*(1+x)", surface, 1)
    pts = np.array([[0.5, 0.25, 0.0], [1.0, 0.0, 0.0]])
    for pid, alpha in enumerate(surface.alpha):
        np.testing.assert_array_equal(data.f(pid, pts), [1.5 * alpha, 2.0 * alpha])
    # The volume assembly passes one patch id per point.
    np.testing.assert_array_equal(data.f(np.array([3, 0]), pts), [1.5 * 1000.0, 2.0 * 1.0])


@pytest.mark.parametrize("key", ["u", "gD", "gN", "gx", "gy", "gz"])
def test_alpha_outside_f_is_rejected(key):
    with pytest.raises(ValueError, match="alpha, the patch coefficient, is allowed only in f"):
        make_problem(f"f=alpha; {key}=alpha*x", square_grid(1), 1)


@pytest.mark.parametrize("text", ["exp(1000*x)", "sin(pi*x)/(x-x)", "1e400", "-exp(800)*x"])
def test_non_finite_values_raise(text):
    f = parse_expression(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ValueError, not a numpy RuntimeWarning
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            f(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))


def test_expression_problem_matches_builtin(rng):
    surface = square_grid(2)
    spec = (
        "u=sin(pi*x)*sin(pi*y);"
        "f=2*pi^2*sin(pi*x)*sin(pi*y);"
        "gD=sin(pi*x)*sin(pi*y);"
        "gx=pi*cos(pi*x)*sin(pi*y); gy=pi*sin(pi*x)*cos(pi*y); gz=0"
    )
    expr = make_problem(spec, surface, 2)
    ref = make_problem("plane_sine", surface, 2)
    pts = np.column_stack([rng.random(20), rng.random(20), np.zeros(20)])
    np.testing.assert_allclose(expr.u_exact(pts), ref.u_exact(pts), atol=1e-14)
    np.testing.assert_allclose(expr.f(0, pts), ref.f(0, pts), atol=1e-12)
    np.testing.assert_allclose(expr.grad_u_exact(pts), ref.grad_u_exact(pts), atol=1e-12)


def test_expression_problem_bad_key():
    with pytest.raises(ValueError, match="unknown problem field"):
        make_problem("w=1", square_grid(1), 1)


def test_expression_problem_repeated_key():
    # u = y used to replace u = x without a message.
    with pytest.raises(ValueError, match="'u' is given more than once"):
        make_problem("u=x; u=y; f=0", square_grid(1), 1)


def test_expression_without_gradient_has_none():
    data = make_problem("u=x; f=0", square_grid(1), 1)
    assert data.grad_u_exact is None
    assert data.g_D is data.u_exact


@pytest.mark.parametrize("spec, missing", [("u=x; gx=1", "gy, gz"), ("u=x; gx=1; gz=0", "gy")])
def test_expression_with_part_of_the_gradient_names_the_missing_keys(spec, missing):
    with pytest.raises(ValueError, match=f"needs gx, gy and gz; missing {missing}$"):
        make_problem(spec, square_grid(1), 1)


def test_expression_params_may_be_a_list():
    field = parse_expression("x + alpha", ["alpha"])
    pts = np.array([[0.25, 0.0, 0.0], [1.5, 0.0, 0.0]])
    np.testing.assert_array_equal(field(pts, alpha=np.array([1.0, 2.0])), [1.25, 3.5])


def test_bad_spec_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown name 'w'"):
            make_problem("u=w; f=0", square_grid(1), 1)
        with pytest.raises(ValueError, match="cannot parse"):
            parse_expression("x +")
