import dataclasses

import numpy as np
import pytest
from conftest import bundled

import dgiga.driver
from dgiga.cli import EXIT_GEOMETRY, EXIT_PARSE, EXIT_SOLVER, main
from dgiga.geofile import GeometryData, serialize_geometry
from dgiga.geometries import square_grid


def test_check_prints_edge_counts(capsys):
    rc = main(["check", str(bundled("square4.g"))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "patches: 4" in out
    assert "interior edges:  4" in out
    assert "dirichlet edges: 8" in out
    assert "neumann edges:   0" in out


def test_solve_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "solve",
            str(bundled("square4.g")),
            "--problem",
            "plane_sine",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == "level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate"
    assert len(rates) == 3
    assert rates[1].split(",")[5] == ""  # no rate on level 0
    for level in (0, 1):
        sample = (out / f"solution_L{level}.csv").read_text().splitlines()
        assert sample[0] == "patch,xi1,xi2,x,y,z,uh"
        assert len(sample) == 1 + 4 * 100  # 10x10 grid per patch


def test_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            [
                "solve",
                str(bundled("square4_p2.g")),
                "--problem",
                "plane_sine",
                "--levels",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(
            (
                (out / "rates.csv").read_bytes(),
                (out / "solution_L0.csv").read_bytes(),
                (out / "solution_L1.csv").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


DEGREE_1_2 = """patch 0
knots_u 1 0 0 1 1
knots_v 2 0 0 0 1 1 1
cp 0 0 0 1
cp 1 0 0 1
cp 0 0.5 0 1
cp 1 0.5 0 1
cp 0 1 0 1
cp 1 1 0 1
tag 0 west dirichlet
tag 0 east dirichlet
tag 0 south dirichlet
tag 0 north dirichlet
"""


def test_patch_of_unequal_degrees_exit_code(tmp_path, capsys):
    """The degree is the geometry's, and a patch of degree (1, 2) is not (p, p)."""
    path = tmp_path / "p12.g"
    path.write_text(DEGREE_1_2, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    argv = ["solve", str(path), "--problem", "plane_sine", "--levels", "1",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_PARSE
    assert "degree (1, 2)" in capsys.readouterr().err
    assert not (tmp_path / "run" / "rates.csv").exists()


def repeated_knot_square(multiplicity: int) -> str:
    """One p = 2 patch on the unit square, every side Dirichlet, with the knot 0.5 of
    the given multiplicity in both directions and control points at the Greville points."""
    knots = [0.0] * 3 + [0.5] * multiplicity + [1.0] * 3
    g = [(a + b) / 2 for a, b in zip(knots[1:-2], knots[2:-1])]
    lines = ["patch 0", *(f"knots_{d} 2 " + " ".join(map(str, knots)) for d in "uv")]
    lines += [f"cp {x} {y} 0 1" for y in g for x in g]
    lines += [f"tag 0 {side} dirichlet" for side in ("west", "east", "south", "north")]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("multiplicity", [3, 4], ids=["degree_plus_1", "degree_plus_2"])
def test_interior_knot_above_the_degree_exit_code(tmp_path, capsys, multiplicity):
    """With multiplicity 3 the knot acted as a Neumann wall: exit 0 and L2 errors of
    0.1722, 0.1711, 0.1711 (rate 0.00).  With 4 the assembly's np.repeat crashed."""
    path = tmp_path / "knot.g"
    path.write_text(repeated_knot_square(multiplicity), encoding="utf-8")
    spec = ("u=exp(x)*sin(pi*y); f=(pi^2-1)*exp(x)*sin(pi*y); "
            "gx=exp(x)*sin(pi*y); gy=pi*exp(x)*cos(pi*y); gz=0")
    argv = ["solve", str(path), "--problem", spec, "--levels", "3", "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_PARSE
    assert f"line 2: invalid knot vector: interior knot 0.5 has multiplicity {multiplicity}" \
        in capsys.readouterr().err
    assert not (tmp_path / "run" / "rates.csv").exists()


def test_partial_exact_gradient_exit_code(tmp_path, capsys):
    """gx and gy without gz used to print dg=nan, leave the dg columns empty and exit 0."""
    spec = ("u=sin(pi*x)*sin(pi*y); f=2*pi^2*sin(pi*x)*sin(pi*y); "
            "gx=pi*cos(pi*x)*sin(pi*y); gy=pi*sin(pi*x)*cos(pi*y)")
    argv = ["solve", str(bundled("square4_p2.g")), "--problem", spec, "--levels", "1",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    assert "the exact gradient needs gx, gy and gz; missing gz" in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


def test_expression_problem_runs(tmp_path):
    rc = main(
        [
            "solve",
            str(bundled("square4.g")),
            "--problem",
            "u=sin(pi*x)*sin(pi*y); f=2*pi^2*sin(pi*x)*sin(pi*y)",
            "--levels",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rates = (tmp_path / "rates.csv").read_text().splitlines()
    assert rates[1].split(",")[4] == ""  # no exact gradient: dg column empty


def test_unmeasured_errors_are_empty_fields(tmp_path):
    """Without u= neither error is measured: both are empty, like the rates."""
    argv = ["solve", str(bundled("square4.g")), "--problem", "f=2*pi^2*sin(pi*x)*sin(pi*y)",
            "--levels", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    rates = (tmp_path / "rates.csv").read_text().splitlines()
    assert rates[1] == "0,0.70710678118654757,16,,,,"
    assert rates[2].endswith(",36,,,,")


@pytest.mark.parametrize("expr", ["f=10^400*x", "f=1/0+x", "f=10^400"],
                         ids=["overflow", "zero_division", "integer_overflow"])
def test_arithmetic_error_in_expression_exit_code(tmp_path, capsys, expr):
    argv = ["solve", str(bundled("square4.g")), "--problem", expr, "--levels", "1",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(expr[2:]) in err


@pytest.mark.parametrize("spec, expr", [
    ("f=exp(1000*x)", "exp(1000*x)"),
    ("f=2*pi^2*sin(pi*x)*sin(pi*y); u=sin(pi*x)*sin(pi*y)/(x-x)", "sin(pi*x)*sin(pi*y)/(x-x)"),
], ids=["overflow_to_inf", "nan"])
def test_non_finite_expression_exit_code(tmp_path, capsys, spec, expr):
    argv = ["solve", str(bundled("square4.g")), "--problem", spec, "--levels", "2",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(expr) in err
    assert not (tmp_path / "rates.csv").exists()


def test_expression_with_a_wrong_argument_count_exit_code(tmp_path, capsys):
    """sin(x, y) overwrote the y column of the tabulated points and exited 0."""
    argv = ["solve", str(bundled("square4_p2.g")), "--problem", "u=sin(x,y); f=0",
            "--levels", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    assert "sin takes 1 positional argument(s), in expression 'sin(x,y)'" \
        in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


def test_alpha_outside_f_exit_code(tmp_path, capsys):
    argv = ["solve", str(bundled("square4.g")), "--problem", "f=alpha; gN=alpha*x",
            "--levels", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    assert "allowed only in f" in capsys.readouterr().err


PLANE_SINE_BY_HAND = (
    "u=sin(pi*x)*sin(pi*y); f=2*pi^2*alpha*(sin(pi*x)*sin(pi*y));"
    "gx=pi*cos(pi*x)*sin(pi*y); gy=pi*sin(pi*x)*cos(pi*y); gz=0"
)


def test_alpha_spec_matches_builtin_on_jump_geometry(tmp_path):
    surface = square_grid(2, alpha=[1, 1e4, 1e4, 1])
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    geometry = tmp_path / "jump.g"
    geometry.write_text(serialize_geometry(GeometryData(surface.patches, tags, surface.alpha)),
                        encoding="utf-8")
    problems = {"builtin": "plane_sine", "spec": PLANE_SINE_BY_HAND,
                "no_alpha": PLANE_SINE_BY_HAND.replace("alpha*", "")}
    rates = {}
    for name, problem in problems.items():
        argv = ["solve", str(geometry), "--problem", problem, "--levels", "3",
                "--out", str(tmp_path / name)]
        assert main(argv) == 0
        rates[name] = (tmp_path / name / "rates.csv").read_bytes()
    assert rates["spec"] == rates["builtin"]
    assert rates["no_alpha"] != rates["builtin"]  # the jump makes alpha matter


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("patch 0\nknots_u 1 0 0 1 1\n", encoding="utf-8")
    rc = main(["solve", str(bad), "--problem", "plane_sine", "--levels", "1", "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    assert "line" in capsys.readouterr().err


ONE_PATCH = """patch 0
knots_u 1 0 0 1 1
knots_v 1 0 0 1 1
alpha 1.0
cp 0 0 0 1
cp 1 0 0 1
cp 0 1 0 1
cp 1 1 0 1
tag 0 west dirichlet
tag 0 east dirichlet
tag 0 south dirichlet
tag 0 north dirichlet
"""


@pytest.mark.parametrize("good, bad, line", [
    ("alpha 1.0", "alpha nan", 4),
    ("tag 0 west dirichlet", "tag -1 west dirichlet", 9),
    ("tag 0 north dirichlet", "tag 0 north dirichlet\ntag 0 west neumann", 13),
], ids=["alpha_nan", "tag_negative", "tag_repeated"])
def test_non_finite_alpha_and_negative_tag_exit_code(tmp_path, capsys, good, bad, line):
    path = tmp_path / "one.g"
    path.write_text(ONE_PATCH, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    path.write_text(ONE_PATCH.replace(good, bad), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PARSE
    assert f"line {line}:" in capsys.readouterr().err


def test_repeated_problem_key_exit_code(tmp_path, capsys):
    argv = ["solve", str(bundled("square4.g")), "--problem", "u=x; u=y; f=0",
            "--levels", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    assert "'u' is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


def test_unknown_problem_exit_code(tmp_path, capsys):
    rc = main(
        [
            "solve",
            str(bundled("square4.g")),
            "--problem",
            "nope",
            "--levels",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_PARSE
    assert "available" in capsys.readouterr().err


def test_topology_error_exit_code(tmp_path, capsys):
    # Two patches that do not touch, with no tags on the gap sides.
    text = """patch 0
knots_u 1 0 0 1 1
knots_v 1 0 0 1 1
cp 0 0 0 1
cp 1 0 0 1
cp 0 1 0 1
cp 1 1 0 1
patch 1
knots_u 1 0 0 1 1
knots_v 1 0 0 1 1
cp 5 0 0 1
cp 6 0 0 1
cp 5 1 0 1
cp 6 1 0 1
"""
    geo = tmp_path / "gap.g"
    geo.write_text(text, encoding="utf-8")
    rc = main(["check", str(geo)])
    assert rc == EXIT_GEOMETRY
    assert "boundary tag" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys):
    # Far below the ellipticity threshold the system is indefinite and CG
    # reports a breakdown.
    rc = main(
        [
            "solve",
            str(bundled("square4_p2.g")),
            "--problem",
            "plane_sine",
            "--levels",
            "1",
            "--delta",
            "0.01",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_SOLVER


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_penalty_exit_code(tmp_path, capsys, delta):
    argv = ["solve", str(bundled("square4.g")), "--problem", "plane_sine", "--levels", "1",
            "--delta", delta, "--out", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positive" in err
    assert not (tmp_path / "rates.csv").exists()


def test_check_cylinder(capsys):
    rc = main(["check", str(bundled("qcyl4.g"))])
    assert rc == 0
    assert "interior edges:  4" in capsys.readouterr().out


def fstring_rows(samples, ts):
    """The solution CSV formatted field by field with f-strings, patch by patch."""
    lines = ["patch,xi1,xi2,x,y,z,uh"]
    for pid in sorted(samples):
        points, values = samples[pid]
        for j, x2 in enumerate(ts):
            for i, x1 in enumerate(ts):
                pt = points[i, j]
                lines.append(
                    f"{pid},{x1:.17g},{x2:.17g},{pt[0]:.17g},{pt[1]:.17g},{pt[2]:.17g},"
                    f"{values[i, j]:.17g}"
                )
    return "\n".join(lines) + "\n"


def test_solution_csv_matches_fstring_rows(tmp_path, monkeypatch):
    """%-formatted rows equal f-string fields byte for byte, -0, nan, inf and 1/3 included."""
    special = [-0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0, 0.0, -1e-300, 123456789.123]
    real, levels = dgiga.driver.tabulate_grid, []

    def spiked(patches, xs_u, xs_v, coeffs):
        tab = real(patches, xs_u, xs_v, coeffs)
        points, field = tab.points.copy(), tab.field.copy()
        points.reshape(-1)[: len(special)] = special
        field.reshape(-1)[-len(special):] = special
        n = len(xs_u)
        levels.append({p.id: (x, u) for p, x, u in zip(patches, np.moveaxis(points, 0, -1),
                                                       field.reshape(-1, n, n))})
        return dataclasses.replace(tab, points=points, field=field)

    monkeypatch.setattr(dgiga.driver, "tabulate_grid", spiked)
    out = tmp_path / "run"
    argv = ["solve", str(bundled("square4_p2.g")), "--problem", "plane_sine",
            "--levels", "2", "--out", str(out)]
    assert main(argv) == 0
    assert len(levels) == 2  # one stack of four patches per level
    for level, samples in enumerate(levels):
        expected = fstring_rows(samples, np.linspace(0.0, 1.0, 10))
        assert (out / f"solution_L{level}.csv").read_bytes() == expected.encode()
