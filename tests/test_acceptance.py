"""Acceptance suite: one test per exit criterion, one printed line each.

The PASS/FAIL lines bypass pytest's capture so they appear in any run
(e.g. plain ``pytest -v``).
"""

import time

import numpy as np
import pytest
from conftest import bundled, symmetry_deviation
from oracles import interpolate, surface_area

from dgiga.assembly import assemble_system, default_penalty, interface_slots
from dgiga.geofile import parse_geometry
from dgiga.geometries import quarter_cylinder_grid, square_grid
from dgiga.geometry import refine_surface, tabulate_grid, tabulate_sides
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import tabulate

BUNDLED = ["square4.g", "square4_p2.g", "square4_p3.g", "qcyl4.g", "qcyl4_p3.g"]


@pytest.fixture
def report(capsys):
    def _report(criterion: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, detail

    return _report


@pytest.mark.parametrize("p,levels", [(1, 5), (2, 5), (3, 4)])
def test_criterion_1_planar_rates(p, levels, planar_sweep, report):
    start = time.time()
    table, _ = planar_sweep(p, levels)
    elapsed = time.time() - start
    l2_rate, dg_rate = table.rows[-1].l2_rate, table.rows[-1].dg_rate
    ok = abs(l2_rate - (p + 1)) <= 0.2 and abs(dg_rate - p) <= 0.2 and elapsed < 120
    report(
        "1",
        ok,
        f"4-patch square p={p}: L2 rate {l2_rate:.3f} (target {p + 1}±0.2), "
        f"DG rate {dg_rate:.3f} (target {p}±0.2), {elapsed:.1f}s",
    )


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_2_cylinder_rates(p, cylinder_sweep, report):
    table, _ = cylinder_sweep(p, 4)
    l2_rate, dg_rate = table.rows[-1].l2_rate, table.rows[-1].dg_rate
    ok = abs(l2_rate - (p + 1)) <= 0.2 and abs(dg_rate - p) <= 0.2
    report(
        "2",
        ok,
        f"quarter cylinder p={p}: L2 rate {l2_rate:.3f} (target {p + 1}±0.2), "
        f"DG rate {dg_rate:.3f} (target {p}±0.2)",
    )


def test_criterion_3_penalty_rule(report):
    values = [default_penalty(p) for p in (1, 2, 3, 4)]
    ok = values == [12.0, 24.0, 40.0, 60.0]
    report("3", ok, f"default penalty for p=1..4: {values} (expected [12, 24, 40, 60])")


def test_criterion_4_sipg_structure(report):
    details = []
    ok = True
    for name in BUNDLED:
        surface = parse_geometry(bundled(name)).surface()
        p = surface.patches[0].degree[0]
        surface = refine_surface(surface)
        problem = "cylinder_sine" if name.startswith("qcyl") else "plane_sine"
        data = make_problem(problem, surface, p)
        space = build_space(surface, p)
        system = assemble_system(space, data)
        sym = symmetry_deviation(system.matrix)
        x, rep = cg_solve(system.matrix, system.rhs, tol=1e-10)
        ok = ok and sym <= 1e-12 and rep.converged
        details.append(f"{name}: sym {sym:.1e}, CG {rep.iterations} its")
    report("4", ok, "; ".join(details))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_criterion_5_consistency_residual(p, report):
    surface = parse_geometry(bundled(BUNDLED[p - 1])).surface()
    norms = []
    for level in range(4):
        if level:
            surface = refine_surface(surface)
        data = make_problem("plane_sine", surface, p)
        space = build_space(surface, p)
        system = assemble_system(space, data)
        u_i = interpolate(space, data.u_exact)
        norms.append(float(np.linalg.norm(system.matrix @ u_i.coefficients - system.rhs)))
    orders = [np.log2(a / b) for a, b in zip(norms, norms[1:])]
    ok = all(n2 < n1 for n1, n2 in zip(norms, norms[1:])) and orders[-1] >= p - 0.3
    report(
        "5",
        ok,
        f"p={p}: interpolant residual norms {['%.2e' % n for n in norms]}, "
        f"orders {['%.2f' % o for o in orders]} (need decreasing, last >= {p - 0.3:.1f})",
    )


def test_criterion_6_jump_robustness(jump_sweep, report):
    table, results = jump_sweep
    l2_rate = table.rows[-1].l2_rate
    converged = all(r.solve_report.converged for r in results)
    ok = abs(l2_rate - 3.0) <= 0.3 and converged
    report(
        "6",
        ok,
        f"alpha checkerboard 1/1e4, p=2: L2 rate {l2_rate:.3f} (target 3±0.3), "
        f"default penalty, CG converged at every level",
    )
    # module-level property: within 0.2 of p+1
    assert abs(l2_rate - 3.0) <= 0.2


def edge_traces(f, edge, q=5):
    """Traces of a discrete function from the left and the right of an edge."""
    coeffs = [f.patch_coeffs(pid) for pid in range(f.space.surface.num_patches)]
    tab = tabulate_sides(f.space.surface.patches, interface_slots([edge]), q, coeffs)
    half = tab.starts[1]
    return tab.field[:half], tab.field[half:]


def test_criterion_7_property_suites(rng, report):
    checks = []

    # partition of unity / derivative sum on the bundled knot vectors
    surface = parse_geometry(bundled("qcyl4.g")).surface()
    kv = surface.patches[0].basis.basis_u
    _, values, derivs = tabulate(kv, rng.random(1000))
    pou = np.max(np.abs(values.sum(axis=1) - 1.0))
    dsum = np.max(np.abs(derivs.sum(axis=1)))
    checks.append(("partition of unity", pou <= 1e-12 and dsum <= 1e-10))

    # derivative finite differences
    h = 1e-6
    xs = rng.uniform(0.05, 0.95, 200)
    xs = xs[np.abs(xs - 0.5) >= 10 * h]
    _, values, derivs = tabulate(kv, xs)
    fd = (tabulate(kv, xs + h)[1] - tabulate(kv, xs - h)[1]) / (2 * h)
    worst = float(np.max(np.abs(fd - derivs) / np.maximum(np.abs(derivs), 1.0)))
    checks.append(("derivative finite differences", worst <= 1e-5))

    # tangency of surface gradients
    tang = 0.0
    for surf in (square_grid(2), quarter_cylinder_grid(2)):
        for patch in surf.patches:
            tab = tabulate_grid([patch], rng.random(12), rng.random(12))
            g = tab.surface_gradient(rng.normal(size=(2,) + tab.sqrt_det_g.shape))
            normal = np.cross(tab.jacobian[:, 0], tab.jacobian[:, 1], axis=0)
            normal /= np.linalg.norm(normal, axis=0, keepdims=True)
            scale = np.maximum(1.0, np.linalg.norm(g, axis=0))
            tang = max(tang, float(np.max(np.abs(np.sum(g * normal, axis=0)) / scale)))
    checks.append(("tangential gradients", tang <= 1e-10))

    # antiparallel interface conormals
    anti = 0.0
    for surf in (square_grid(2), quarter_cylinder_grid(2)):
        for edge in surf.edges_of_kind("interior"):
            tab = tabulate_sides(surf.patches, interface_slots([edge]), 4)
            gap = tab.conormal[:, : tab.starts[1]] + tab.conormal[:, tab.starts[1]:]
            anti = max(anti, float(np.max(np.linalg.norm(gap, axis=0))))
    checks.append(("antiparallel conormals", anti <= 1e-8))

    # jump/average identity on the kernel traces of two random functions
    surf = square_grid(2)
    space = build_space(surf, 2)
    u = space.function(rng.normal(size=space.total_dofs))
    v = space.function(rng.normal(size=space.total_dofs))
    edge = surf.edges_of_kind("interior")[0]
    (ul, ur), (vl, vr) = (edge_traces(f, edge) for f in (u, v))
    lhs = ul * vl - ur * vr
    rhs = 0.5 * (ul + ur) * (vl - vr) + (ul - ur) * 0.5 * (vl + vr)
    checks.append(("jump/average identity", float(np.max(np.abs(lhs - rhs))) <= 1e-12))

    # knot insertion leaves the geometry invariant
    surf = quarter_cylinder_grid(2)
    fine = refine_surface(surf)
    move = 0.0
    for coarse_patch, fine_patch in zip(surf.patches, fine.patches):
        xu, xv = rng.random(5), rng.random(5)
        a, b = (tabulate_grid([p], xu, xv).points for p in (coarse_patch, fine_patch))
        move = max(move, float(np.max(np.linalg.norm(a - b, axis=0))))
    checks.append(("knot-insertion invariance", move <= 1e-12))

    # quarter-cylinder area at assembly quadrature order
    s2 = quarter_cylinder_grid(2)
    for _ in range(3):
        s2 = refine_surface(s2)
    err2 = abs(surface_area(s2, 3) - np.pi / 2)
    s3 = refine_surface(quarter_cylinder_grid(3))
    err3 = abs(surface_area(s3, 4) - np.pi / 2)
    checks.append(("quarter-cylinder area", err2 <= 1e-10 and err3 <= 1e-10))

    ok = all(passed for _, passed in checks)
    report("7", ok, "; ".join(f"{name}: {'ok' if passed else 'FAIL'}" for name, passed in checks))
