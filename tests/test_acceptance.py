"""Acceptance suite: one test per exit criterion, one printed line each.

The PASS/FAIL lines bypass pytest's capture so they appear in any run
(e.g. plain ``pytest -v``).
"""

import time

import numpy as np
import pytest
from conftest import symmetry_deviation
from oracles import conormal_at, edge_average, edge_jump, interpolate, trace_on_edge

from dgiga.assembly import assemble_system, default_penalty
from dgiga.cli import data_path
from dgiga.geofile import parse_geometry
from dgiga.geometries import quarter_cylinder_grid, square_grid
from dgiga.geometry import frame_at, refine_surface, surface_gradient, surface_normal
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import eval_bspline

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
    l2_rate, dg_rate = table.last_rates()
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
    l2_rate, dg_rate = table.last_rates()
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
        surface = parse_geometry(data_path(name)).surface()
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
    surface = parse_geometry(data_path(BUNDLED[p - 1])).surface()
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
    l2_rate, _ = table.last_rates()
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


def test_criterion_7_property_suites(rng, report):
    checks = []

    # partition of unity / derivative sum on the bundled knot vectors
    surface = parse_geometry(data_path("qcyl4.g")).surface()
    kv = surface.patches[0].basis.basis_u
    pou = max(abs(eval_bspline(kv, x).values.sum() - 1.0) for x in rng.random(1000))
    dsum = max(abs(eval_bspline(kv, x).derivs.sum()) for x in rng.random(1000))
    checks.append(("partition of unity", pou <= 1e-12 and dsum <= 1e-10))

    # derivative finite differences
    h = 1e-6
    worst = 0.0
    for x in rng.uniform(0.05, 0.95, 200):
        if abs(x - 0.5) < 10 * h:
            continue
        ev = eval_bspline(kv, x)
        fd = (eval_bspline(kv, x + h).values - eval_bspline(kv, x - h).values) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - ev.derivs) / np.maximum(np.abs(ev.derivs), 1.0))))
    checks.append(("derivative finite differences", worst <= 1e-5))

    # tangency of surface gradients
    tang = 0.0
    for surf in (square_grid(2), quarter_cylinder_grid(2)):
        for _ in range(500):
            patch = surf.patches[int(rng.integers(surf.num_patches))]
            frame = frame_at(patch, rng.random(2))
            g = surface_gradient(frame, rng.normal(size=2))
            tang = max(tang, abs(g @ surface_normal(frame)) / max(1.0, np.linalg.norm(g)))
    checks.append(("tangential gradients", tang <= 1e-10))

    # antiparallel interface conormals
    anti = 0.0
    for surf in (square_grid(2), quarter_cylinder_grid(2)):
        for edge in surf.edges_of_kind("interior"):
            for t in rng.random(10):
                n_l = conormal_at(surf, edge, "left", float(t))
                n_r = conormal_at(surf, edge, "right", float(t))
                anti = max(anti, float(np.linalg.norm(n_l + n_r)))
    checks.append(("antiparallel conormals", anti <= 1e-8))

    # jump/average identity
    surf = square_grid(2)
    space = build_space(surf, 2)
    u = space.function(rng.normal(size=space.total_dofs))
    v = space.function(rng.normal(size=space.total_dofs))
    edge = surf.edges_of_kind("interior")[0]
    dev = 0.0
    for t in rng.random(20):
        t = float(t)
        ul, _ = trace_on_edge(u, edge, "left", t)
        ur, _ = trace_on_edge(u, edge, "right", t)
        vl, _ = trace_on_edge(v, edge, "left", t)
        vr, _ = trace_on_edge(v, edge, "right", t)
        lhs = ul * vl - ur * vr
        rhs = edge_average(u, edge, t) * edge_jump(v, edge, t) + edge_jump(u, edge, t) * edge_average(v, edge, t)
        dev = max(dev, abs(lhs - rhs))
    checks.append(("jump/average identity", dev <= 1e-12))

    # knot insertion leaves the geometry invariant
    surf = quarter_cylinder_grid(2)
    fine = refine_surface(surf)
    move = 0.0
    for _ in range(20):
        pid = int(rng.integers(4))
        xi = rng.random(2)
        move = max(
            move,
            float(np.linalg.norm(surf.patches[pid].point(xi) - fine.patches[pid].point(xi))),
        )
    checks.append(("knot-insertion invariance", move <= 1e-12))

    # quarter-cylinder area at assembly quadrature order
    s2 = quarter_cylinder_grid(2)
    for _ in range(3):
        s2 = refine_surface(s2)
    err2 = abs(s2.area(q=3) - np.pi / 2)
    s3 = refine_surface(quarter_cylinder_grid(3))
    err3 = abs(s3.area(q=4) - np.pi / 2)
    checks.append(("quarter-cylinder area", err2 <= 1e-10 and err3 <= 1e-10))

    ok = all(passed for _, passed in checks)
    report("7", ok, "; ".join(f"{name}: {'ok' if passed else 'FAIL'}" for name, passed in checks))
