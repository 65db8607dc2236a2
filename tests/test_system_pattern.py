"""The system's sparsity pattern is structural.

``assemble_system`` sums the edge entries into the volume's CSR and inserts
the keys that the volume pattern lacks, so the pattern depends on the mesh
and the edge list only.  It contains the volume pattern, and a coefficient
jump or data that cancel an entry to 0.0 do not remove that entry.  Every
interior edge adds the coupling of its two sides: each pair of functions,
one from each side, that shares an edge element and is not a pair of
functions with zero trace.  A one-patch closed cylinder couples the patch
with itself: its west side is an interface with its own east side, so the
coupling lands inside the patch's own block, between its band columns.
"""

import numpy as np
import pytest
from conftest import symmetry_deviation

from dgiga.assembly import ProblemData, assemble_system, assemble_volume
from dgiga.driver import run_sweep
from dgiga.geometries import _arc_segments, full_cylinder, square_grid
from dgiga.geometry import NurbsPatch, match_interfaces, refine_surface
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import KnotVector, NurbsBasis2D, greville


def refined(surface, times):
    for _ in range(times):
        surface = refine_surface(surface)
    return surface


def keys(matrix):
    """Row-major keys r n + c of the stored entries."""
    n = matrix.shape[0]
    return np.repeat(np.arange(n) * n, np.diff(matrix.indptr)) + matrix.indices


def coupling_entries(surface):
    """Entries the interior edges add to the volume pattern, counted from the mesh.

    Along an edge with simple interior knots, functions i and j share an
    element when |i - j| <= p.  Each such pair couples the two rows of trace
    functions on either side (the boundary row and the next) except
    next-to-next, whose traces are both zero: 3 row pairs, in both directions.
    """
    total = 0
    for edge in surface.edges_of_kind("interior"):
        pid, side = edge.left
        kv = surface.patches[pid].side_knots(side)
        i = np.arange(kv.n)
        band = np.minimum(i + kv.degree, kv.n - 1) - np.maximum(i - kv.degree, 0) + 1
        total += 2 * 3 * int(band.sum())
    return total


def quadrant_alpha(n):
    return [1e4 if (2 * i < n) == (2 * j < n) else 1.0 for j in range(n) for i in range(n)]


def check_structural(system, volume, surface):
    assert system.has_canonical_format
    assert system.indices.dtype == system.indptr.dtype == np.int32
    assert np.isin(keys(volume), keys(system)).all()
    assert system.nnz == volume.nnz + coupling_entries(surface)


def test_system_pattern_contains_the_volume_pattern():
    # Here volume terms cancelled by edge terms round to exactly 0.0 in six
    # entries; they stay in the pattern.
    surface = refined(square_grid(2), 2)
    space, data = build_space(surface, 2), make_problem("plane_sine", surface, 2)
    system = assemble_system(space, data).matrix
    check_structural(system, assemble_volume(space, data).matrix, surface)
    assert system.nnz == 2880


def test_pattern_is_the_same_for_any_coefficients_and_data():
    patterns = []
    for alpha in (None, quadrant_alpha(4)):
        surface = refined(square_grid(2, nx=4, ny=4, alpha=alpha), 1)
        space = build_space(surface, 2)
        other = ProblemData(f=lambda pid, x: np.cos(7.0 * x[:, 0]) + pid,
                            g_D=lambda x: x[:, 0] - x[:, 1] ** 2, delta=5.0)
        for data in (make_problem("plane_sine", surface, 2), ProblemData(delta=12.0), other):
            system = assemble_system(space, data).matrix
            check_structural(system, assemble_volume(space, data).matrix, surface)
            patterns.append(system)
    for system in patterns[1:]:
        np.testing.assert_array_equal(system.indptr, patterns[0].indptr)
        np.testing.assert_array_equal(system.indices, patterns[0].indices)
    assert patterns[0].nnz == 5152


def closed_cylinder(p):
    """The unit cylinder as one patch: four exact quarter arcs joined by knots of
    multiplicity p at 1/4, 1/2 and 3/4, times [0, 1]; Dirichlet rims."""
    arcs = [_arc_segments(i * np.pi / 2, (i + 1) * np.pi / 2, p, 1)[0] for i in range(4)]
    xy = np.concatenate([arcs[0][0]] + [a[0][1:] for a in arcs[1:]])
    w = np.concatenate([arcs[0][1]] + [a[1][1:] for a in arcs[1:]])
    inner = np.repeat([0.25, 0.5, 0.75], p)
    ku = KnotVector(p, np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)]))
    kv = KnotVector(p, np.concatenate([np.zeros(p + 1), np.ones(p + 1)]))
    cp = np.empty((xy.shape[0], p + 1, 3))
    cp[..., :2] = xy[:, None, :]
    cp[..., 2] = greville(kv)[None, :]
    patch = NurbsPatch(NurbsBasis2D(ku, kv, np.repeat(w[:, None], p + 1, axis=1)), cp, 0)
    return match_interfaces([patch], {(0, "south"): "dirichlet", (0, "north"): "dirichlet"})


def test_self_coupled_patch_matches_the_four_patch_cylinder():
    p = 2
    surface = closed_cylinder(p)
    (edge,) = surface.edges_of_kind("interior")
    assert (edge.left, edge.right) == ((0, "west"), (0, "east"))
    space, data = build_space(surface, p), make_problem("cylinder_sine", surface, p)
    system = assemble_system(space, data).matrix
    volume = assemble_volume(space, data).matrix
    check_structural(system, volume, surface)
    assert symmetry_deviation(system) <= 1e-14
    # Row 0 is a west function: it gains east columns between its band columns.
    row = system.indices[system.indptr[0] : system.indptr[1]]
    band = volume.indices[volume.indptr[0] : volume.indptr[1]]
    coupled = np.setdiff1d(row, band)
    assert coupled.size and coupled.min() < band.max()

    def factory(surf, delta):
        return make_problem("cylinder_sine", surf, p, delta)

    table, _ = run_sweep(surface, p, factory, 4)
    reference, _ = run_sweep(full_cylinder(p, 1, bc="dirichlet"), p, factory, 4)
    got, want = table.rows[-1], reference.rows[-1]
    assert (got.dofs, want.dofs) == (370, 400)  # the 3 inner joins share their functions
    assert got.l2_error == pytest.approx(want.l2_error, rel=1e-7)
    assert got.dg_error == pytest.approx(want.dg_error, rel=1e-7)
    assert got.l2_rate == pytest.approx(3.088, abs=1e-3)
    assert got.dg_rate == pytest.approx(2.247, abs=1e-3)
