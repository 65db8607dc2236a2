"""The system's sparsity pattern is structural.

``assemble_system`` sums into one pattern per level, built before any value
from the volume bands and the distinct keys of the kept edge entries
(``assembly._system_pattern``).  An edge entry is kept where one of its two
functions is of the first layer next to the side, which is the rule of a
nonzero trace, so the pattern depends on the mesh and the edge list only.
It contains the volume pattern, and a coefficient jump or data that cancel an
entry to 0.0 do not remove that entry.  Every interior edge adds the coupling
of its two sides: each pair of functions, one from each side, that shares an
edge element and is not a pair of functions with zero trace.  A one-patch
closed cylinder couples the patch with itself: its west side is an interface
with its own east side, so the coupling lands inside the patch's own block,
between its band columns.

The pattern, the values and the load equal, bit for bit, those of a merge
after the fact (``oracles.merged_system``: the edge entries summed by key and
inserted into the volume's CSR) on every digest case's finest level, seeded
flipped layouts, the closed cylinder, a two-patch ring, one-element patches, a
repeated interior knot, and layouts that meet a patch twice or meet
themselves across every pair of sides.
"""

import numpy as np
import pytest
from conftest import symmetry_deviation, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assemble_volume, merged_system
from test_output_digest import output_digest
from test_properties import flipped_grid
from test_trace_window import with_repeated_knot

from dgiga.assembly import ProblemData, _edge_terms, assemble_system, edge_sides, interface_slots
from dgiga.driver import run_sweep
from dgiga.geometries import _arc_segments, full_cylinder, planar_rectangle_patch, square_grid
from dgiga.geometry import (InterfaceEdge, MultiPatchSurface, NurbsPatch, match_interfaces,
                            refine_surface)
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import KnotVector, NurbsBasis2D, find_span, greville


def refined(surface, times):
    for _ in range(times):
        surface = refine_surface(surface)
    return surface


def keys(matrix):
    """Row-major keys r n + c of the stored entries."""
    n = matrix.shape[0]
    return np.repeat(np.arange(n) * n, np.diff(matrix.indptr)) + matrix.indices


def band_widths(kv):
    """How many functions share an element with each function of ``kv``, from the
    element windows: fewer next to a repeated interior knot than |i - j| <= p."""
    first = find_span(kv, kv.breaks[:-1]) - kv.degree
    return np.array([first[first <= i].max() - first[first + kv.degree >= i].min()
                     + kv.degree + 1 for i in range(kv.n)])


def coupling_entries(surface):
    """Entries the interior edges add to the volume pattern, counted from the mesh.

    Functions i and j along an edge share an element when j is in i's band.
    Each such pair couples the two rows of trace functions on either side (the
    boundary row and the next) except next-to-next, whose traces are both
    zero: 3 row pairs, in both directions.
    """
    total = 0
    for edge in surface.edges_of_kind("interior"):
        pid, side = edge.left
        total += 2 * 3 * int(band_widths(surface.patches[pid].side_knots(side)).sum())
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


def arc_cylinder(p, count=1):
    """The unit cylinder as ``count`` (1, 2 or 4) patches around: four exact quarter
    arcs, joined inside a patch by knots of multiplicity p, times [0, 1]; Dirichlet
    rims.  One patch meets itself west to east; two meet each other twice."""
    arcs = [_arc_segments(i * np.pi / 2, (i + 1) * np.pi / 2, p, 1)[0] for i in range(4)]
    kv = KnotVector(p, np.concatenate([np.zeros(p + 1), np.ones(p + 1)]))
    patches, per = [], 4 // count
    for k in range(count):
        mine = arcs[k * per : (k + 1) * per]
        xy = np.concatenate([mine[0][0]] + [a[0][1:] for a in mine[1:]])
        w = np.concatenate([mine[0][1]] + [a[1][1:] for a in mine[1:]])
        inner = np.repeat(np.arange(1, per) / per, p)
        ku = KnotVector(p, np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)]))
        cp = np.empty((xy.shape[0], p + 1, 3))
        cp[..., :2] = xy[:, None, :]
        cp[..., 2] = greville(kv)[None, :]
        patches.append(NurbsPatch(NurbsBasis2D(ku, kv, np.repeat(w[:, None], p + 1, axis=1)),
                                  cp, k))
    rims = {(k, side): "dirichlet" for k in range(count) for side in ("south", "north")}
    return match_interfaces(patches, rims)


def test_self_coupled_patch_matches_the_four_patch_cylinder():
    p = 2
    surface = arc_cylinder(p)  # one patch
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


def assert_same_as_the_merge(surface, p, data):
    space = build_space(surface, p)
    got, want = assemble_system(space, data), merged_system(space, data)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.rhs.tobytes() == want.rhs.tobytes()


@pytest.mark.parametrize("case", sorted(output_digest.CASES))
def test_digest_cases_match_the_merge(case):
    build, p, problem, levels = output_digest.CASES[case]
    surface = refined(build(), levels - 1)
    assert_same_as_the_merge(surface, p, make_problem(problem, surface, p))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.builds(flipped_grid, st.integers(0, 2**16), st.integers(2, 5)).filter(bool),
       st.integers(0, 1))
def test_seeded_flipped_layouts_match_the_merge(surface, refinements):
    surface = refined(surface, refinements)
    assert_same_as_the_merge(surface, 2, make_problem("plane_sine", surface, 2))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("count", [1, 2])
def test_closed_cylinder_and_two_patch_ring_match_the_merge(p, count):
    surface = arc_cylinder(p, count)
    pairs = {(e.left, e.right) for e in surface.edges_of_kind("interior")}
    if count == 2:  # the two patches meet across both west and east
        assert {frozenset(s[0] for s in pair) for pair in pairs} == {frozenset({0, 1})}
        assert len(pairs) == 2
    for level in range(3):
        assert_same_as_the_merge(surface, p, make_problem("cylinder_sine", surface, p))
        surface = refine_surface(surface)


def test_one_element_patches_match_the_merge():
    surface = square_grid(2, 8, 8)  # level 0: one element a patch
    assert {p.basis.basis_u.num_elements for p in surface.patches} == {1}
    assert_same_as_the_merge(surface, 2, make_problem("plane_sine", surface, 2))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_repeated_interior_knot_matches_the_merge_and_narrows_the_coupling(p):
    patches = [with_repeated_knot(planar_rectangle_patch(p, (i, 0.0), pid=i)) for i in (0, 1)]
    outer = [(0, "west"), (1, "east")] + [(i, s) for i in (0, 1) for s in ("south", "north")]
    surface = match_interfaces(patches, dict.fromkeys(outer, "dirichlet"))
    assert len(surface.edges_of_kind("interior")) == 1
    data = make_problem("plane_sine", surface, p)
    system = assemble_system(build_space(surface, p), data).matrix
    check_structural(system, assemble_volume(build_space(surface, p), data).matrix, surface)
    assert_same_as_the_merge(surface, p, data)


def folded(p, edges):
    """Unit squares side by side joined by a hand-written edge list: the edges, not
    the geometry, decide what couples.  Patches of one element, refined below."""
    count = 1 + max(pid for e in edges for pid, _ in (e.left, e.right or e.left))
    return MultiPatchSurface([planar_rectangle_patch(p, (i, 0.0), pid=i) for i in range(count)],
                             edges)


def joined(left, right, flip=False):
    return InterfaceEdge("interior", left, right, flip)


FOLDS = {
    "ring": [joined((0, "east"), (1, "west")), joined((1, "east"), (0, "west")),
             InterfaceEdge("dirichlet", (0, "south"))],
    "self": [joined((0, "west"), (0, "east")), InterfaceEdge("dirichlet", (0, "north"))],
    "self-flipped": [joined((0, "west"), (0, "east"), True),
                     InterfaceEdge("dirichlet", (0, "north"))],
    "self-across": [joined((0, "west"), (0, "south")), joined((0, "east"), (0, "north"), True)],
    "torus": [joined((0, "west"), (0, "east")), joined((0, "south"), (0, "north"))],
    "three-times": [joined((0, "east"), (1, "west")), joined((0, "north"), (1, "south")),
                    joined((0, "west"), (1, "north"), True)],
}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FOLDS))
def test_patches_meeting_twice_or_themselves_match_the_merge(name, p):
    surface = folded(p, FOLDS[name])
    data = ProblemData(f=lambda pid, x: np.cos(3.0 * x[:, 0]) + pid, g_D=lambda x: x[:, 1],
                       delta=12.0)
    for level in range(3):  # 1, 2 and 4 elements a side
        assert_same_as_the_merge(surface, p, data)
        surface = refine_surface(surface)


def first_layer(surface, tab):
    """Whether each function of each side element (nel, m) lies on the element's
    side, from the side names and patch-local indices alone."""
    interior = surface.edges_of_kind("interior")
    sides = [s for _, s, _ in interface_slots(interior)]
    sides += [e.left[1] for e in surface.edges_of_kind("dirichlet")]
    side = np.repeat(sides, np.diff(tab.starts))[:, None]
    n1, n2 = (np.array([getattr(p.basis, b).n for p in surface.patches])[tab.pid]
              for b in ("basis_u", "basis_v"))
    k2, k1 = np.divmod(tab.dofs, n1)
    return np.select([side == "west", side == "east", side == "south"],
                     [k1 == 0, k1 == n1 - 1, k2 == 0], k2 == n2 - 1)


def repeated_knot_pair(p):
    patches = [with_repeated_knot(planar_rectangle_patch(p, (i, 0.0), pid=i)) for i in (0, 1)]
    outer = [(0, "west"), (1, "east")] + [(i, s) for i in (0, 1) for s in ("south", "north")]
    return match_interfaces(patches, dict.fromkeys(outer, "dirichlet"))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_edge_entries_kept_are_the_pairs_with_a_first_layer_function(p):
    # _edge_terms keeps an entry where either function has a nonzero trace on
    # the edge element; that is exactly the first layer of functions next to the
    # side, so the kept keys, and the pattern, follow from the mesh alone.
    layouts = [repeated_knot_pair(p), square_grid(p, 8, 8)]  # one-element patches
    layouts += [arc_cylinder(p, 1)] if p > 1 else []  # exact arcs need p >= 2
    layouts += [flipped_grid(seed, 3) for seed in (1, 2, 5)] if p == 2 else []
    for surface in filter(None, layouts):
        space = build_space(surface, p)
        n = space.total_dofs
        tab, (L, R, D, _) = edge_sides(surface, p + 1)
        layer = first_layer(surface, tab)
        np.testing.assert_array_equal(np.any(tab.values != 0.0, axis=1), layer)
        g, want = space.offsets[tab.pid] + tab.dofs, []
        for halves in ((L, R), (D,)):
            gh, on = (np.concatenate([a[h] for h in halves], 1) for a in (g, layer))
            want.append((gh[:, :, None] * n + gh[:, None, :])[on[:, :, None] | on[:, None, :]])
        keys, _, _ = _edge_terms(space, ProblemData(delta=12.0))
        np.testing.assert_array_equal(keys, np.concatenate(want))


def test_system_assembly_peaks_below_twice_its_matrix():
    """On square_grid(2) at level 7 (67 600 DOFs, 1 674 400 entries) the
    pattern is fixed before any value and the edge sums go straight into their
    slots; a merge after the fact, with its key array and inserted copies,
    peaked at 3.09 times the final CSR."""
    surface = refined(square_grid(2), 7)
    space = build_space(surface, 2)
    system, peak = traced_peak(assemble_system, space, make_problem("plane_sine", surface, 2))
    A = system.matrix
    assert peak < 2 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
