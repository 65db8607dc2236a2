"""Edge passes and refinement are batched per knot signature.

The edge assembly (interior, Dirichlet and Neumann sides together) and the
jump terms of the energy error (interior and Dirichlet sides together) each
tabulate their sides with one side-grid call per (fixed axis, knot
vectors) group and call their boundary data once, however many edges the
layout has.  Edge element matrices couple only the trace functions.
Refinement builds one insertion matrix per distinct knot vector.
"""

import dataclasses

import numpy as np
import pytest
from conftest import traced_peak
from oracles import uniform_open_knots
from test_geometry import seeded_grid

import dgiga.assembly
import dgiga.geometry
import dgiga.splines
from dgiga.analysis import measure_errors
from dgiga.assembly import (ProblemData, _edge_terms, _index_dtype, assemble_system,
                            interface_slots)
from dgiga.driver import run_sweep
from dgiga.geometries import full_cylinder, square_grid
from dgiga.geometry import (SIDES, InterfaceEdge, MultiPatchSurface, NurbsPatch, refine_surface,
                            tabulate_sides)
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import NurbsBasis2D, greville


def knot_group(surface, pid, side):
    basis = surface.patches[pid].basis
    axis = dgiga.geometry.SIDES.index(side) // 2
    return axis, basis.basis_u.knots.tobytes(), basis.basis_v.knots.tobytes()


def groups(surface, sides):
    return len({knot_group(surface, pid, side) for pid, side in sides})


def expected_kernel_calls(surface):
    """One call per group in each of the two edge passes."""
    interior = surface.edges_of_kind("interior")
    jumps = [e.left for e in interior] + [e.right for e in interior]
    jumps += [e.left for e in surface.edges_of_kind("dirichlet")]
    sides = jumps + [e.left for e in surface.edges_of_kind("neumann")]
    return groups(surface, sides) + groups(surface, jumps)


def edge_elements(surface, kind):
    return sum(surface.patches[pid].side_knots(side).num_elements
               for pid, side in (e.left for e in surface.edges_of_kind(kind)))


class Counter:
    def __init__(self, fn=None):
        self.calls, self.fn = 0, fn

    def __call__(self, *args):
        self.calls += 1
        if self.fn is not None:
            return self.fn(*args)
        return np.zeros(len(args[-1]))


def counting_sweep(surface, monkeypatch, levels=3):
    """Per level: side-kernel calls, calls of f, g_D, g_N and u_exact, and the
    accumulated elements keyed by element-matrix entries."""
    # surface_h_max and sample_solution bind their own tabulate_grid: only side passes count.
    kernel = Counter(dgiga.geometry.tabulate_grid)
    monkeypatch.setattr(dgiga.geometry, "tabulate_grid", kernel)
    blocks = {}
    sipg_blocks, volume_blocks = dgiga.assembly._sipg_blocks, dgiga.assembly._volume_blocks

    def count(local):
        entries = local.shape[-1] * local.shape[-2]
        blocks[entries] = blocks.get(entries, 0) + local.size // entries

    def counting_sipg_blocks(*args):
        local = sipg_blocks(*args)
        count(local)
        return local

    def counting_volume_blocks(*args):
        for elements, K, loads in volume_blocks(*args):
            count(K)
            yield elements, K, loads

    # Edge blocks come from _sipg_blocks, volume blocks from _volume_blocks' yields.
    monkeypatch.setattr(dgiga.assembly, "_sipg_blocks", counting_sipg_blocks)
    monkeypatch.setattr(dgiga.assembly, "_volume_blocks", counting_volume_blocks)
    counters = {}

    def factory(surf, delta):
        data = make_problem("plane_sine", surf, 2, delta)
        counters.update(f=Counter(data.f), g_D=Counter(data.g_D), g_N=Counter(),
                        u_exact=Counter(data.u_exact))
        return dataclasses.replace(data, **counters)

    records = []

    def collect(result):
        records.append(dict(kernel=kernel.calls, blocks=dict(blocks), surface=result.solution.space.surface,
                            **{k: c.calls for k, c in counters.items()}))
        kernel.calls = 0
        blocks.clear()

    run_sweep(surface, 2, factory, levels=levels, collect=collect)
    return records


@pytest.mark.parametrize("n", [4, 8])
def test_side_kernel_calls_per_level_do_not_grow_with_edges(monkeypatch, n):
    surface = seeded_grid(7, n)
    sides = [(p.id, side) for p in surface.patches for side in dgiga.geometry.SIDES]
    assert groups(surface, sides) == 4  # 2 fixed axes x 2 knot signatures
    expected = expected_kernel_calls(surface)
    assert expected <= 2 * 4  # passes x groups; the layouts have 40 and 144 edges
    records = counting_sweep(surface, monkeypatch)
    assert [r["kernel"] for r in records] == [expected] * 3
    for record in records:
        # p = 2: 9 x 9 volume blocks; edge blocks couple the 2(p + 1) = 6
        # trace functions of each side, so 12 x 12 on an interface element
        # and 6 x 6 on a Dirichlet element.
        level = record["surface"]
        assert record["blocks"] == {
            81: sum(p.basis.basis_u.num_elements * p.basis.basis_v.num_elements
                    for p in level.patches),
            144: edge_elements(level, "interior"),
            36: edge_elements(level, "dirichlet"),
        }


def test_boundary_data_is_called_once_per_pass(monkeypatch):
    surface = seeded_grid(7, 8)
    for record in counting_sweep(surface, monkeypatch):
        # Dirichlet assembly; Neumann assembly; the volume assembly calls f
        # once per patch stack; the error pass calls u_exact once per patch
        # stack and once for the Dirichlet jumps.
        assert record["g_D"] == 1
        assert record["g_N"] == 1
        stacks = len(dgiga.geometry.patch_stacks(surface.patches))
        assert record["f"] == stacks < surface.num_patches
        assert record["u_exact"] - 1 == stacks
        surface = dgiga.geometry.refine_surface(surface)


@pytest.mark.parametrize("build, groups", [
    (lambda: seeded_grid(7, 8), 2),  # two knot signatures: u and reversed u
    (lambda: full_cylinder(3, 2), 1),
], ids=["seeded_8x8", "full_cylinder"])
def test_matching_tabulates_once_per_knot_group(monkeypatch, build, groups):
    """A patch's four sides are the rims of one parameter grid: matching makes
    one kernel call per knot group, not one per fixed axis, and finds the
    same edges."""
    surface = build()
    assert len(dgiga.geometry.knot_groups(surface.patches)) == groups
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    kernel = Counter(dgiga.geometry._tabulate_run)
    monkeypatch.setattr(dgiga.geometry, "_tabulate_run", kernel)
    matched = dgiga.geometry.match_interfaces(surface.patches, tags, surface.alpha)
    assert kernel.calls == groups
    assert matched.edges == surface.edges


def test_refinement_inserts_knots_once_per_knot_vector(monkeypatch):
    surface = seeded_grid(7, 8)
    dgiga.splines.midpoint_refine.cache_clear()
    insert = Counter(dgiga.splines.insert_knots)
    monkeypatch.setattr(dgiga.splines, "insert_knots", insert)
    for _ in range(2):
        knots = {(kv.degree, kv.knots.tobytes()) for p in surface.patches
                 for kv in (p.basis.basis_u, p.basis.basis_v)}
        assert len(knots) == 3  # u, reversed u and v; 64 patches
        insert.calls = 0
        surface = dgiga.geometry.refine_surface(surface)
        assert insert.calls == len(knots)


def test_memoised_refinement_is_bit_identical(monkeypatch):
    surface = seeded_grid(7, 8)
    memoised = dgiga.geometry.refine_surface(dgiga.geometry.refine_surface(surface))

    def fresh(kv):
        bp = kv.breaks
        return dgiga.splines.insert_knots(kv, 0.5 * (bp[:-1] + bp[1:]))

    monkeypatch.setattr(dgiga.geometry, "midpoint_refine", fresh)
    reference = dgiga.geometry.refine_surface(dgiga.geometry.refine_surface(surface))
    for got, want in zip(memoised.patches, reference.patches):
        for a, b in ((got.control_points, want.control_points),
                     (got.basis.weights, want.basis.weights),
                     (got.basis.basis_u.knots, want.basis.basis_u.knots),
                     (got.basis.basis_v.knots, want.basis.basis_v.knots)):
            assert a.tobytes() == b.tobytes()
    kv, T = dgiga.splines.midpoint_refine(surface.patches[0].basis.basis_u)
    assert not any(a.flags.writeable for a in (T.data, T.indices, T.indptr, kv.knots))


def test_jump_error_calls_exact_solution_once():
    surface = seeded_grid(7, 8)
    space = build_space(surface, 2)
    data = make_problem("plane_sine", surface, 2, 24.0)
    u_exact = Counter(data.u_exact)
    u_h = space.function(np.zeros(space.total_dofs))
    measure_errors(u_h, dataclasses.replace(data, u_exact=u_exact))
    # Once per patch stack for the volume errors, once for all Dirichlet jumps.
    assert u_exact.calls == len(dgiga.geometry.patch_stacks(surface.patches)) + 1


def test_coo_index_dtype_never_truncates():
    limit = np.iinfo(np.int32).max
    assert _index_dtype(1) is np.int32
    assert _index_dtype(limit) is np.int32
    assert _index_dtype(limit + 1) is np.int64
    big = np.array([limit + 7])
    assert big.astype(_index_dtype(limit + 8))[0] == limit + 7


def dirichlet_plane(n1, n2):
    """One p = 1 planar patch of n1 x n2 functions with Dirichlet sides all round."""
    ku, kv = uniform_open_knots(1, n1 - 1), uniform_open_knots(1, n2 - 1)
    cp = np.zeros((n1, n2, 3))
    cp[..., 0], cp[..., 1] = np.meshgrid(greville(ku), greville(kv), indexing="ij")
    patch = NurbsPatch(NurbsBasis2D(ku, kv, np.ones((n1, n2))), cp, 0)
    return MultiPatchSurface([patch], [InterfaceEdge("dirichlet", (0, side)) for side in SIDES])


@pytest.mark.parametrize("n, dtype", [(46340, np.int32), (46341, np.int64)])
def test_merge_keys_are_int32_while_n_squared_fits(n, dtype):
    # The edge keys r n + c that assemble_system merges at (_edge_terms).
    # 46340^2 = 2 147 395 600 fits in int32, 46341^2 does not.
    space = build_space(dirichlet_plane(*{46340: (140, 331), 46341: (171, 271)}[n]), 1)
    assert space.total_dofs == n
    keys, _, _ = _edge_terms(space, ProblemData(delta=12.0))
    assert keys.dtype == dtype
    assert (keys.min(), keys.max()) == (0, n * n - 1)  # the two corner functions, unwrapped


def test_system_uses_int32_indices():
    # The pattern with its interface entries keeps both index arrays int32:
    # scipy upcasts both if either is int64.
    surface = seeded_grid(7, 4)
    matrix = assemble_system(build_space(surface, 2),
                             make_problem("plane_sine", surface, 2, 24.0)).matrix
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32


@pytest.mark.parametrize("build, p, levels, problem", [
    (lambda: full_cylinder(3, 2), 3, 4, "cylinder_sine"),
    (lambda: square_grid(2, 8, 8), 2, 2, "plane_sine"),
], ids=["full_cylinder", "square_8x8"])
def test_edge_pass_frees_the_side_tabulation_before_the_blocks(build, p, levels, problem):
    """The loads are summed first, so the side tabulation is freed before the
    SIPG blocks, and each block's K is freed once its kept entries are taken:
    the pass peaks at 3.74 (closed cylinder, level 4) and 4.00 (8 x 8 patches,
    level 2) times its returned arrays' bytes.  Holding the tabulation and
    both blocks' K to the end read 4.73 and 5.18 times."""
    surface = build()
    for _ in range(levels):
        surface = refine_surface(surface)
    space, data = build_space(surface, p), make_problem(problem, surface, p)
    _edge_terms(space, data)  # the memoised 1D tables
    returned, peak = traced_peak(_edge_terms, space, data)
    assert peak < 4.4 * sum(a.nbytes for a in returned)


def test_side_tabulation_releases_each_group_before_the_next():
    """On 8 x 8 patches of p = 2, refined twice, the edge layout's sides form
    groups whose passes run one after the other; a finished group's arrays are
    freed once placed.  Holding them into the next pass read 2.89 times the
    returned arrays' bytes, releasing them 2.39 times."""
    surface = square_grid(2, 8, 8)
    for _ in range(2):
        surface = refine_surface(surface)
    slots = interface_slots(surface.edges_of_kind("interior"))
    slots += [(*e.left, False) for e in surface.edges_of_kind("dirichlet")]
    tabulate_sides(surface.patches, slots, 3)  # the memoised 1D tables
    tab, peak = traced_peak(tabulate_sides, surface.patches, slots, 3)
    size = sum(a.nbytes for a in vars(tab).values() if isinstance(a, np.ndarray))
    assert peak < 2.6 * size
