"""Volume and error passes are stacked over patches that share both knot vectors.

A stacked pass must equal its one-patch calls bit for bit, and the whole
assembly, error measurement and prolongation must not depend on how the
patches of a knot group are cut into stacks (``geometry.STACK_BYTES``), nor
on how a larger patch's volume X batch is cut into blocks of element rows.
The stacks cover every patch once, in knot-group order, and each pass
tabulates once per work unit: a stack within the budget, or a run of a
larger patch's element rows.
"""

import dataclasses

import numpy as np
import pytest
from conftest import traced_peak
from oracles import assemble_volume
from test_edge_batches import Counter
from test_geometry import seeded_grid
from test_tabulation import two_signature_patches

import dgiga.analysis
import dgiga.geometry
from dgiga.analysis import _stack_errors, measure_errors
from dgiga.assembly import ProblemData, _volume_blocks
from dgiga.geometries import full_cylinder, square_grid
from dgiga.geometry import (MultiPatchSurface, _knot_key, knot_groups, patch_stacks,
                            refine_surface)
from dgiga.space import build_space, prolong

# Polynomial data: no transcendental function whose vectorised kernels might
# round differently with the array length.
DATA = ProblemData(
    f=lambda pid, x: (pid + 1.0) * x[:, 0] * x[:, 1] + x[:, 2],
    delta=12.0,
    u_exact=lambda x: x[:, 0] ** 2 - x[:, 1] * x[:, 2],
    grad_u_exact=lambda x: np.stack([2.0 * x[:, 0], -x[:, 2], -x[:, 1]], axis=1),
)


def two_signatures():
    """Five rational patches in a row, two knot signatures, no edges (pure Neumann)."""
    return MultiPatchSurface(two_signature_patches(), [], alpha=[1.0, 2.0, 3.0, 4.0, 5.0])


def cylinder():
    """Eight rational p = 3 patches of one knot signature, Neumann rims."""
    return refine_surface(full_cylinder(3, 2))


def one_patch(p=2, levels=3):
    """One planar patch of 2^levels x 2^levels elements, Neumann all round."""
    surface = square_grid(p, 1, 1, bc="neumann")
    for _ in range(levels):
        surface = refine_surface(surface)
    return surface


def random_function(surface):
    space = build_space(surface, surface.patches[0].degree[0])
    return space.function(np.random.default_rng(11).standard_normal(space.total_dofs))


def volume_blocks(space, data, stack):
    """The blocks ``_volume_blocks`` yields, joined in element order: stiffness
    (P, E, m, m) and rows (P, 2, E, m)."""
    elements, K, loads = zip(*_volume_blocks(space, data, stack))
    assert [e.start for e in elements] == [0] + [e.stop for e in elements[:-1]]
    return np.concatenate(K, axis=1), np.concatenate(loads, axis=2)


def assert_stack_equals_singles(stacked, singles):
    for k, got in enumerate(stacked):
        expected = np.concatenate([single[k] for single in singles])
        np.testing.assert_array_equal(got, expected, err_msg=f"output {k}")


@pytest.mark.parametrize("build", [two_signatures, cylinder])
def test_stacked_passes_equal_one_patch_calls_bit_for_bit(build):
    u_h = random_function(build())
    q = u_h.space.degree + 2
    stacks = patch_stacks(u_h.space.surface.patches)
    assert max(len(stack) for stack in stacks) > 1
    for stack in stacks:
        assert_stack_equals_singles(
            volume_blocks(u_h.space, DATA, stack),
            [volume_blocks(u_h.space, DATA, [pid]) for pid in stack],
        )
        args = (DATA.u_exact, DATA.grad_u_exact, q)
        assert_stack_equals_singles(
            _stack_errors(u_h, stack, *args), [_stack_errors(u_h, [pid], *args) for pid in stack]
        )


def passes(u_h):
    system = assemble_volume(u_h.space, DATA)
    report = measure_errors(u_h, DATA)
    matrix = system.matrix
    return (matrix.data, matrix.indices, matrix.indptr, system.rhs, system.basis_integrals,
            np.array([report.l2_error, report.dg_error, *report.per_patch]), prolong(u_h))


@pytest.mark.parametrize("build, limit, expected", [
    # limit: the budget in elements' volume X batches.
    # 4 elements per patch in the group (0, 2, 4), 6 in the group (1, 3)
    (two_signatures, 8, [[0, 2], [4], [1], [3]]),
    (two_signatures, 1, [[0], [2], [4], [1], [3]]),
    # 4 elements per patch after one refinement
    (cylinder, 12, [[0, 1, 2], [3, 4, 5], [6, 7]]),
    # 8 x 8 elements in one patch: X in blocks of 3, 3 and 2 element rows, and
    # units of 2 rows
    (one_patch, 24, [[0]]),
    # p = 1, 4 x 4 elements per patch: one stack of four patches, cut into units
    # of one element row of every patch
    (lambda: refine_surface(refine_surface(square_grid(1))), 64, [[0, 1, 2, 3]]),
])
def test_passes_do_not_depend_on_the_stack_size(monkeypatch, build, limit, expected):
    u_h = random_function(build())
    whole = passes(u_h)
    m = (u_h.space.degree + 1) ** 2  # an element's X batch: 2 m rows of m doubles
    monkeypatch.setattr(dgiga.geometry, "STACK_BYTES", limit * 16 * m * m)
    assert patch_stacks(u_h.space.surface.patches) == expected
    for got, ref in zip(passes(u_h), whole):
        np.testing.assert_array_equal(got, ref)


def flatten(groups):
    return [pid for group in groups for pid in group]


@pytest.mark.parametrize("build", [two_signatures, cylinder, lambda: seeded_grid(7, 8)],
                         ids=["two_signatures", "cylinder", "seeded_grid"])
def test_stacks_cover_every_patch_once_in_knot_group_order(build):
    surface = build()
    for _ in range(3):  # the stacks shrink as the patches gain elements
        patches = surface.patches
        groups, stacks = knot_groups(patches), patch_stacks(patches)
        assert sorted(flatten(groups)) == list(range(len(patches)))
        keys = [{_knot_key(patches[pid].basis) for pid in group} for group in groups]
        assert all(len(k) == 1 for k in keys) and len(set().union(*keys)) == len(groups)
        assert [group[0] for group in groups] == sorted(group[0] for group in groups)
        assert flatten(stacks) == flatten(groups)
        group_of = {pid: g for g, group in enumerate(groups) for pid in group}
        assert all(len({group_of[pid] for pid in stack}) == 1 for stack in stacks)
        surface = refine_surface(surface)


@pytest.mark.parametrize("build, levels, units", [
    # one knot signature: 64 patches of 16 elements in stacks of 25 + 25 + 14, one unit each
    (lambda: square_grid(2, 8, 8), 2, 3),
    # two knot signatures of 32 patches, each in 25 + 7
    (lambda: seeded_grid(7, 8), 1, 4),
    # one p = 4 patch of 16 x 16 elements above the budget: units of 14 and 2 element rows
    pytest.param(lambda: one_patch(p=4, levels=4), 0, 2, id="one_patch_over_budget"),
])
def test_volume_and_error_passes_tabulate_once_per_stack(monkeypatch, build, levels, units):
    """Each pass calls the kernel once per work unit (``row_runs``): once per stack
    of patches within the budget, once per run of element rows above it."""
    surface = build()
    for _ in range(levels):
        surface = refine_surface(surface)
    elements = {p.basis.basis_u.num_elements * p.basis.basis_v.num_elements
                for p in surface.patches}
    assert elements == ({16} if surface.num_patches > 1 else {256})  # as the cases state
    kernel = Counter(dgiga.geometry.tabulate_grid)
    monkeypatch.setattr(dgiga.geometry, "tabulate_grid", kernel)
    monkeypatch.setattr(dgiga.analysis, "tabulate_grid", kernel)  # surface_h_max
    u_h = random_function(surface)
    assemble_volume(u_h.space, DATA)
    assert kernel.calls == units
    kernel.calls = 0
    measure_errors(u_h, dataclasses.replace(DATA, grad_u_exact=None))  # no edge pass
    groups = len(knot_groups(surface.patches))
    assert kernel.calls == units + groups  # the error pass, surface_h_max per knot group


def test_a_large_patch_never_holds_its_whole_x_batch():
    """A patch whose volume X batch is several times the stack budget builds
    it in blocks of element rows: the pass's peak stays below its whole K plus
    one whole X batch, which a whole-patch X and its element-major copy exceed."""
    space = random_function(one_patch(p=4, levels=4)).space  # 16 x 16 elements
    m = (space.degree + 1) ** 2
    x_bytes = 256 * 16 * m * m  # 2 m rows of m doubles per element
    assert x_bytes > 4 * dgiga.geometry.STACK_BYTES
    assert volume_peak(space) < 256 * 8 * m * m + x_bytes


def volume_peak(space):
    """tracemalloc peak of one ``assemble_volume`` call, after a warm-up call."""
    assemble_volume(space, DATA)  # the memoised 1D tables
    return traced_peak(assemble_volume, space, DATA)[1]


def test_the_volume_pass_holds_no_whole_stiffness_stack():
    """Each block's element matrices are summed into the CSR values as they are
    made: on one p = 4 patch of 32 x 32 elements the pass's peak stays below
    twice that patch's whole K (5.12 MB), which holding K and its sums exceeds."""
    space = random_function(one_patch(p=4, levels=5)).space
    assert volume_peak(space) < 2 * 1024 * 8 * (space.degree + 1) ** 4


def test_a_large_patch_never_holds_its_whole_error_tabulation():
    """A patch whose units are a fraction of it (runs of 7 of its 32 element
    rows) never holds its whole q = p + 2 tabulation: the error pass's peak,
    its patch-wide gaps, weights and gradient parts included, stays below the
    bytes of the arrays that tabulation keeps."""
    u_h = random_function(one_patch(p=4, levels=5))  # 32 x 32 elements
    q = u_h.space.degree + 2
    tab = dgiga.geometry.tabulate_patches(u_h.space.surface.patches, q, u_h.patch_coeffs(0)[None])
    kept = [tab.points, tab.jacobian, tab.inv_metric, tab.sqrt_det_g, tab.weights, tab.field,
            tab.field_grad, *tab.factors[4:7]]
    whole = sum(a.nbytes for a in kept)
    del tab, kept
    args = (u_h, [0], DATA.u_exact, DATA.grad_u_exact, q)
    _stack_errors(*args)  # the memoised 1D tables
    _, peak = traced_peak(_stack_errors, *args)
    assert peak < whole
