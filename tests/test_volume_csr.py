"""The volume stiffness is written straight into CSR.

Each patch block takes the memoised Kronecker pattern of its knot vectors,
and each stack's element matrices are summed into its values in element
order.  The result must have the pattern of the COO route (every element
matrix expanded to global entries, then sorted and summed by ``_csr``) and
its values up to round-off, without that route's memory.
"""

import tracemalloc

import numpy as np
import pytest
from test_geometry import seeded_grid
from test_stacked_passes import DATA, two_signatures
from test_trace_window import with_repeated_knot

import dgiga.assembly
import dgiga.splines
from dgiga.assembly import _csr, _volume_blocks, assemble_volume
from dgiga.geometries import (full_cylinder, quarter_cylinder_grid, quarter_cylinder_patch,
                               square_grid)
from dgiga.geometry import MultiPatchSurface, _knot_key, patch_stacks, refine_surface
from dgiga.space import build_space

SURFACES = {
    "square": lambda: square_grid(2),
    "seeded_flipped": lambda: seeded_grid(7, 4),
    "quarter_cylinder": lambda: quarter_cylinder_grid(3),
    "full_cylinder": lambda: full_cylinder(3, 2),
    "two_signatures": two_signatures,
    # The knot 0.4 has multiplicity p = 3: the first active function jumps by 3 there.
    "repeated_knot": lambda: MultiPatchSurface([with_repeated_knot(quarter_cylinder_patch(3))], []),
}


def coo_route(space):
    """The volume matrix from every element matrix as COO entries, through ``_csr``."""
    blocks = [None] * space.surface.num_patches
    for stack in patch_stacks(space.surface.patches):
        gidx, K, _ = _volume_blocks(space, DATA, stack)
        for pid, g, k in zip(stack, gidx, K):
            blocks[pid] = (g, k)
    return _csr(space.total_dofs, blocks)


@pytest.mark.parametrize("name", SURFACES)
def test_volume_csr_matches_the_coo_route(name):
    surface = SURFACES[name]()
    for _ in range(2):
        space = build_space(surface, surface.patches[0].degree[0])
        got, want = assemble_volume(space, DATA).matrix, coo_route(space)
        assert got.has_canonical_format
        assert got.indices.dtype == got.indptr.dtype == np.int32
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))
        surface = refine_surface(surface)


def test_volume_pattern_is_memoised_per_knot_signature():
    surface = seeded_grid(7, 4)  # two knot signatures: u and reversed u
    dgiga.assembly._volume_pattern.cache_clear()
    assemble_volume(build_space(surface, 2), DATA)
    info = dgiga.assembly._volume_pattern.cache_info()
    assert info.misses == 2 and info.hits == surface.num_patches - 2
    indptr, indices, slots = dgiga.assembly._volume_pattern(*_knot_key(
        surface.patches[0].basis))
    assert not (indptr.flags.writeable or indices.flags.writeable or slots.flags.writeable)


def test_volume_assembly_memory_is_a_few_matrices():
    surface = full_cylinder(3, 2)
    for _ in range(4):
        surface = refine_surface(surface)
    space = build_space(surface, 3)
    # Cold caches: the pattern and the 1D tables are built inside the call.
    dgiga.assembly._volume_pattern.cache_clear()
    dgiga.splines._tabulate_cached.cache_clear()
    tracemalloc.start()
    try:
        matrix = assemble_volume(space, DATA).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak < 8 * size
