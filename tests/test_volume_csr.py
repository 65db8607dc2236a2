"""The volume stiffness is written straight into CSR.

The volume terms alone are ``assemble_system`` on the same patches with no
edges (``oracles.assemble_volume``).  Each patch block takes the Kronecker
pattern of its knot vectors, its element entries ranked in their rows' bands
once per knot signature in each call, and each stack's element matrices are
summed into its values in element order.  The result must have the pattern
of the COO route (every element matrix expanded to global entries, then
sorted and summed by the oracle ``coo_csr``) and its values up to round-off,
without that route's memory.  The load and the basis integrals, summed into
each patch's slice of the vectors by the same accumulator, must equal
``np.add.at`` over global indices bit for bit.
"""

import numpy as np
import pytest
from conftest import traced_peak
from oracles import assemble_volume, coo_csr, element_dofs, uniform_open_knots
from test_geometry import seeded_grid
from test_stacked_passes import DATA, two_signatures, volume_blocks
from test_trace_window import with_repeated_knot

import dgiga.assembly
import dgiga.splines
from dgiga.assembly import _band, _band_columns, _volume_pattern, assemble_system
from dgiga.geometries import full_cylinder, quarter_cylinder_grid, square_grid
from dgiga.geometry import MultiPatchSurface, _knot_key, patch_stacks, refine_surface
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import KnotVector

SURFACES = {
    "square": lambda: square_grid(2),
    "seeded_flipped": lambda: seeded_grid(7, 4),
    "quarter_cylinder": lambda: quarter_cylinder_grid(3),
    "full_cylinder": lambda: full_cylinder(3, 2),
    "two_signatures": two_signatures,
    # The knot 0.4 has multiplicity p = 3: the first active function jumps by 3 there.
    "repeated_knot": lambda: MultiPatchSurface(
        [with_repeated_knot(quarter_cylinder_grid(3, 1, 1).patches[0])], []),
}


def coo_route(space):
    """The volume matrix from every element matrix as COO entries, through
    ``coo_csr``, and the load and basis integrals from every element's rows by
    ``np.add.at``, all at the global indices of ``oracles.element_dofs``."""
    blocks, vectors = [None] * space.surface.num_patches, np.zeros((2, space.total_dofs))
    for stack in patch_stacks(space.surface.patches):
        K, loads = volume_blocks(space, DATA, stack)
        for pid, k, rows in zip(stack, K, loads):
            gidx = element_dofs(space, pid)
            blocks[pid] = (gidx, k)
            for vector, row in zip(vectors, rows):
                np.add.at(vector, gidx, row)
    return coo_csr(space.total_dofs, blocks), *vectors


@pytest.mark.parametrize("name", SURFACES)
def test_volume_csr_matches_the_coo_route(name):
    surface = SURFACES[name]()
    for _ in range(2):
        space = build_space(surface, surface.patches[0].degree[0])
        system, (want, rhs, integrals) = assemble_volume(space, DATA), coo_route(space)
        got = system.matrix
        assert got.has_canonical_format
        assert got.indices.dtype == got.indptr.dtype == np.int32
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))
        assert system.rhs.tobytes() == rhs.tobytes()
        if surface.has_dirichlet:
            assert system.basis_integrals is None
        else:
            assert system.basis_integrals.tobytes() == integrals.tobytes()
        surface = refine_surface(surface)


def test_volume_pattern_is_memoised_per_knot_signature(monkeypatch):
    """One pattern build per knot signature in each call, none kept between calls."""
    surface = seeded_grid(7, 4)  # two knot signatures: u and reversed u
    space, real, builds = build_space(surface, 2), dgiga.assembly._volume_pattern, []

    def counted(basis_u, basis_v):
        builds.append((basis_u, basis_v))
        return real(basis_u, basis_v)

    monkeypatch.setattr(dgiga.assembly, "_volume_pattern", counted)
    for _ in range(2):
        builds.clear()
        assemble_volume(space, DATA)
        assert len(builds) == 2
        assert set(builds) == {_knot_key(patch.basis) for patch in surface.patches}


def test_volume_assembly_memory_is_a_few_matrices():
    surface = full_cylinder(3, 2)
    for _ in range(4):
        surface = refine_surface(surface)
    space = build_space(surface, 3)
    # Cold 1D tables; the pattern is always built inside the call.
    dgiga.splines._tabulate_cached.cache_clear()
    system, peak = traced_peak(assemble_volume, space, DATA)
    matrix = system.matrix
    size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak < 8 * size


def test_system_assembly_at_p4_peaks_below_its_matrix_and_a_half():
    """The volume pass adds each element entry at where its row's band starts
    plus its rank there, a uint8 table at p = 4, not a patch-local int32 slot
    table: on square_grid(4) at level 5 (1024 elements a patch, 81 x 25 ranks
    each) ``assemble_system`` peaks at 1.40 times its CSR, against 1.76 times
    with the slot table."""
    surface = square_grid(4)
    for _ in range(5):
        surface = refine_surface(surface)
    space, data = build_space(surface, 4), make_problem("plane_sine", surface, 4)
    assemble_system(space, data)  # the memoised 1D tables
    system, peak = traced_peak(assemble_system, space, data)
    A = system.matrix
    assert peak < 1.6 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def knot_vectors(p):
    """A uniform, a graded and a repeated-interior-knot vector of degree p."""
    graded = [0.0, 0.05, 0.15, 0.3, 0.5, 0.75, 1.0]
    return [uniform_open_knots(p, 5), KnotVector(p, np.r_[[0.0] * p, graded, [1.0] * p]),
            KnotVector(p, np.r_[[0.0] * (p + 1), [0.4] * p, 0.7, [1.0] * (p + 1)])]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_band_columns_are_the_element_columns_at_their_slots(p):
    # The row-by-row band columns equal every element-matrix entry's column
    # scattered to its slot, where its row's band starts plus its rank there,
    # and every slot is some element's entry.
    for ku in knot_vectors(p):
        for kv in knot_vectors(p):
            ranks, dofs = _volume_pattern(ku, kv)
            widths = np.outer(_band(kv)[2], _band(ku)[2]).ravel()  # row r2 n1 + r1: w_v w_u
            assert ranks.dtype == np.uint8
            assert np.all(ranks < widths[dofs][:, :, None])
            scattered = np.full(widths.sum(), -1)
            scattered[(np.cumsum(widths) - widths)[dofs][:, :, None] + ranks] = dofs[:, None, :]
            columns = _band_columns(ku, kv)
            assert columns.dtype == np.int32 and scattered.min() == 0
            np.testing.assert_array_equal(columns, scattered)
