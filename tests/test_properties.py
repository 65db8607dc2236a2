"""Properties of the assembled system over seeded multi-patch layouts.

``hypothesis`` draws a layout: ``seeded_grid(seed, n)`` (seeded patch ids,
u-reversed patches, flipped interfaces, Dirichlet and Neumann sides, seeded
coefficients) or ``square_grid(p, nx, ny)`` with Dirichlet or Neumann sides,
at 0 or 1 refinements.  On every layout the system matrix is exactly
symmetric, the volume pass gives the same bits whatever the stack budget
(one element row per block, unit and stack), and CG converges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import seeded_grid

import dgiga.geometry
from dgiga.assembly import assemble_system, assemble_volume
from dgiga.geometries import square_grid
from dgiga.geometry import refine_surface
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.space import build_space


def flipped_grid(seed, n):
    """``seeded_grid(seed, n)``, or None where it has no flipped interface
    (which ``seeded_grid`` asserts against; about one 2 x 2 layout in eight)."""
    try:
        return seeded_grid(seed, n)
    except AssertionError:
        return None


LAYOUTS = st.one_of(
    st.builds(flipped_grid, st.integers(0, 2**16), st.integers(2, 5)).filter(bool),
    st.builds(square_grid, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
              st.sampled_from(["dirichlet", "neumann"])),
)


def volume_arrays(space, data):
    system = assemble_volume(space, data)
    A = system.matrix
    return A.data, A.indices, A.indptr, system.rhs, system.basis_integrals


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(LAYOUTS, st.integers(0, 1))
def test_seeded_layouts_assemble_symmetric_stack_free_systems_cg_solves(surface, refinements):
    for _ in range(refinements):
        surface = refine_surface(surface)
    p = surface.patches[0].degree[0]
    space = build_space(surface, p)
    data = make_problem("plane_sine", surface, p)
    system = assemble_system(space, data)
    A = system.matrix
    assert (A - A.T).count_nonzero() == 0
    whole = volume_arrays(space, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dgiga.geometry, "STACK_BYTES", 1)  # one element row at a time
        for got, ref in zip(volume_arrays(space, data), whole):
            assert (got is None and ref is None) or got.tobytes() == ref.tobytes()
    x, report = cg_solve(A, system.rhs, mean_weights=system.basis_integrals)
    assert report.converged and report.final_relative_residual <= 1e-10
    assert np.all(np.isfinite(x))
