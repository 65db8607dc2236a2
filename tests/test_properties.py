"""Properties of the assembled system over seeded multi-patch layouts.

``hypothesis`` draws a layout: ``seeded_grid(seed, n)`` (seeded patch ids,
u-reversed patches, flipped interfaces, Dirichlet and Neumann sides, seeded
coefficients) or ``square_grid(p, nx, ny)`` with Dirichlet or Neumann sides,
at 0 or 1 refinements.  On every layout the system matrix is exactly
symmetric, the volume pass gives the same bits whatever the stack budget
(one element row per block, unit and stack), and CG converges.

The patch test draws the same kinds of layout with every boundary edge
Dirichlet and alpha = 1, where linear data is a solution: the system is
consistent with the exact coefficients up to rounding, and CG's error is
within the bound its residual and the condition number give.

Knot insertion draws a knot vector and knots to insert: the refinement
matrix is a convex, banded CSR array that leaves every curve where it was.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import assemble_volume
from test_geometry import seeded_grid

import dgiga.geometry
from dgiga.assembly import assemble_system
from dgiga.geometries import square_grid
from dgiga.geometry import MultiPatchSurface, refine_surface
from dgiga.linalg import cg_solve
from dgiga.problems import make_problem
from dgiga.space import build_space
from dgiga.splines import KnotVector, insert_knots, tabulate


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


def all_dirichlet(surface):
    """The surface with alpha = 1 and its Neumann edges made Dirichlet."""
    edges = [dataclasses.replace(e, kind="dirichlet") if e.kind == "neumann" else e
             for e in surface.edges]
    return MultiPatchSurface(surface.patches, edges)


DIRICHLET_LAYOUTS = st.one_of(
    st.builds(flipped_grid, st.integers(0, 2**16), st.integers(2, 5)).filter(bool)
    .map(all_dirichlet),
    st.builds(square_grid, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)


def linear(points):
    return 1.0 + 2.0 * points[..., 0] - 3.0 * points[..., 1]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(DIRICHLET_LAYOUTS, st.integers(0, 1))
@example(all_dirichlet(seeded_grid(3, 5)), 1)  # the largest draws: 900 and 225 unknowns
@example(square_grid(3, 3, 3), 1)
def test_linear_data_is_reproduced_patch_test(surface, refinements):
    """DG consistency: u = 1 + 2x - 3y with f = 0 and gD = u solves the discrete
    system.  The layouts' Greville nets with unit weights reproduce linear
    functions, so the exact coefficients x* are u at the control points."""
    for _ in range(refinements):
        surface = refine_surface(surface)
    p = surface.patches[0].degree[0]
    system = assemble_system(build_space(surface, p),
                             make_problem("u=1+2*x-3*y; f=0", surface, p))
    A, b = system.matrix, system.rhs
    exact = np.concatenate([linear(patch.control_points).T.reshape(-1)  # k2-major
                            for patch in surface.patches])
    # Entry i of A x* sums one row of A, and A's entries and b are sums of as
    # many terms again, each rounded: c is twice the longest row.
    c = 2 * int(np.diff(A.indptr).max())
    consistency = np.abs(A @ exact - b)
    assert np.all(consistency <= c * np.finfo(float).eps * (abs(A) @ np.abs(exact) + np.abs(b)))

    x, report = cg_solve(A, b)
    assert report.converged
    eigenvalues = np.linalg.eigvalsh(A.toarray())
    kappa = eigenvalues[-1] / eigenvalues[0]
    # x - x* = A^-1 ((b - A x*) - (b - A x)); the first residual is rounding.
    residual = (np.linalg.norm(b - A @ x) + np.linalg.norm(consistency)) / np.linalg.norm(b)
    assert np.linalg.norm(x - exact) <= kappa * residual * np.linalg.norm(exact)


HUNDREDTHS = st.integers(1, 99).map(lambda k: k / 100)


@st.composite
def knot_insertions(draw):
    """(knot vector, knots to insert): degree 0-4, up to 5 interior breaks on a grid
    of hundredths with multiplicities 1..p, and up to 6 knots from that grid and
    the breaks.  Draws that would raise a multiplicity above p are assumed away."""
    p = draw(st.integers(0, 4))
    breaks = draw(st.lists(HUNDREDTHS, max_size=5 if p else 0, unique=True))
    interior = [b for b in breaks for _ in range(draw(st.integers(1, p)))]
    kv = KnotVector(p, [0.0] * (p + 1) + sorted(interior) + [1.0] * (p + 1))
    new = draw(st.lists(st.one_of(HUNDREDTHS, *[st.just(b) for b in breaks]), max_size=6))
    _, counts = np.unique(interior + new, return_counts=True)
    assume(not np.any(counts > p))
    return kv, new


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(knot_insertions(), st.integers(0, 2**32 - 1))
def test_knot_insertion_is_a_convex_banded_map_that_keeps_the_curve(insertion, seed):
    kv, new = insertion
    p, u = kv.degree, np.finfo(float).eps / 2
    refined, T = insert_knots(kv, new)
    cols = T.indices.reshape(-1, p + 1)
    assert np.all(np.diff(T.indptr) == p + 1)
    assert np.all(np.diff(cols, axis=1) == 1) and cols.min() >= 0 and cols.max() < kv.n
    rows = T.data.reshape(-1, p + 1)
    assert np.all(rows >= 0.0)
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= (p + 1) * u)

    rng = np.random.default_rng(seed)
    c, xs = rng.standard_normal(kv.n), rng.random(20)
    values = []
    for knots, coeffs in ((kv, c), (refined, T @ c)):
        first, basis, _ = tabulate(knots, xs)
        values.append(np.sum(coeffs[first[:, None] + np.arange(p + 1)] * basis, axis=1))
    # A first-order bound from the operation count: every quantity on the way is a
    # convex combination bounded by 1 or max|c|, and each rounding moves it by u
    # times that.  A value passes 7 roundings per Oslo step in T (two differences,
    # a quotient, 1 - w, two products, a sum) and p + 1 in T @ c, then, in each
    # of the two evaluations, 7 per Cox-de Boor level and p + 1 in the sum.
    assert np.all(np.abs(values[1] - values[0]) <= (24 * p + 3) * u * np.abs(c).max())
