"""Side tabulations keep only the trace window, and that loses nothing.

On open knot vectors only the 2 functions nearest a side, across it, have a
nonzero value or normal derivative on the side.  Every other basis function
must vanish there exactly, with its normal derivative, pointwise: on every
bundled geometry, on planar and rational patches of degree 1 to 4, and on
patches with a repeated interior knot of multiplicity p.
"""

import numpy as np
import pytest
from conftest import bundled

from dgiga.geofile import parse_geometry
from dgiga.geometries import planar_rectangle_patch, quarter_cylinder_grid
from dgiga.geometry import (
    SIDES,
    NurbsPatch,
    _rational_basis,
    refine_surface,
    tabulate_grid,
    tabulate_sides,
)
from dgiga.quadrature import panel_rules
from dgiga.splines import NurbsBasis2D, insert_knots

BUNDLED_FILES = ("square4.g", "square4_p2.g", "square4_p3.g", "qcyl4.g", "qcyl4_p3.g")


def with_repeated_knot(patch: NurbsPatch) -> NurbsPatch:
    """The same surface with the knot 0.4 inserted p times in both directions."""
    b = patch.basis
    p = b.basis_u.degree
    kv_u, Tu = insert_knots(b.basis_u, [0.4] * p)
    kv_v, Tv = insert_knots(b.basis_v, [0.4] * p)
    w = b.weights
    hom = np.concatenate([patch.control_points * w[..., None], w[..., None]], axis=-1)
    hom = np.einsum("ia,jb,abk->ijk", Tu.toarray(), Tv.toarray(), hom)
    return NurbsPatch(NurbsBasis2D(kv_u, kv_v, hom[..., 3]), hom[..., :3] / hom[..., 3:], patch.id)


def patch_cases():
    cases = {}
    for name in BUNDLED_FILES:
        surface = refine_surface(parse_geometry(bundled(name)).surface())
        cases[name] = surface.patches[:2]
    for p in (1, 2, 3, 4):
        cases[f"planar_p{p}"] = [planar_rectangle_patch(p)]
        cases[f"repeated_knot_p{p}"] = [with_repeated_knot(planar_rectangle_patch(p))]
        if p >= 2:
            rational = quarter_cylinder_grid(p, 1, 1).patches[0]
            cases[f"rational_p{p}"] = [rational]
            cases[f"rational_repeated_knot_p{p}"] = [with_repeated_knot(rational)]
    return cases


CASES = patch_cases()


def trace_rows(n: int, side: str) -> set:
    """Indices, across the side, of the 2 functions nearest it."""
    return {0, 1} if side in ("west", "south") else {n - 2, n - 1}


@pytest.mark.parametrize("case", sorted(CASES))
def test_functions_outside_the_trace_window_vanish_on_the_side(case):
    for patch in CASES[case]:
        n1, n2 = patch.basis.shape
        for side in SIDES:
            across = 0 if side in ("west", "east") else 1
            rows = trace_rows((n1, n2)[across], side)
            bp = patch.side_knots(side).breaks
            ts, _ = panel_rules(bp, patch.degree[0] + 2)
            ts = np.concatenate([ts.ravel(), bp])
            end = [0.0 if side in ("west", "south") else 1.0]
            # The full rational basis (every function of the element window) on the side.
            grid = (end, ts) if across == 0 else (ts, end)
            tab = _rational_basis(tabulate_grid([patch], *grid))
            m1, m2 = tab.values.shape[-2:]
            first = np.broadcast_to((tab.first_u, tab.first_v)[across], tab.sqrt_det_g.shape)
            index = first.reshape(-1, 1) + np.arange((m1, m2)[across])
            outside = ~np.isin(index, list(rows))
            outside = np.broadcast_to(outside[:, :, None] if across == 0 else outside[:, None, :],
                                      (ts.size, m1, m2))
            vals = tab.values.reshape(-1, m1, m2)
            grads = np.moveaxis(tab.grads.reshape(2, -1, m1, m2), 0, -1)
            pushed = np.moveaxis(tab.surface_gradient(tab.grads).reshape(3, -1, m1, m2), 0, -1)
            assert np.all(vals[outside] == 0.0)
            assert np.all(grads[outside] == 0.0)
            assert np.all(pushed[outside] == 0.0)
            assert np.all(outside.sum(axis=(1, 2)) == m1 * m2 - 2 * (m1, m2)[1 - across])


@pytest.mark.parametrize("case", sorted(CASES))
def test_side_elements_carry_exactly_the_trace_window(case):
    patches = CASES[case]
    slots = [(pid, side, False) for pid in range(len(patches)) for side in SIDES]
    patches = [NurbsPatch(p.basis, p.control_points, k) for k, p in enumerate(patches)]
    q = patches[0].degree[0] + 1
    tab = tabulate_sides(patches, slots, q)
    p = patches[0].degree[0]
    assert tab.dofs.shape == (tab.chords.size, 2 * (p + 1))
    for k, (pid, side, _) in enumerate(slots):
        n1, n2 = patches[pid].basis.shape
        across = 0 if side in ("west", "east") else 1
        for e in range(tab.starts[k], tab.starts[k + 1]):
            k1, k2 = np.divmod(tab.dofs[e], n1)[::-1]
            assert set((k1, k2)[across]) == trace_rows((n1, n2)[across], side)
            along = (k2, k1)[across]
            assert np.ptp(along) == p and len(set(zip(k1, k2))) == 2 * (p + 1)
