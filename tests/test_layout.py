"""The component-major tensor layout of every tabulation.

Grid arrays are (components..., P, nu, nv) and side arrays (components...,
nel, q), C-contiguous, with basis tables' function axes last.  The error
pass reduces in element-major order, as an element-by-element reference
does, bit for bit.
"""

import math

import numpy as np
import pytest
from oracles import gauss_tabulation

from dgiga.analysis import measure_errors
from dgiga.assembly import interface_slots
from dgiga.driver import run_sweep
from dgiga.geometries import full_cylinder, square_grid
from dgiga.geometry import (COMPONENT_AXES, _rational_basis, patch_stacks, refine_surface,
                            tabulate_grid, tabulate_sides)
from dgiga.problems import make_problem

# Leading component axes of each array, the point axes follow: the layout
# stated independently of geometry.COMPONENT_AXES, which the code reads.
COMPONENTS = {"points": (3,), "jacobian": (3, 2), "inv_metric": (2, 2), "sqrt_det_g": (),
              "field": (), "field_grad": (2,), "weights": (), "conormal": (3,)}


def check_layout(tab, points, functions=()):
    for name, lead in COMPONENTS.items():
        a = getattr(tab, name, None)
        if a is None:
            continue
        assert a.shape == lead + points, name
        assert a.flags.c_contiguous, name
    if tab.values is not None:
        assert tab.values.shape == points + functions and tab.values.flags.c_contiguous
        assert tab.grads.shape == (2,) + points + functions and tab.grads.flags.c_contiguous


def test_component_axes_constant_states_the_layout():
    # tabulate_sides, the oracles and the side tests read the layout from it.
    assert COMPONENT_AXES == {"grads": 1} | {k: len(v) for k, v in COMPONENTS.items() if v}


@pytest.mark.parametrize("xs", [(4, 4), (2, 7), (7, 2)], ids=["tie", "u_first", "v_first"])
def test_grid_arrays_lead_with_their_components(xs):
    surface = full_cylinder(3, 2)
    patches = surface.patches[:3]
    coeffs = np.random.default_rng(1).normal(size=(3, *patches[0].basis.shape))
    xu, xv = (np.linspace(0.0, 1.0, n) for n in xs)
    check_layout(tabulate_grid(patches, xu, xv, coeffs), (3, *xs))
    tab = _rational_basis(tabulate_grid(patches, xu, xv))
    check_layout(tab, (3, *xs), (4, 4))
    assert tab.first_u.shape == (xs[0], 1) and tab.first_v.shape == (xs[1],)
    assert all(f.flags.c_contiguous for f in tab.factors)
    # Gauss panels: point e q + i of each direction lies in element e.
    tab = gauss_tabulation(patches, 5, coeffs)
    nel_u, nel_v = (kv.num_elements for kv in (patches[0].basis.basis_u, patches[0].basis.basis_v))
    check_layout(tab, (3, 5 * nel_u, 5 * nel_v))


@pytest.mark.parametrize("coeffs", [False, True])
def test_side_arrays_lead_with_their_components(coeffs):
    surface = refine_surface(full_cylinder(3, 2))
    interior = surface.edges_of_kind("interior")
    slots = interface_slots(interior) + [(*e.left, False) for e in surface.edges_of_kind("neumann")]
    fields = None
    if coeffs:
        fields = [np.full(p.basis.shape, float(k)) for k, p in enumerate(surface.patches)]
    tab = tabulate_sides(surface.patches, slots, 4, fields)
    nel = int(tab.starts[-1])
    check_layout(tab, (nel, 4), (8,))
    assert tab.chords.shape == (nel,)
    assert (tab.values is None) == coeffs and (tab.field is None) != coeffs


def element_major_parts(u_h, data, q):
    """Per-patch squared L2 errors from element-major copies of each patch's
    tabulation, summed with ``np.sum``: the reduction order of the error pass."""
    space, surface = u_h.space, u_h.space.surface
    gaps, weights = [], []
    for pid, patch in enumerate(surface.patches):
        tab = gauss_tabulation([patch], q, u_h.patch_coeffs(pid)[None])
        nu, nv = tab.weights.shape[1:]

        def em(a):  # (1, nu, nv) -> (nel_u * nel_v * q * q,), element-major
            return a.reshape(nu // q, q, nv // q, q).transpose(0, 2, 1, 3).ravel()

        points = np.stack([em(x) for x in tab.points], axis=1)
        gaps.append(em(tab.field) - data.u_exact(points))
        weights.append(em(tab.weights))
    mean = 0.0
    if not surface.has_dirichlet:
        moments = np.array([[np.sum(g * w), np.sum(w)] for g, w in zip(gaps, weights)])
        mean = moments[:, 0].sum() / moments[:, 1].sum()
    return [math.sqrt(np.sum((g - mean) ** 2 * w)) for g, w in zip(gaps, weights)]


@pytest.mark.parametrize("case", ["square", "neumann_cylinder"])
def test_error_parts_reduce_in_element_major_order(case):
    if case == "square":
        surface, p, name = square_grid(2), 2, "plane_sine"
    else:
        surface, p, name = full_cylinder(3, 2), 3, "cylinder_sine"
    _, results = run_sweep(surface, p, lambda s, d: make_problem(name, s, p, d), 3)
    final = results[-1]
    surface = final.solution.space.surface
    assert len(patch_stacks(surface.patches)) < surface.num_patches  # stacked
    data = make_problem(name, surface, p)
    report = measure_errors(final.solution, data)
    assert report.per_patch == element_major_parts(final.solution, data, p + 2)
