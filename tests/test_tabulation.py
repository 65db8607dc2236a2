"""The vectorized tabulation against the pointwise oracles of ``tests/oracles.py``.

``tabulate_patch``, ``tabulate_sides``, the grid kernel ``tabulate_grid``
and ``NurbsPatch.side_point`` must reproduce ``eval_nurbs2d``/``frame_at``/
``surface_gradient``/``conormal_at``/``function_at``/``edge_mesh_size`` at
every point, on every bundled geometry, the p = 3 rational full cylinder
and an orientation-flipped interface.
"""

import numpy as np
import pytest
from conftest import bundled
from oracles import (
    assemble_volume,
    conormal_at,
    edge_breakpoints,
    edge_mesh_size,
    eval_nurbs2d,
    frame_at,
    function_at,
    gauss_tabulation,
    partner_t,
    side_param,
    surface_gradient,
    tabulate_patch,
)
from test_flipped_interface import two_patches

import dgiga.geometry
from dgiga.assembly import (
    ProblemData,
    _edge_terms,
    assemble_system,
    interface_slots,
)
from dgiga.analysis import measure_errors
from dgiga.driver import LevelResult, sample_solution
from dgiga.geofile import parse_geometry
from dgiga.geometries import full_cylinder, planar_rectangle_patch, quarter_cylinder_grid
from dgiga.geometry import (
    COMPONENT_AXES,
    SIDES,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    SingularMapError,
    _rational_basis,
    refine_surface,
    tabulate_grid,
    tabulate_patches,
    tabulate_sides,
)
from dgiga.quadrature import panel_rules
from dgiga.space import build_space
from dgiga.splines import KnotVector, NurbsBasis2D, greville

BUNDLED_FILES = ("square4.g", "square4_p2.g", "square4_p3.g", "qcyl4.g", "qcyl4_p3.g")
GEOMETRIES = {
    **{name: lambda name=name: parse_geometry(bundled(name)).surface() for name in BUNDLED_FILES},
    "full_cylinder_p3": lambda: full_cylinder(3),
    "flipped_interface": lambda: two_patches(flip_right=True),
}


@pytest.fixture(params=sorted(GEOMETRIES), scope="module")
def surface(request):
    # One refinement, so every patch and side has several elements.
    return refine_surface(GEOMETRIES[request.param]())


def random_function(surface):
    space = build_space(surface, surface.patches[0].degree[0])
    return space.function(np.random.default_rng(5).standard_normal(space.total_dofs))


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-13)


def check_point(patch, tab, surface_grads, idx, xi):
    """Basis, surface gradients, point and area density at tab[idx] against xi."""
    vals, grads, window = eval_nurbs2d(patch.basis, xi)
    frame = frame_at(patch, xi)
    lead = tab.sqrt_det_g.shape
    first = (np.broadcast_to(tab.first_u, lead)[idx], np.broadcast_to(tab.first_v, lead)[idx])
    assert first == window
    close(tab.values[idx], vals)
    close(np.moveaxis(tab.grads[(slice(None), *idx)], 0, -1), grads)
    for a, b in np.ndindex(vals.shape):
        close(surface_grads[(slice(None), *idx)][:, a, b], surface_gradient(frame, grads[a, b]))
    close(tab.points[(..., *idx)], frame.point)
    close(tab.sqrt_det_g[idx], frame.sqrt_det_g)


def check_trace(patch, tab, surface_grads, idx, xi):
    """Trace functions, surface gradients, point, Jacobian and g^-1 at tab[idx] against xi.

    The functions are compared by their index in the patch, so every
    function outside the element's trace window must vanish with its
    gradient.
    """
    vals, grads, (a1, a2) = eval_nurbs2d(patch.basis, xi)
    frame = frame_at(patch, xi)
    n1, n2 = patch.basis.shape
    m1, m2 = vals.shape
    window = ((a2 + np.arange(m2)) * n1 + a1 + np.arange(m1)[:, None]).ravel()
    pushed = [surface_gradient(frame, g) for g in grads.reshape(-1, 2)]

    def dense(a, dofs):
        a = np.asarray(a)
        out = np.zeros((n1 * n2, *a.shape[1:]))
        out[dofs] = a
        return out

    dofs = tab.dofs[idx[0]]
    close(dense(tab.values[idx], dofs), dense(vals.ravel(), window))
    close(dense(tab.grads[(slice(None), *idx)].T, dofs), dense(grads.reshape(-1, 2), window))
    close(dense(surface_grads[(slice(None), *idx)].T, dofs), dense(pushed, window))
    close(tab.points[(..., *idx)], frame.point)
    close(tab.jacobian[(..., *idx)], frame.jacobian)
    close(tab.inv_metric[(..., *idx)], frame.inv_metric)


def test_patch_tabulation_matches_pointwise(surface):
    u_h = random_function(surface)
    q = u_h.space.degree + 2
    for pid, patch in enumerate(surface.patches):
        tab = tabulate_patch(patch, q)
        xu, wu = panel_rules(patch.basis.basis_u.breaks, q)
        xv, wv = panel_rules(patch.basis.basis_v.breaks, q)
        G = tab.surface_gradient(tab.grads)
        # The error pass's route: u_h contracted like the geometry, no basis.
        fields = gauss_tabulation([patch], q, u_h.patch_coeffs(pid)[None])
        assert fields.values is None and fields.grads is None
        field_grads = fields.surface_gradient(fields.field_grad)
        for idx in np.ndindex(tab.sqrt_det_g.shape):
            u, v = idx
            xi = (xu.ravel()[u], xv.ravel()[v])
            check_point(patch, tab, G, idx, xi)
            close(tab.weights[idx], wu.ravel()[u] * wv.ravel()[v] * frame_at(patch, xi).sqrt_det_g)
            value, grad = function_at(u_h, pid, xi)
            close(fields.field[(0, *idx)], value)
            close(field_grads[(slice(None), 0, *idx)], grad)
            for name in ("points", "jacobian", "inv_metric", "sqrt_det_g", "weights"):
                close(getattr(fields, name)[(..., 0, *idx)], getattr(tab, name)[(..., *idx)])


def slot_starts(surface, slots):
    """First element of every slot on the element axis of a batched side tabulation."""
    nel = [surface.patches[pid].side_knots(side).num_elements for pid, side, _ in slots]
    return np.concatenate([[0], np.cumsum(nel)])


def test_side_tabulation_matches_pointwise(surface):
    q = surface.patches[0].degree[0] + 1
    edges = surface.edges
    interior = [e for e in edges if e.right is not None]
    # Every left side, then every right side with its orientation flip.
    slots = [(*e.left, False) for e in edges] + interface_slots(interior)[len(interior):]
    tab = tabulate_sides(surface.patches, slots, q)
    G = tab.surface_gradient(tab.grads)
    starts = slot_starts(surface, slots)
    assert tab.chords.shape == (starts[-1],)
    np.testing.assert_array_equal(tab.starts, starts)
    np.testing.assert_array_equal(tab.pid[:, 0], np.repeat([s[0] for s in slots], np.diff(starts)))
    rights = dict(zip(map(id, interior), starts[len(edges):]))
    for edge, first in zip(edges, starts):
        pid, side = edge.left
        patch = surface.patches[pid]
        ts, wt = panel_rules(edge_breakpoints(surface, edge), q)
        for e in range(ts.shape[0]):
            close(tab.chords[first + e], edge_mesh_size(surface, edge, e))
        for e, i in np.ndindex(ts.shape):
            idx = (first + e, i)
            t = float(ts[e, i])
            check_trace(patch, tab, G, idx, side_param(side, t))
            jacobian = frame_at(patch, side_param(side, t)).jacobian
            tangent = jacobian[:, 1] if side in ("west", "east") else jacobian[:, 0]
            close(tab.weights[idx], wt[e, i] * np.linalg.norm(tangent))
            close(tab.conormal[(..., *idx)], conormal_at(surface, edge, "left", t))
        if edge.right is None:
            continue
        pid_r, side_r = edge.right
        for e, i in np.ndindex(ts.shape):
            idx = (rights[id(edge)] + e, i)
            t = float(ts[e, i])
            xi = side_param(side_r, partner_t(edge, t))
            check_trace(surface.patches[pid_r], tab, G, idx, xi)
            close(tab.points[(..., *idx)], tab.points[:, first + e, i])
            close(tab.conormal[(..., *idx)], conormal_at(surface, edge, "right", t))


def test_side_field_equals_the_basis_route(surface):
    """``tabulate_sides(..., coeffs)`` contracts u_h like the geometry and gathers its
    values only: no basis, no parametric gradient, no J, g^-1 or conormal."""
    u_h = random_function(surface)
    q = u_h.space.degree + 2
    interior = [e for e in surface.edges if e.right is not None]
    slots = [(*e.left, False) for e in surface.edges] + interface_slots(interior)[len(interior):]
    coeffs = [u_h.patch_coeffs(pid) for pid in range(surface.num_patches)]
    fields = tabulate_sides(surface.patches, slots, q, coeffs)
    basis = tabulate_sides(surface.patches, slots, q)
    for name in BASIS_ONLY + ("field_grad", "sqrt_det_g"):
        assert getattr(fields, name) is None, name
    assert basis.sqrt_det_g is None
    c = u_h.coefficients[u_h.space.offsets[basis.pid] + basis.dofs][:, None]
    close(fields.field, (basis.values * c).sum(axis=-1))
    for name in set(SIDE_FIELDS) - set(BASIS_ONLY):
        close(getattr(fields, name), getattr(basis, name))


def test_grid_tabulation_matches_pointwise_up_to_xi_one(surface):
    ts = np.linspace(0.0, 1.0, 5)  # hits the interior knot 0.5 and xi = 1
    for patch in surface.patches:
        tab = _rational_basis(tabulate_grid([patch], ts, ts))
        G = tab.surface_gradient(tab.grads)
        for idx in np.ndindex(tab.sqrt_det_g.shape):
            check_point(patch, tab, G, idx, (ts[idx[1]], ts[idx[2]]))


def test_sample_solution_matches_pointwise_evaluation(surface):
    u_h = random_function(surface)
    result = LevelResult(0, u_h, None, None)
    for line in sample_solution(result).splitlines()[1:]:
        pid, x1, x2, x, y, z, uh = line.split(",")
        xi = (float(x1), float(x2))
        close([float(x), float(y), float(z)], frame_at(surface.patches[int(pid)], xi).point)
        close(float(uh), function_at(u_h, int(pid), xi)[0])


def test_side_point_matches_pointwise():
    patch = quarter_cylinder_grid(3, 1, 1, radius=2.0, height=0.5).patches[0]
    for side in SIDES:
        for t in (0.0, 0.3, 1.0):
            close(patch.side_point(side, t), frame_at(patch, side_param(side, t)).point)


def test_side_point_errors():
    patch = planar_rectangle_patch(1)
    collapsed = NurbsPatch(patch.basis, np.zeros_like(patch.control_points), 7)
    with pytest.raises(SingularMapError, match="patch 7"):
        collapsed.side_point("north", 0.3)
    for t in (-0.1, 1.0001, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            patch.side_point("east", t)


# Side fields of the basis route only; a field tabulation leaves them None.  No side
# tabulation carries sqrt_det_g: the edge speed is in ``weights``.
BASIS_ONLY = ("dofs", "values", "grads", "jacobian", "inv_metric", "conormal")
SIDE_FIELDS = BASIS_ONLY + ("pid", "points", "weights", "chords")


def two_signature_patches():
    """Five rational, non-planar patches in a row with two knot signatures.

    Neighbours share their east/west edge (same v knots) but alternate
    between 2 and 3 elements across it.
    """
    rng = np.random.default_rng(3)
    kv_v = KnotVector(2, [0, 0, 0, 0.4, 1, 1, 1])
    knots_u = ([0, 0, 0, 0.5, 1, 1, 1], [0, 0, 0, 0.3, 0.6, 1, 1, 1])
    patches = []
    for pid in range(5):
        knots = knots_u[pid % 2]
        kv_u = KnotVector(2, knots)
        gu, gv = greville(kv_u), greville(kv_v)
        cp = np.zeros((gu.size, gv.size, 3))
        cp[..., 0] = pid + gu[:, None]
        cp[..., 1] = gv[None, :]
        cp[..., 2] = 0.2 * cp[..., 0] * cp[..., 1] ** 2
        weights = rng.uniform(0.8, 1.2, cp.shape[:2])
        patches.append(NurbsPatch(NurbsBasis2D(kv_u, kv_v, weights), cp, pid))
    return patches


def test_batched_sides_equal_concatenated_one_slot_calls_bit_for_bit():
    patches = two_signature_patches()
    rng = np.random.default_rng(8)
    slots = [(pid, side, bool(rng.random() < 0.5)) for pid in range(5) for side in SIDES]
    slots = [slots[k] for k in rng.permutation(len(slots))]
    assert {flip for _, _, flip in slots} == {False, True}
    for q in (2, 3, 4):
        batch = tabulate_sides(patches, slots, q)
        single = [tabulate_sides(patches, [slot], q) for slot in slots]
        for name in SIDE_FIELDS:
            expected = np.concatenate([getattr(tab, name) for tab in single],
                                      axis=COMPONENT_AXES.get(name, 0))
            np.testing.assert_array_equal(getattr(batch, name), expected, err_msg=name)


def transposed(patch):
    """The patch with its two parameter directions swapped."""
    b = patch.basis
    return NurbsPatch(NurbsBasis2D(b.basis_v, b.basis_u, b.weights.T),
                      patch.control_points.swapaxes(0, 1), patch.id)


def refined_stack(patches, pids):
    surface = refine_surface(MultiPatchSurface(patches, []))
    return [surface.patches[pid] for pid in pids]


RUN_STACKS = {
    # 4 x 4 elements, a tie: v is contracted first
    "square": lambda: refined_stack(two_signature_patches(), [0, 2, 4]),
    # 6 x 4 elements: v first
    "v_first": lambda: refined_stack(two_signature_patches(), [1, 3]),
    # 4 x 6 elements: u first
    "u_first": lambda: refined_stack([transposed(p) for p in two_signature_patches()], [1, 3]),
    "full_cylinder_p3": lambda: refined_stack(refine_surface(full_cylinder(3)).patches, [0, 1]),
}


@pytest.mark.parametrize("name", sorted(RUN_STACKS))
def test_a_run_of_element_rows_tabulates_as_its_slice_of_the_whole_patch(monkeypatch, name):
    """Each work unit that ``tabulate_patches`` yields, a run of u-element rows,
    equals its slice of the whole stack's Gauss tabulation (``gauss_tabulation``)
    bit for bit, with and without a field, whichever direction the whole grid
    contracts first, under budgets of 1, 2, 3 and all rows a unit."""
    stack = RUN_STACKS[name]()
    kv_u, kv_v = stack[0].basis.basis_u, stack[0].basis.basis_v
    p, nel = kv_u.degree, kv_u.num_elements
    row_bytes = 64 * (kv_u.degree + 2) * (kv_v.degree + 2) * kv_v.num_elements * len(stack)
    coeffs = np.random.default_rng(2).standard_normal((len(stack),) + stack[0].basis.shape)
    fields = ("points", "jacobian", "inv_metric", "sqrt_det_g", "weights", "field", "field_grad")
    for size in (1, 2, 3, nel):
        monkeypatch.setattr(dgiga.geometry, "STACK_BYTES", size * row_bytes)
        for q, c in ((p + 1, None), (p + 2, coeffs)):
            whole = gauss_tabulation(stack, q, c)
            units = list(tabulate_patches(stack, q, c))
            assert [rows for rows, _ in units] == [slice(a, min(a + size, nel))
                                                   for a in range(0, nel, size)]
            for rows, run in units:
                g = slice(rows.start * q, rows.stop * q)
                for field in fields[: 5 if c is None else None]:
                    expected = getattr(whole, field)[..., g, :]
                    np.testing.assert_array_equal(getattr(run, field), expected, err_msg=field)
                np.testing.assert_array_equal(run.first_u, whole.first_u[g])
                np.testing.assert_array_equal(run.first_v, whole.first_v)
                Nu, dNu, Nv, dNv, S, Su, Sv, W = whole.factors
                for got, expected in zip(run.factors, (Nu[rows], dNu[rows], Nv, dNv, S[..., g, :],
                                                       Su[..., g, :], Sv[..., g, :], W)):
                    np.testing.assert_array_equal(got, expected)


def test_tabulate_sides_rejects_an_empty_slot_list():
    with pytest.raises(ValueError, match="at least one slot"):
        tabulate_sides(two_signature_patches(), [], 3)


def collapsed_layout(whole=True):
    """Five unit squares in a row joined by interior edges, Dirichlet elsewhere.

    Patch 2, in the middle of every edge batch, is collapsed to a point, or
    (whole=False) only along its north side, so that its Gauss points stay
    regular and only its side tabulations are singular.
    """
    patches = [planar_rectangle_patch(1, origin=(float(i), 0.0), pid=i) for i in range(5)]
    cp = patches[2].control_points.copy()
    if whole:
        cp[:] = 0.0
    else:
        cp[:, -1] = cp[0, -1]
    patches[2] = NurbsPatch(patches[2].basis, cp, 2)
    edges = [InterfaceEdge("interior", (i, "east"), (i + 1, "west")) for i in range(4)]
    edges += [InterfaceEdge("dirichlet", (i, side)) for i in range(5) for side in ("south", "north")]
    edges += [InterfaceEdge("dirichlet", (0, "west")), InterfaceEdge("dirichlet", (4, "east"))]
    return build_space(MultiPatchSurface(patches, edges), 1)


@pytest.mark.parametrize(
    "assemble", [assemble_system, assemble_volume, _edge_terms]
)
def test_assembly_reports_singular_patch(assemble):
    with pytest.raises(SingularMapError, match="patch 2 "):
        assemble(collapsed_layout(), ProblemData(delta=12.0))


@pytest.mark.parametrize("whole", [False, True])
def test_edge_batches_report_singular_patch(whole):
    space = collapsed_layout(whole)
    with pytest.raises(SingularMapError, match="patch 2 "):
        _edge_terms(space, ProblemData(delta=12.0))
    data = ProblemData(
        g_D=lambda pts: pts[:, 0],
        u_exact=lambda pts: pts[:, 0],
        grad_u_exact=lambda pts: np.tile([1.0, 0.0, 0.0], (len(pts), 1)),
        delta=12.0,
    )
    with pytest.raises(SingularMapError, match="patch 2 "):
        measure_errors(space.function(np.zeros(space.total_dofs)), data)
