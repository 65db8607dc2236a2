"""Pointwise reference evaluations used only as test oracles.

Each function evaluates one quantity at single points through
``frame_at``/``eval_nurbs2d`` (or one ``tabulate_patch`` call), so the
vectorised kernels can be checked against an independent route.
"""

import math
from dataclasses import replace

import numpy as np

from dgiga.geometry import (
    GeometryError,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    _rational_basis,
    conormal,
    frame_at,
    side_param,
    tabulate_patches,
)
from dgiga.space import DgSpace, DiscreteFunction
from dgiga.splines import breakpoints, eval_nurbs2d, greville


def tabulate_patch(patch: NurbsPatch, q: int):
    """Basis and geometry at the q x q Gauss points of one patch; axes (nel_u, nel_v, q, q)."""
    tab = _rational_basis([patch], tabulate_patches([patch], q, basis=True))
    names = ("points", "jacobian", "inv_metric", "sqrt_det_g", "weights", "values", "grads")
    return replace(tab, factors=None, **{name: getattr(tab, name)[0] for name in names})


def edge_breakpoints(surface: MultiPatchSurface, edge: InterfaceEdge) -> np.ndarray:
    """Element boundaries along the edge, in the left side's parameter."""
    patch = surface.patches[edge.left[0]]
    return breakpoints(patch.side_knots(edge.left[1]))


def edge_mesh_size(surface: MultiPatchSurface, edge: InterfaceEdge, element: int) -> float:
    """Physical chord length of one mapped edge element."""
    bp = edge_breakpoints(surface, edge)
    patch = surface.patches[edge.left[0]]
    a = patch.side_point(edge.left[1], bp[element])
    b = patch.side_point(edge.left[1], bp[element + 1])
    return float(np.linalg.norm(b - a))


def mesh_size(patch: NurbsPatch, element: tuple[int, int]) -> float:
    """Element diameter estimate: max distance among the 4 mapped corners."""
    bu = breakpoints(patch.basis.basis_u)
    bv = breakpoints(patch.basis.basis_v)
    eu, ev = element
    corners = [
        patch.point((bu[eu + du], bv[ev + dv])) for du in (0, 1) for dv in (0, 1)
    ]
    return max(
        float(np.linalg.norm(corners[i] - corners[j]))
        for i in range(4)
        for j in range(i + 1, 4)
    )


def conormal_at(
    surface: MultiPatchSurface, edge: InterfaceEdge, side: str, t: float
) -> np.ndarray:
    """Outward unit conormal of the given edge slot ("left"/"right").

    ``t`` is the left side's edge coordinate; for the right slot the
    recorded orientation flip is applied first.
    """
    if side == "left":
        pid, pside = edge.left
        s = t
    elif side == "right":
        if edge.right is None:
            raise GeometryError("boundary edge has no right side")
        pid, pside = edge.right
        s = edge.partner_t(t)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return conormal(surface.patches[pid], pside, s)


def trace_on_edge(
    f: DiscreteFunction, edge: InterfaceEdge, side: str, t: float
) -> tuple[float, np.ndarray]:
    """Trace (value, tangential gradient) from one side of an edge.

    ``t`` runs along the left side's own parameter; the right side is
    composed with the recorded orientation flip.
    """
    if side == "left":
        pid, pside = edge.left
        s = t
    elif side == "right":
        if edge.right is None:
            raise ValueError("boundary edge has no right-side trace")
        pid, pside = edge.right
        s = edge.partner_t(t)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return f.eval(pid, side_param(pside, s))


def edge_jump(f: DiscreteFunction, edge: InterfaceEdge, t: float) -> float:
    """Jump left - right; on boundary edges the jump is the trace itself."""
    left, _ = trace_on_edge(f, edge, "left", t)
    if edge.right is None:
        return left
    right, _ = trace_on_edge(f, edge, "right", t)
    return left - right


def edge_average(f: DiscreteFunction, edge: InterfaceEdge, t: float) -> float:
    """Unweighted average; on boundary edges the average is the trace."""
    left, _ = trace_on_edge(f, edge, "left", t)
    if edge.right is None:
        return left
    right, _ = trace_on_edge(f, edge, "right", t)
    return 0.5 * (left + right)


def interpolate(space: DgSpace, fn) -> DiscreteFunction:
    """Patchwise Greville-point collocation of fn(points (N,3)) -> (N,).

    The interpolant of a continuous function has (up to roundoff) zero
    jumps across matched interfaces since neighboring patches collocate
    the same edge data.
    """
    coeffs = np.empty(space.total_dofs)
    for pid, patch in enumerate(space.surface.patches):
        gu = greville(patch.basis.basis_u)
        gv = greville(patch.basis.basis_v)
        n1, n2 = patch.basis.shape
        n = n1 * n2
        M = np.zeros((n, n))
        pts = np.empty((n, 3))
        for j, xv in enumerate(gv):
            for i, xu in enumerate(gu):
                row = j * n1 + i
                vals, _, (a1, a2) = eval_nurbs2d(patch.basis, (xu, xv))
                m1, m2 = vals.shape
                cols = (np.arange(a2, a2 + m2)[None, :] * n1
                        + np.arange(a1, a1 + m1)[:, None])
                M[row, cols.ravel()] = vals.ravel()
                pts[row] = frame_at(patch, (xu, xv)).point
        coeffs[space.patch_slice(pid)] = np.linalg.solve(M, fn(pts))
    return space.function(coeffs)


def integrate_patch(patch: NurbsPatch, fn, q: int) -> float:
    """Integrate fn(x, y, z) over one mapped patch with q points per direction.

    ``fn`` is called once with coordinate arrays.  Passing ``fn=None``
    integrates 1 and returns the surface area.
    """
    tab = tabulate_patch(patch, q)
    if fn is None:
        return float(np.sum(tab.weights))
    return float(np.sum(fn(*np.moveaxis(tab.points, -1, 0)) * tab.weights))


def l2_error_at(u_h: DiscreteFunction, u_exact, q: int) -> float:
    """L2 norm of u_h - u_exact with q Gauss points per direction, one patch at a time."""
    total = 0.0
    for pid, patch in enumerate(u_h.space.surface.patches):
        tab = tabulate_patches([patch], q, u_h.patch_coeffs(pid)[None])
        gap = tab.field.ravel() - u_exact(tab.points.reshape(-1, 3))
        total += float(np.sum(gap**2 * tab.weights.ravel()))
    return math.sqrt(total)
