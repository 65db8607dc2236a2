"""Pointwise reference evaluations, used only by the tests.

The library evaluates bases and geometry through one sum-factorised kernel
(``splines.tabulate`` feeding ``geometry.tabulate_grid``, ``tabulate_patches``
and ``tabulate_sides``).  ``gauss_tabulation`` is a whole stack's
``tabulate_grid`` at its Gauss points with the quadrature weights, the
reference for the work units ``tabulate_patches`` yields, and
``surface_area`` sums them patch by patch.  This module keeps an
independent, pointwise route to the same quantities: ``eval_bspline`` (the
triangular Cox-de Boor scheme at one point), ``eval_nurbs2d`` (the rational
basis by the quotient rule), ``frame_at`` (point, Jacobian and metric from
the local control window), ``surface_gradient``, ``surface_normal`` and
``conormal`` (by cross products), ``function_at`` (a discrete function's value and tangential
gradient), and ``global_window`` and ``element_dofs`` (global indices of
basis windows).  The kernels are checked against them, and the edge,
mesh-size and interpolation helpers below are built on them.
``refine_patch`` refines one patch at a time, the reference for the stacked
``refine_surface``.  ``discrete_bsplines`` builds one row of a knot-insertion
matrix, the reference for ``insert_knots``.  ``coo_csr`` sums element matrices
through a scipy COO, the reference for the CSR accumulators, and
``edge_matrix`` densifies the edge entries of ``assembly._edge_terms``.
``assemble_volume`` is the volume terms alone: ``assemble_system`` on the same
patches with no edges, where every side is a natural boundary.
``merged_system`` assembles the system by a merge after the fact (``np.unique``
over the edge keys, ``searchsorted`` into the volume pattern's keys and
``np.insert``), the reference for the pattern that ``assemble_system`` fixes
before any value.
"""

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from dgiga.assembly import SparseSystem, _edge_terms, _index_dtype, assemble_system
from dgiga.geometry import (
    COMPONENT_AXES,
    GeometryError,
    InterfaceEdge,
    MultiPatchSurface,
    NurbsPatch,
    SingularMapError,
    _rational_basis,
    tabulate_grid,
)
from dgiga.quadrature import panel_rules
from dgiga.space import DgSpace, DiscreteFunction
from dgiga.splines import KnotVector, NurbsBasis2D, find_span, greville, midpoint_refine

# Each side: (fixed axis, fixed value, edge direction in parameter space,
# outward parametric direction).
_SIDE_DATA = {
    "west": (0, 0.0, np.array([0.0, 1.0]), np.array([-1.0, 0.0])),
    "east": (0, 1.0, np.array([0.0, 1.0]), np.array([1.0, 0.0])),
    "south": (1, 0.0, np.array([1.0, 0.0]), np.array([0.0, -1.0])),
    "north": (1, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
}

@dataclass(frozen=True)
class BasisEval:
    """Non-vanishing basis values and first derivatives at one point.

    ``values[r]`` and ``derivs[r]`` belong to basis function
    ``first_active + r`` for ``r = 0 .. degree``.
    """

    first_active: int
    values: np.ndarray
    derivs: np.ndarray


def eval_bspline(kv: KnotVector, xi: float) -> BasisEval:
    """Evaluate the degree+1 possibly non-zero B-splines and d/dxi at xi.

    Raises ValueError if xi lies outside [0, 1].
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"evaluation point {xi} outside [0, 1]")
    p, U = kv.degree, kv.knots
    span = int(find_span(kv, xi))

    values = np.zeros(p + 1)
    values[0] = 1.0
    if p == 0:
        return BasisEval(span, values, np.zeros(1))

    # Triangular Cox-de Boor scheme; keep the degree p-1 row for derivatives.
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    lower = np.zeros(p)
    for j in range(1, p + 1):
        if j == p:
            lower[:] = values[:p]
        left[j] = xi - U[span + 1 - j]
        right[j] = U[span + j] - xi
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        values[j] = saved

    derivs = np.zeros(p + 1)
    first = span - p
    for r in range(p + 1):
        i = first + r
        d = 0.0
        if r > 0:
            den = U[i + p] - U[i]
            if den > 0.0:
                d += lower[r - 1] / den
        if r < p:
            den = U[i + p + 1] - U[i + 1]
            if den > 0.0:
                d -= lower[r] / den
        derivs[r] = p * d
    return BasisEval(first, values, derivs)


def eval_nurbs2d(basis: NurbsBasis2D, xi) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Rational basis values and parametric gradients at xi in [0,1]^2.

    Returns ``(values, grads, (first_u, first_v))`` where ``values`` has
    shape (p1+1, p2+1), ``grads`` has shape (p1+1, p2+1, 2), and entry
    (a, b) belongs to the basis function (first_u + a, first_v + b).
    Values sum to 1 (weighted projection; gradients by the quotient rule).
    """
    eu = eval_bspline(basis.basis_u, xi[0])
    ev = eval_bspline(basis.basis_v, xi[1])
    p1, p2 = basis.basis_u.degree, basis.basis_v.degree
    w = basis.weights[
        eu.first_active : eu.first_active + p1 + 1,
        ev.first_active : ev.first_active + p2 + 1,
    ]
    B = np.outer(eu.values, ev.values) * w
    Bu = np.outer(eu.derivs, ev.values) * w
    Bv = np.outer(eu.values, ev.derivs) * w
    S = B.sum()
    Su = Bu.sum()
    Sv = Bv.sum()
    vals = B / S
    grads = np.empty((p1 + 1, p2 + 1, 2))
    grads[:, :, 0] = Bu / S - B * (Su / S**2)
    grads[:, :, 1] = Bv / S - B * (Sv / S**2)
    return vals, grads, (eu.first_active, ev.first_active)


def side_param(side: str, t: float) -> tuple[float, float]:
    """Map a side coordinate t in [0,1] to the patch parameter square."""
    axis, value, _, _ = _SIDE_DATA[side]
    return (value, t) if axis == 0 else (t, value)


@dataclass(frozen=True)
class SurfaceFrame:
    """First-fundamental-form data of a patch at one parameter point."""

    point: np.ndarray
    jacobian: np.ndarray  # 3x2
    metric: np.ndarray  # 2x2, J^T J
    sqrt_det_g: float
    inv_metric: np.ndarray


def frame_at(patch: NurbsPatch, xi) -> SurfaceFrame:
    """Evaluate the mapped point, Jacobian and metric of a patch at xi.

    Raises SingularMapError when det(J^T J) <= 1e-14 g_00 g_11, as ``tabulate_grid`` does.
    """
    vals, grads, (a1, a2) = eval_nurbs2d(patch.basis, xi)
    p1, p2 = vals.shape
    cp = patch.control_points[a1 : a1 + p1, a2 : a2 + p2]
    point = np.einsum("ab,abk->k", vals, cp)
    jac = np.einsum("abd,abk->kd", grads, cp)
    g = jac.T @ jac
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if det <= 1e-14 * g[0, 0] * g[1, 1]:
        raise SingularMapError(
            f"singular parameterization on patch {patch.id} at xi={tuple(xi)} (det g={det:.3e})"
        )
    inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    return SurfaceFrame(point, jac, g, float(np.sqrt(det)), inv)


def surface_gradient(frame: SurfaceFrame, parametric_grad) -> np.ndarray:
    """Push a parametric gradient forward to the tangential gradient in R^3."""
    return frame.jacobian @ (frame.inv_metric @ np.asarray(parametric_grad, dtype=float))


def surface_normal(frame: SurfaceFrame) -> np.ndarray:
    """Unit normal of the surface (cross product of the Jacobian columns)."""
    nu = np.cross(frame.jacobian[:, 0], frame.jacobian[:, 1])
    return nu / np.linalg.norm(nu)


def conormal(patch: NurbsPatch, side: str, t: float) -> np.ndarray:
    """Outward unit conormal of a patch side at side coordinate t.

    Tangent to the surface, orthogonal to the edge, pointing out of the
    patch.  Raises GeometryError for a degenerate edge tangent.
    """
    axis, _, edge_dir, outward = _SIDE_DATA[side]
    frame = frame_at(patch, side_param(side, t))
    tangent = frame.jacobian @ edge_dir
    tnorm = np.linalg.norm(tangent)
    if tnorm < 1e-14:
        raise GeometryError(f"degenerate edge tangent on patch {patch.id} side {side}")
    nu = surface_normal(frame)
    c = np.cross(tangent / tnorm, nu)
    c /= np.linalg.norm(c)
    # Orient outward: compare with the parametric outward direction pushed forward.
    if np.dot(c, frame.jacobian @ outward) < 0.0:
        c = -c
    return c


def function_at(f: DiscreteFunction, pid: int, xi) -> tuple[float, np.ndarray]:
    """Value and tangential gradient at a parameter point of one patch."""
    patch = f.space.surface.patches[pid]
    vals, grads, (a1, a2) = eval_nurbs2d(patch.basis, xi)
    m1, m2 = vals.shape
    c = f.patch_coeffs(pid)[a1 : a1 + m1, a2 : a2 + m2]
    value = float(np.sum(c * vals))
    pgrad = np.array(
        [np.sum(c * grads[:, :, 0]), np.sum(c * grads[:, :, 1])]
    )
    frame = frame_at(patch, xi)
    return value, surface_gradient(frame, pgrad)


def global_window(space: DgSpace, pid: int, first_u: int, first_v: int, m1: int, m2: int):
    """Global indices (m1, m2) of the functions (first_u + a, first_v + b) of
    patch pid, aligned with ``eval_nurbs2d`` values: patch-major, then k2-major."""
    n1 = space.surface.patches[pid].basis.shape[0]
    k1, k2 = np.arange(first_u, first_u + m1), np.arange(first_v, first_v + m2)
    return space.offsets[pid] + k2[None, :] * n1 + k1[:, None]


def element_dofs(space: DgSpace, pid: int) -> np.ndarray:
    """Global indices (E, m) of the functions on every element of patch pid,
    elements u-major, from ``eval_bspline`` at the element midpoints."""
    basis = space.surface.patches[pid].basis
    firsts = []
    for kv in (basis.basis_u, basis.basis_v):
        bp = kv.breaks
        firsts.append([eval_bspline(kv, 0.5 * (a + b)).first_active
                       for a, b in zip(bp[:-1], bp[1:])])
    m1, m2 = basis.basis_u.degree + 1, basis.basis_v.degree + 1
    return np.array([global_window(space, pid, a1, a2, m1, m2).ravel()
                     for a1 in firsts[0] for a2 in firsts[1]])


def gauss_tabulation(patches: list[NurbsPatch], q: int, coeffs=None):
    """``tabulate_grid`` of a whole stack at the q x q Gauss points of its elements
    (``panel_rules``), with ``weights``: the Gauss weights times sqrt(det g)."""
    kv_u, kv_v = patches[0].basis.basis_u, patches[0].basis.basis_v
    (xu, wu), (xv, wv) = panel_rules(kv_u.breaks, q), panel_rules(kv_v.breaks, q)
    tab = tabulate_grid(patches, xu, xv, coeffs)
    return replace(tab, weights=wu.reshape(-1, 1) * wv.reshape(-1) * tab.sqrt_det_g)


def tabulate_patch(patch: NurbsPatch, q: int):
    """Basis and geometry at the q x q Gauss points of one patch; point axes (nu, nv)."""
    tab = _rational_basis(gauss_tabulation([patch], q))
    names = ("points", "jacobian", "inv_metric", "sqrt_det_g", "weights", "values", "grads")
    return replace(tab, factors=None, **{
        name: getattr(tab, name)[(slice(None),) * COMPONENT_AXES.get(name, 0) + (0,)]
        for name in names})


def edge_breakpoints(surface: MultiPatchSurface, edge: InterfaceEdge) -> np.ndarray:
    """Element boundaries along the edge, in the left side's parameter."""
    patch = surface.patches[edge.left[0]]
    return patch.side_knots(edge.left[1]).breaks


def edge_mesh_size(surface: MultiPatchSurface, edge: InterfaceEdge, element: int) -> float:
    """Physical chord length of one mapped edge element."""
    bp = edge_breakpoints(surface, edge)
    patch = surface.patches[edge.left[0]]
    side = edge.left[1]
    a = frame_at(patch, side_param(side, bp[element])).point
    b = frame_at(patch, side_param(side, bp[element + 1])).point
    return float(np.linalg.norm(b - a))


def mesh_size(patch: NurbsPatch, element: tuple[int, int]) -> float:
    """Element diameter estimate: max distance among the 4 mapped corners."""
    bu = patch.basis.basis_u.breaks
    bv = patch.basis.basis_v.breaks
    eu, ev = element
    corners = [
        frame_at(patch, (bu[eu + du], bv[ev + dv])).point for du in (0, 1) for dv in (0, 1)
    ]
    return max(
        float(np.linalg.norm(corners[i] - corners[j]))
        for i in range(4)
        for j in range(i + 1, 4)
    )


def uniform_open_knots(degree: int, num_elements: int) -> KnotVector:
    """Open knot vector with ``num_elements`` uniform spans on [0, 1]."""
    if num_elements < 1:
        raise ValueError("need at least one element")
    interior = np.linspace(0.0, 1.0, num_elements + 1)[1:-1]
    U = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return KnotVector(degree, U)


def partner_t(edge: InterfaceEdge, t: float) -> float:
    """Right-side edge coordinate matching the left-side coordinate t."""
    return 1.0 - t if edge.orientation_flip else t


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
        s = partner_t(edge, t)
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
        s = partner_t(edge, t)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return function_at(f, pid, side_param(pside, s))


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
    return float(np.sum(fn(*tab.points) * tab.weights))


def surface_area(surface: MultiPatchSurface, q: int) -> float:
    """Area of a surface, patch by patch, with q Gauss points per direction."""
    return sum(integrate_patch(patch, None, q) for patch in surface.patches)


def l2_error_at(u_h: DiscreteFunction, u_exact, q: int) -> float:
    """L2 norm of u_h - u_exact with q Gauss points per direction, one patch at a time."""
    total = 0.0
    for pid, patch in enumerate(u_h.space.surface.patches):
        tab = gauss_tabulation([patch], q, u_h.patch_coeffs(pid)[None])
        gap = tab.field.ravel() - u_exact(tab.points.reshape(3, -1).T)
        total += float(np.sum(gap**2 * tab.weights.ravel()))
    return math.sqrt(total)


def single_insertion_matrix(U: np.ndarray, p: int, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Boehm's single-knot insertion row by row: returns (new knots, (n+1) x n matrix)."""
    n = U.size - p - 1
    k = int(np.searchsorted(U, u, side="right")) - 1
    T = np.zeros((n + 1, n))
    for i in range(n + 1):
        if i <= k - p:
            T[i, i] = 1.0
        elif i > k:
            T[i, i - 1] = 1.0
        else:
            a = (u - U[i]) / (U[i + p] - U[i])
            T[i, i] = a
            T[i, i - 1] = 1.0 - a
    return np.insert(U, k + 1, u), T


def insertion_matrix(kv: KnotVector, new_knots) -> np.ndarray:
    """The product of the row-by-row Boehm matrices of the sorted ``new_knots``.

    At p >= 3 its bits are those of the BLAS kernel's products (FMA rounding),
    so it is a float cross-check of ``insert_knots``, not a bit pin."""
    U, T = kv.knots.copy(), np.eye(kv.n)
    for u in np.sort(np.asarray(new_knots, dtype=float)):
        U, T1 = single_insertion_matrix(U, kv.degree, float(u))
        T = T1 @ T
    return T


def discrete_bsplines(U, t, p: int, i: int, number=float) -> tuple[int, list]:
    """Row i of the matrix inserting knots U -> t, by the Oslo recursion one
    scalar at a time: (first column mu - p, the p + 1 values alpha_{mu-p..mu}).

    U_mu <= t_i < U_mu+1; alpha_mu = 1 at k = 0, then for k = 1 .. p and
    j = mu - k .. mu in turn, alpha_j = w_j alpha_j + (1 - w_j+1) alpha_j+1 with
    w_j = (t_i+k - U_j) / (U_j+k - U_j), and 0 where that denominator is 0.
    ``number=Fraction`` gives the exact row.
    """
    U, t = [number(float(x)) for x in U], [number(float(x)) for x in t]
    mu = bisect.bisect_right(U, t[i]) - 1

    def w(j, k):
        den = U[j + k] - U[j]
        return (t[i + k] - U[j]) / den if den > 0 else number(0)

    alpha = [number(0)] * (p + 2)  # alpha_{mu-p} .. alpha_{mu+1}
    alpha[p] = number(1)
    for k in range(1, p + 1):
        for r in range(p - k, p + 1):
            j = mu - p + r
            alpha[r] = w(j, k) * alpha[r] + (1 - w(j + 1, k)) * alpha[r + 1]
    return mu - p, alpha[: p + 1]


def elevate_bezier(hom: np.ndarray) -> np.ndarray:
    """Raise a homogeneous Bezier segment by one degree, one control point at a time."""
    n = hom.shape[0]
    out = np.empty((n + 1, hom.shape[1]))
    out[0] = hom[0]
    out[n] = hom[n - 1]
    for i in range(1, n):
        a = i / n
        out[i] = a * hom[i - 1] + (1.0 - a) * hom[i]
    return out


def refine_patch(patch: NurbsPatch) -> NurbsPatch:
    """Midpoint refinement of one patch: T_u and T_v applied to its homogeneous net."""
    kv_u, Tu = midpoint_refine(patch.basis.basis_u)
    kv_v, Tv = midpoint_refine(patch.basis.basis_v)
    w = patch.basis.weights
    hom = np.concatenate([patch.control_points * w[:, :, None], w[:, :, None]], axis=2)
    hom = np.einsum("ij,jbk->ibk", Tu.toarray(), hom)
    hom = np.einsum("ij,ajk->aik", Tv.toarray(), hom)
    w_new = hom[:, :, 3]
    cp_new = hom[:, :, :3] / w_new[:, :, None]
    return NurbsPatch(NurbsBasis2D(kv_u, kv_v, w_new), cp_new, patch.id)


def coo_csr(n: int, blocks) -> sp.csr_array:
    """Sorted, duplicate-free CSR matrix of element matrices (E, m, m) with their
    global indices (E, m), written to COO entries in block order; widths may mix."""
    rows = np.concatenate([np.broadcast_to(g[:, :, None], K.shape).ravel() for g, K in blocks])
    cols = np.concatenate([np.broadcast_to(g[:, None, :], K.shape).ravel() for g, K in blocks])
    vals = np.concatenate([K.ravel() for _, K in blocks])
    return sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()  # sums duplicates, sorts


def edge_entries(space: DgSpace, data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys r n + c and values of the kept edge entries of ``_edge_terms``, in
    block order, and the edge load."""
    return _edge_terms(space, data)


def edge_matrix(space: DgSpace, data) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix and load of the edge terms: the entries of ``_edge_terms``
    summed at their keys r n + c."""
    keys, values, load = edge_entries(space, data)
    n = space.total_dofs
    return np.bincount(keys, values, minlength=n * n).reshape(n, n), load


def assemble_volume(space: DgSpace, data) -> SparseSystem:
    """Patchwise diffusion stiffness and source load: ``assemble_system`` on the
    same patches with no edges, so no edge term enters, and the basis integrals
    when ``space``'s surface has no Dirichlet edge."""
    surface = space.surface
    bare = replace(space, surface=MultiPatchSurface(surface.patches, [], surface.alpha))
    system = assemble_system(bare, data)
    integrals = None if surface.has_dirichlet else system.basis_integrals
    return replace(system, basis_integrals=integrals)


def merged_system(space: DgSpace, data) -> SparseSystem:
    """``assemble_system`` by a merge after the fact: the edge keys summed in block
    order (``np.unique``, one bincount), the sums added into the volume's CSR where
    its pattern has the key (``searchsorted``), and the keys it lacks inserted
    (``np.insert``).  The reference for the pattern fixed before any value."""
    vol, (keys, values, rhs) = assemble_volume(space, data), edge_entries(space, data)
    n, A = space.total_dofs, vol.matrix
    pattern = np.repeat(np.arange(n, dtype=keys.dtype) * n, np.diff(A.indptr)) + A.indices
    keys, inverse = np.unique(keys, return_inverse=True)
    sums, at = np.bincount(inverse, values), np.searchsorted(pattern, keys)
    new = pattern.take(at, mode="clip") != keys
    A.data[at[~new]] += sums[~new]
    at, keys, dtype = at[new], keys[new], _index_dtype(max(n, A.nnz + np.count_nonzero(new)))
    indptr = A.indptr + np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    matrix = sp.csr_array((np.insert(A.data, at, sums[new]),
                           np.insert(A.indices.astype(dtype, copy=False), at, keys % n),
                           indptr.astype(dtype)), shape=(n, n))
    return SparseSystem(matrix, vol.rhs + rhs, vol.basis_integrals)
