"""Multi-patch NURBS surface geometry.

Patches map the unit square into R^3.  This module provides the first
fundamental form (metric, area density, tangential gradients), outward unit
conormals along patch edges, and the construction of a multi-patch surface
by geometric interface matching with matching-mesh verification.

One kernel, ``_tabulate``, evaluates the geometry on a tensor grid for a
stack of patches that share both knot vectors, by sum factorisation: the
homogeneous control net (x w, w), with c w for a coefficient grid, is
contracted with the 1D B-spline tables, first along the direction with fewer
output points (v on a tie, as on square volume grids; u on a west/east side,
so one u point is contracted instead of every control row).  The rational
basis is built only on request, from weight-free factors the volume
assembly uses directly.  ``tabulate_patches`` calls the kernel at the Gauss
points of a stack (``patch_stacks`` forms the stacks); ``tabulate_sides``
tabulates the Gauss points of many patch sides with one ``_side_grid`` call
per (fixed axis, knot vectors) group, which covers both opposite sides of
each patch ({0, 1} x ts or ts x {0, 1}), and writes each group's elements
straight to their slot-order rows, each flipped slot reversed.  A side
element carries only its trace window of 2(p+1) functions.  Conormal and
edge speed come from the kernel's J and g^-1, without cross products.
``match_interfaces`` takes its side samples through the same call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import panel_rules
from .splines import (
    KnotVector,
    NurbsBasis2D,
    breakpoints,
    eval_nurbs2d,
    midpoint_refine,
    tabulate,
)

__all__ = [
    "GeometryError",
    "TopologyError",
    "SingularMapError",
    "NurbsPatch",
    "SurfaceFrame",
    "Tabulation",
    "SideTabulation",
    "InterfaceEdge",
    "MultiPatchSurface",
    "SIDES",
    "frame_at",
    "surface_gradient",
    "conormal",
    "match_interfaces",
    "refine_surface",
    "patch_stacks",
    "tabulate_patches",
    "tabulate_sides",
]

SIDES = ("west", "east", "south", "north")

# Each side: (fixed axis, fixed value, edge direction in parameter space,
# outward parametric direction).
_SIDE_DATA = {
    "west": (0, 0.0, np.array([0.0, 1.0]), np.array([-1.0, 0.0])),
    "east": (0, 1.0, np.array([0.0, 1.0]), np.array([1.0, 0.0])),
    "south": (1, 0.0, np.array([1.0, 0.0]), np.array([0.0, -1.0])),
    "north": (1, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
}


class GeometryError(Exception):
    """Base class for geometry and topology failures."""


class TopologyError(GeometryError):
    """Interface matching or boundary tagging is inconsistent."""


class SingularMapError(GeometryError):
    """Patch parameterization is (numerically) singular."""


@dataclass(frozen=True)
class NurbsPatch:
    """One NURBS patch: rational basis plus a control net in R^3."""

    basis: NurbsBasis2D
    control_points: np.ndarray
    id: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "control_points", np.asarray(self.control_points, dtype=float)
        )
        n1, n2 = self.basis.shape
        if self.control_points.shape != (n1, n2, 3):
            raise ValueError(
                f"control net {self.control_points.shape} does not match basis {(n1, n2)}"
            )

    @property
    def degree(self) -> tuple[int, int]:
        return self.basis.basis_u.degree, self.basis.basis_v.degree

    def point(self, xi) -> np.ndarray:
        return frame_at(self, xi).point

    def side_knots(self, side: str) -> KnotVector:
        """Knot vector running along the given side."""
        axis = _SIDE_DATA[side][0]
        return self.basis.basis_v if axis == 0 else self.basis.basis_u

    def side_point(self, side: str, t: float) -> np.ndarray:
        return self.point(side_param(side, t))


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

    Raises SingularMapError when det(J^T J) falls below 1e-14.
    """
    vals, grads, (a1, a2) = eval_nurbs2d(patch.basis, xi)
    p1, p2 = vals.shape
    cp = patch.control_points[a1 : a1 + p1, a2 : a2 + p2]
    point = np.einsum("ab,abk->k", vals, cp)
    jac = np.einsum("abd,abk->kd", grads, cp)
    g = jac.T @ jac
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if det <= 1e-14:
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


@dataclass(frozen=True, kw_only=True)
class Tabulation:
    """First fundamental form, and on request the basis or a field, at many points.

    All arrays share the leading point axes: (P, nel_u, nel_v, q_u, q_v) on
    the grid of P stacked patches and (nel, q) from ``tabulate_sides``.  On
    a grid the local-basis axes (m1, m2) = (p1+1, p2+1) belong to the
    control-grid window starting at (first_u, first_v), integer arrays that
    broadcast against the point axes.  ``weights`` are the quadrature
    weights times the area element (patch) or the edge speed (side), and
    None on a plain grid.  ``factors`` (N_u, dN_u, N_v, dN_v, S, S_u, S_v)
    of the rational basis R = W N_u N_v / S (1D tables (nel, q, m), S on the
    point axes), ``values``/``grads`` (the basis) and ``field``/``field_grad``
    (a coefficient grid contracted like the geometry) are None unless asked.
    """

    points: np.ndarray  # (..., 3)
    jacobian: np.ndarray  # (..., 3, 2)
    inv_metric: np.ndarray  # (..., 2, 2)
    sqrt_det_g: np.ndarray  # (...)
    first_u: np.ndarray | None = None
    first_v: np.ndarray | None = None
    weights: np.ndarray | None = None
    factors: tuple | None = None
    values: np.ndarray | None = None  # (..., m1, m2); (nel, q, m) on sides
    grads: np.ndarray | None = None  # (..., m1, m2, 2), parametric; (nel, q, m, 2) on sides
    field: np.ndarray | None = None  # (...)
    field_grad: np.ndarray | None = None  # (..., 2), parametric

    def surface_gradient(self, pgrad: np.ndarray) -> np.ndarray:
        """Push parametric gradients (..., [m1, m2,] 2) forward to R^3: J g^-1 grad."""
        extra = (1,) * (pgrad.ndim - self.sqrt_det_g.ndim - 1)
        inv = self.inv_metric.reshape(self.sqrt_det_g.shape + extra + (2, 2))
        J = self.jacobian.reshape(self.sqrt_det_g.shape + extra + (3, 2))
        a = inv[..., 0, 0] * pgrad[..., 0] + inv[..., 0, 1] * pgrad[..., 1]
        b = inv[..., 1, 0] * pgrad[..., 0] + inv[..., 1, 1] * pgrad[..., 1]
        return np.stack([J[..., k, 0] * a + J[..., k, 1] * b for k in range(3)], axis=-1)


@dataclass(frozen=True, kw_only=True)
class SideTabulation(Tabulation):
    """Tabulation of the elements of many patch sides with their edge geometry.

    ``pid`` (nel, 1) holds each element's patch id; slot k owns elements
    ``starts[k]:starts[k + 1]``.  The basis covers m = 2(p+1) trace
    functions: ``dofs`` (nel, m) are their patch-local indices k2 n1 + k1.
    ``conormal`` is the outward unit conormal and ``speed`` the length of
    the mapped edge tangent, both (nel, q); ``chords`` (nel,) are the
    physical chord lengths of the edge elements.
    """

    conormal: np.ndarray
    speed: np.ndarray
    chords: np.ndarray
    pid: np.ndarray
    starts: np.ndarray
    dofs: np.ndarray | None = None


def _panel_table(kv: KnotVector, xs: np.ndarray):
    """1D table on (nel, q) panels whose points share a window: first (nel,), N, dN (nel, q, m)."""
    first, N, dN = tabulate(kv, xs)
    return first.reshape(xs.shape)[:, 0], N.reshape(*xs.shape, -1), dN.reshape(*xs.shape, -1)


def _contract(H: np.ndarray, first: np.ndarray, N: np.ndarray) -> np.ndarray:
    """One direction of sum factorisation, along axis 1 of H (P, n, ...).

    out[:, e * q + i] = sum over a of N[e, i, a] H[:, first[e] + a], as one
    batched matmul of the (nel, q, m) table with the gathered windows.
    """
    nel, q, m = N.shape
    windows = H[:, first[:, None] + np.arange(m)].reshape(H.shape[0], nel, m, -1)
    return (N @ windows).reshape(H.shape[0], nel * q, *H.shape[2:])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _window_weights(patches: list[NurbsPatch], tab: Tabulation) -> np.ndarray:
    """Control weights (P, nel_u, nel_v, m1, m2) on every element window of a grid with factors."""
    m1, m2 = tab.factors[0].shape[-1], tab.factors[2].shape[-1]
    iu = tab.first_u.reshape(-1)[:, None, None, None] + np.arange(m1)[:, None]
    iv = tab.first_v.reshape(-1)[None, :, None, None] + np.arange(m2)
    return np.stack([p.basis.weights for p in patches])[:, iu, iv]


def _rational_basis(patches: list[NurbsPatch], tab: Tabulation) -> Tabulation:
    """``tab`` with the rational basis N_u (x) N_v W / S on every element window of
    its ``factors`` (gradient by the quotient rule)."""
    Nu, dNu, Nv, dNv, S, Su, Sv = tab.factors
    W = _window_weights(patches, tab)[:, :, :, None, None]
    S, Su, Sv = S[..., None, None], Su[..., None, None], Sv[..., None, None]
    u, v = (lambda t: t[:, None, :, None, :, None]), (lambda t: t[None, :, None, :, None, :])
    values = u(Nu) * v(Nv) * W
    values /= S
    grads = np.empty(values.shape + (2,))
    for g, tu, tv, dS in ((grads[..., 0], dNu, Nv, Su), (grads[..., 1], Nu, dNv, Sv)):
        np.multiply(u(tu) * v(tv), W, out=g)
        g -= values * dS
        g /= S
    return replace(tab, values=values, grads=grads)


def _tabulate(patches: list[NurbsPatch], xs_u, xs_v, coeffs=None, basis=False) -> Tabulation:
    """Geometry of a stack of patches on the tensor grid xs_u x xs_v.

    The patches must share both knot vectors.  ``xs_u``/``xs_v`` are
    (nel, q) Gauss panels, whose q points lie in one span, or 1D point
    arrays (q = 1, each point with its own window, so the grid may contain
    knots and xi = 1, evaluated on the last non-empty span); point axes are
    (P, nel_u, nel_v, q_u, q_v).  Sum factorisation: the homogeneous
    control net (x w, w), with c w appended for the coefficient grids
    ``coeffs`` (P, n1, n2), is contracted with the 1D tables, first along
    the direction with fewer output points (v on a tie), giving the points,
    the Jacobian, S = sum N W and its derivatives; no per-point window of
    control points is gathered.  The metric and its inverse use closed
    forms.  ``basis`` adds the factors of the rational basis N_u N_v W / S.
    Raises SingularMapError, naming the patch, where det(J^T J) < 1e-14.
    """
    xs_u, xs_v = (np.asarray(x, dtype=float).reshape(len(x), -1) for x in (xs_u, xs_v))
    fu, Nu, dNu = _panel_table(patches[0].basis.basis_u, xs_u)
    fv, Nv, dNv = _panel_table(patches[0].basis.basis_v, xs_v)
    w = np.stack([p.basis.weights for p in patches])
    net = [np.stack([p.control_points for p in patches]) * w[..., None], w[..., None]]
    if coeffs is not None:
        net.append((coeffs * w)[..., None])
    H = np.concatenate(net, axis=-1)  # (P, n1, n2, c)
    # The direction with fewer output points goes first (the one u point of
    # a west/east side); ties, as on square volume grids, go v first.
    u_first = xs_u.size < xs_v.size
    (f1, N1, dN1), (f2, N2, dN2) = ((fu, Nu, dNu), (fv, Nv, dNv))[:: 1 if u_first else -1]
    T, T1 = (_contract(H if u_first else H.swapaxes(1, 2), f1, N).swapaxes(1, 2)
             for N in (N1, dN1))  # (P, n of the second direction, points of the first, c)
    A, A2, A1 = (_contract(X, f2, N) for X, N in ((T, N2), (T, dN2), (T1, N2)))
    shape = (len(patches), *xs_u.shape, *xs_v.shape, -1)
    A, Au, Av = (np.ascontiguousarray((X.swapaxes(1, 2) if u_first else X).reshape(shape)
                                      .swapaxes(2, 3))
                 for X in ((A, A1, A2) if u_first else (A, A2, A1)))
    del H, T, T1, A1, A2  # (P, nel_u, nel_v, q_u, q_v, c) remain
    # Per-component views keep every elementwise loop long (no tiny trailing axes).
    S, Su, Sv = A[..., 3], Au[..., 3], Av[..., 3]
    points = np.empty(S.shape + (3,))
    jac = np.empty(S.shape + (3, 2))
    for k in range(3):
        x = np.divide(A[..., k], S, out=points[..., k])
        for d, D, dS in ((0, Au, Su), (1, Av, Sv)):
            jd = np.subtract(D[..., k], x * dS, out=jac[..., k, d])
            jd /= S
    ju, jv = jac[..., 0], jac[..., 1]
    g00, g01, g11 = _dot(ju, ju), _dot(ju, jv), _dot(jv, jv)
    det = g00 * g11 - g01 * g01
    if not np.all(det > 1e-14):
        s, eu, ev, i, j = np.unravel_index(np.argmin(det), det.shape)
        raise SingularMapError(
            f"singular parameterization on patch {patches[s].id} at "
            f"xi=({xs_u[eu, i]:.6f}, {xs_v[ev, j]:.6f}) (det g={det[s, eu, ev, i, j]:.3e})"
        )
    inv = np.empty(det.shape + (2, 2))
    for (r, c), g in (((0, 0), g11), ((0, 1), -g01), ((1, 0), -g01), ((1, 1), g00)):
        np.divide(g, det, out=inv[..., r, c])
    extra = {}
    if coeffs is not None:
        u = extra["field"] = A[..., 4] / S
        grad = extra["field_grad"] = np.empty(S.shape + (2,))
        for d, D, dS in ((0, Au, Su), (1, Av, Sv)):
            np.subtract(D[..., 4], u * dS, out=grad[..., d])
            grad[..., d] /= S
    if basis:
        extra["factors"] = (Nu, dNu, Nv, dNv, *map(np.ascontiguousarray, (S, Su, Sv)))
    return Tabulation(
        first_u=fu[:, None, None, None], first_v=fv[:, None, None], points=points,
        jacobian=jac, inv_metric=inv, sqrt_det_g=np.sqrt(det), **extra,
    )


def _knot_key(basis: NurbsBasis2D) -> tuple:
    return basis.basis_u, basis.basis_v


# Largest number of elements a stacked volume or error pass tabulates at once
# when it holds several patches.  A patch with more elements forms a stack of
# its own, however large, so this bounds the memory of multi-patch stacks only.
STACK_ELEMENTS = 128


def patch_stacks(patches: list[NurbsPatch]) -> list[list[int]]:
    """Patch ids grouped by both knot vectors, each group cut into stacks of
    at most STACK_ELEMENTS elements (and at least one patch)."""
    groups: dict = {}
    for pid, patch in enumerate(patches):
        groups.setdefault(_knot_key(patch.basis), []).append(pid)
    stacks = []
    for members in groups.values():
        b = patches[members[0]].basis
        size = max(1, STACK_ELEMENTS // (b.basis_u.num_elements * b.basis_v.num_elements))
        stacks += [members[k : k + size] for k in range(0, len(members), size)]
    return stacks


def tabulate_patches(patches: list[NurbsPatch], q: int, coeffs=None, basis=False) -> Tabulation:
    """``_tabulate`` at the q x q Gauss points of every element of a stack.

    Point axes are (P, nel_u, nel_v, q, q); ``weights`` integrate over the
    mapped patches.
    """
    b = patches[0].basis
    xu, wu = panel_rules(breakpoints(b.basis_u), q)
    xv, wv = panel_rules(breakpoints(b.basis_v), q)
    tab = _tabulate(patches, xu, xv, coeffs, basis)
    return replace(tab, weights=wu[:, None, :, None] * wv[:, None, :] * tab.sqrt_det_g)


def _side_grid(patches: list[NurbsPatch], axis: int, ts: np.ndarray, coeffs=None,
               basis=False) -> Tabulation:
    """``_tabulate`` of a stack on both sides across ``axis``: the grid {0, 1} x ts
    (axis 0: west, east) or ts x {0, 1} (axis 1: south, north).

    The basis is only the trace window: the 2 functions nearest each side
    across it, times p+1 along it.  Cox-de Boor gives exact zeros at the end
    knots of an open knot vector, so every other function has zero value
    and zero normal derivative on the side, exactly.
    """
    ends = np.array([0.0, 1.0])
    tab = _tabulate(patches, *((ends, ts) if axis == 0 else (ts, ends)), coeffs, basis)
    if not basis:
        return tab
    factors, name = list(tab.factors), ("first_u", "first_v")[axis]
    m = factors[2 * axis].shape[-1]
    for k in (2 * axis, 2 * axis + 1):  # the table across the sides: 2 functions per end
        factors[k] = np.stack([factors[k][0, :, :2], factors[k][1, :, m - 2:]])
    first = getattr(tab, name)
    first = first + np.array([0, m - 2]).reshape(first.shape)
    return _rational_basis(patches, replace(tab, factors=tuple(factors), **{name: first}))


def _side_pass(patches, pid, axis: int, f, flip, bp, q: int, coeffs) -> dict:
    """The elements of the slots (pid, f, flip), whose sides share the fixed
    axis and whose patches share both knot vectors (f is 1 on the east or
    north side), from one ``_side_grid`` call over their distinct patches."""
    stack, s = np.unique(pid, return_inverse=True)
    ts, wt = panel_rules(bp, q)
    nel, n, basis = bp.size - 1, ts.size, coeffs is None
    grid = _side_grid([patches[k] for k in stack], axis, np.concatenate([ts.ravel(), bp]),
                      None if basis else np.stack([coeffs[k] for k in stack]), basis)
    # Point j of side f of stack patch s lies at s * 2 N + f * sf + j * sj.
    lead, N = grid.sqrt_det_g.shape, n + bp.size
    sf, sj = (N, 1) if axis == 0 else (1, 2)
    base = (s * 2 * N + f * sf)[:, None]
    # A flipped slot runs against its side's parameter: elements and points reversed.
    j = np.where(flip[:, None], np.arange(n)[::-1], np.arange(n))
    at = (base + j * sj).reshape(-1, q)
    out = {}
    for name in ("points", "jacobian", "inv_metric", "sqrt_det_g", "field", "field_grad"):
        a = getattr(grid, name)
        if a is not None:
            out[name] = a.reshape(-1, *a.shape[len(lead):])[at]
    if basis:
        m1, m2 = grid.values.shape[-2:]
        out["values"] = grid.values.reshape(-1, m1 * m2)[at]
        out["grads"] = grid.grads.reshape(-1, m1 * m2, 2)[at]
        fu, fv = (np.broadcast_to(a, lead).reshape(-1)[at[:, 0], None, None]
                  for a in (grid.first_u, grid.first_v))
        k2 = (fv + np.arange(m2)) * patches[stack[0]].basis.shape[0]  # k2 n1
        out["dofs"] = (k2 + fu + np.arange(m1)[:, None]).reshape(-1, m1 * m2)
    jac, inv = out["jacobian"], out["inv_metric"]
    tangent = jac[..., 1 - axis]
    out["speed"] = np.sqrt(_dot(tangent, tangent))
    # J g^-1 e_axis is tangent to the surface, orthogonal to the edge and of
    # length sqrt(g^-1)_axis,axis; its sign points out of the patch.
    scale = np.repeat(2.0 * f - 1.0, nel)[:, None] / np.sqrt(inv[..., axis, axis])
    out["conormal"] = (jac[..., 0] * (inv[..., 0, axis] * scale)[..., None]
                       + jac[..., 1] * (inv[..., 1, axis] * scale)[..., None])
    out["weights"] = wt.ravel()[j].reshape(-1, q) * out["speed"]
    ends = np.where(flip[:, None], np.arange(nel + 1)[::-1], np.arange(nel + 1))
    X = grid.points.reshape(-1, 3)[base + (n + ends) * sj]
    out["chords"] = np.linalg.norm(np.diff(X, axis=1), axis=-1).reshape(-1)
    return out


def tabulate_sides(patches: list[NurbsPatch], slots, q: int, coeffs=None) -> SideTabulation:
    """Trace basis, or a field, and edge geometry at the q Gauss points of many sides' elements.

    ``slots`` lists (pid, side, flip); the element axis runs over the
    slots' elements in slot order, and a flipped slot is traversed against
    its side's parameter (elements and points reversed).  Slots whose
    sides share the fixed axis and whose patches share both knot vectors
    form a group: one ``_side_grid`` call covers both opposite sides of its
    patches, and its rows go straight to their slot-order positions.
    ``coeffs``, one (n1, n2) coefficient grid per patch, gives the field and
    its parametric gradient instead of the basis.
    """
    if not slots:
        raise ValueError("tabulate_sides needs at least one slot")
    pid, side, flip = (np.array(c) for c in zip(*slots))
    axis = np.isin(side, ("south", "north")).astype(int)
    f = np.isin(side, ("east", "north")).astype(int)
    # Group keys from one knot-signature id per patch, computed once per call.
    signatures: dict = {}
    sig = np.array([signatures.setdefault(_knot_key(p.basis), len(signatures)) for p in patches])
    _, group = np.unique(axis * len(signatures) + sig[pid], return_inverse=True)
    groups = [np.flatnonzero(group == g) for g in range(group.max() + 1)]
    bps = [breakpoints(patches[pid[k[0]]].side_knots(slots[k[0]][1])) for k in groups]
    nel = np.array([bp.size - 1 for bp in bps])[group]
    starts = np.concatenate([[0], np.cumsum(nel)])
    arrays: dict = {}
    for members, bp in zip(groups, bps):
        rows = (starts[members, None] + np.arange(bp.size - 1)).reshape(-1)
        part = _side_pass(patches, pid[members], axis[members[0]], f[members], flip[members],
                          bp, q, coeffs)
        for name, a in part.items():
            if name not in arrays:
                arrays[name] = np.empty((starts[-1], *a.shape[1:]), dtype=a.dtype)
            arrays[name][rows] = a
    return SideTabulation(pid=np.repeat(pid, nel)[:, None], starts=starts, **arrays)


@dataclass(frozen=True)
class InterfaceEdge:
    """One edge of the patch decomposition: interior, Dirichlet or Neumann.

    ``left``/``right`` are (patch id, side) pairs; boundary edges have no
    right slot.  ``orientation_flip`` records whether the right side's edge
    parameter runs opposite to the left's.
    """

    kind: str  # "interior" | "dirichlet" | "neumann"
    left: tuple[int, str]
    right: tuple[int, str] | None = None
    orientation_flip: bool = False

    def partner_t(self, t: float) -> float:
        """Right-side edge coordinate matching the left-side coordinate t."""
        return 1.0 - t if self.orientation_flip else t


@dataclass
class MultiPatchSurface:
    """Non-overlapping patches, their edge topology and per-patch diffusion."""

    patches: list[NurbsPatch]
    edges: list[InterfaceEdge]
    alpha: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.alpha is None:
            self.alpha = np.ones(len(self.patches))
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (len(self.patches),):
            raise ValueError("need one diffusion coefficient per patch")
        if np.any(self.alpha <= 0.0):
            raise ValueError("diffusion coefficients must be positive")

    @property
    def num_patches(self) -> int:
        return len(self.patches)

    def edges_of_kind(self, kind: str) -> list[InterfaceEdge]:
        return [e for e in self.edges if e.kind == kind]

    @property
    def has_dirichlet(self) -> bool:
        return any(e.kind == "dirichlet" for e in self.edges)

    def area(self, q: int = 4) -> float:
        return sum(float(np.sum(tabulate_patches([p], q).weights)) for p in self.patches)


def _knots_match(kv_a: KnotVector, kv_b: KnotVector, flip: bool, tol: float = 1e-12) -> bool:
    if kv_a.degree != kv_b.degree or kv_a.n != kv_b.n:
        return False
    kb = kv_b.knots if not flip else 1.0 - kv_b.knots[::-1]
    return bool(np.max(np.abs(kv_a.knots - kb)) <= tol)


def _check_matching_mesh(patches: list[NurbsPatch], left, right, flip: bool) -> None:
    kv_l = patches[left[0]].side_knots(left[1])
    kv_r = patches[right[0]].side_knots(right[1])
    if not _knots_match(kv_l, kv_r, flip):
        raise TopologyError(
            f"non-matching meshes unsupported: knot vectors differ on interface {left} / {right}"
        )


def match_interfaces(
    patches: list[NurbsPatch],
    tags: dict[tuple[int, str], str] | None = None,
    alpha=None,
    tol: float = 1e-8,
) -> MultiPatchSurface:
    """Pair patch sides into interior edges and classify the rest by tag.

    Sides are paired when their traced physical curves coincide at 5 sample
    parameters within ``tol`` (both orientations are tried).  Remaining
    sides must carry a ``dirichlet`` or ``neumann`` tag; an untagged side
    whose curve matches nothing raises TopologyError.  Paired sides must
    have equal knot vectors up to orientation reversal (matching meshes),
    otherwise TopologyError("non-matching meshes ...") is raised.
    """
    for i, patch in enumerate(patches):
        if patch.id != i:
            raise TopologyError(f"patch ids must equal list positions, got {patch.id} at {i}")
    tags = dict(tags or {})
    for (pid, side), tag in tags.items():
        if not 0 <= pid < len(patches) or side not in SIDES:
            raise TopologyError(f"tag references unknown patch side ({pid}, {side})")
        if tag not in ("dirichlet", "neumann"):
            raise TopologyError(f"unknown boundary tag {tag!r}")

    # The t = 1/2 sample is the same in both orientations, and a pair that
    # matches within tol has midpoints within tol in x; only sides in that
    # window are compared.  The window is widened to 2*tol so rounding in its
    # bounds never drops a candidate; the 5-sample test decides.
    ts = np.linspace(0.0, 1.0, 5)
    all_sides = [(p.id, side) for p in patches for side in SIDES]
    samples = np.empty((len(patches), 2, 2, ts.size, 3))  # in SIDES order per patch
    for stack in patch_stacks(patches):
        for axis in (0, 1):
            X = _side_grid([patches[pid] for pid in stack], axis, ts).points
            samples[stack, axis] = (X.reshape(len(stack), 2, -1, 3) if axis == 0
                                    else X.reshape(len(stack), -1, 2, 3).swapaxes(1, 2))
    samples = samples.reshape(len(all_sides), ts.size, 3)
    mid_x = samples[:, ts.size // 2, 0]
    order = np.argsort(mid_x, kind="stable")
    lo = np.searchsorted(mid_x[order], mid_x - 2.0 * tol, side="left")
    hi = np.searchsorted(mid_x[order], mid_x + 2.0 * tol, side="right")
    partner: dict[tuple[int, str], tuple[tuple[int, str], bool]] = {}

    for a, sa in enumerate(all_sides):
        if sa in partner:
            continue
        cand = np.sort(order[lo[a] : hi[a]])
        cand = cand[cand > a]
        A, B = samples[a], samples[cand]
        straight = np.max(np.linalg.norm(A - B, axis=2), axis=1)
        reversed_ = np.max(np.linalg.norm(A - B[:, ::-1], axis=2), axis=1)
        for b, st, rv in zip(cand, straight, reversed_):
            sb = all_sides[b]
            if sb in partner or min(st, rv) > tol:
                continue
            if sa in partner:
                raise TopologyError(f"side {sb} matches more than one side")
            flip = bool(rv < st)
            partner[sa] = (sb, flip)
            partner[sb] = (sa, flip)

    edges: list[InterfaceEdge] = []
    seen: set[tuple[int, str]] = set()
    for s in all_sides:
        if s in seen:
            continue
        if s in partner:
            other, flip = partner[s]
            seen.update((s, other))
            if s in tags or other in tags:
                raise TopologyError(f"boundary tag on interior side {s if s in tags else other}")
            _check_matching_mesh(patches, s, other, flip)
            edges.append(InterfaceEdge("interior", s, other, flip))
        else:
            seen.add(s)
            if s not in tags:
                raise TopologyError(
                    f"patch side {s} matches no neighbor and carries no boundary tag"
                )
            edges.append(InterfaceEdge(tags[s], s))

    return MultiPatchSurface(list(patches), edges, alpha)


def _refine_patch(patch: NurbsPatch) -> NurbsPatch:
    kv_u, Tu = midpoint_refine(patch.basis.basis_u)
    kv_v, Tv = midpoint_refine(patch.basis.basis_v)
    w = patch.basis.weights
    hom = np.concatenate([patch.control_points * w[:, :, None], w[:, :, None]], axis=2)
    hom = np.einsum("ij,jbk->ibk", Tu, hom)
    hom = np.einsum("ij,ajk->aik", Tv, hom)
    w_new = hom[:, :, 3]
    cp_new = hom[:, :, :3] / w_new[:, :, None]
    return NurbsPatch(NurbsBasis2D(kv_u, kv_v, w_new), cp_new, patch.id)


def refine_surface(surface: MultiPatchSurface) -> MultiPatchSurface:
    """Global midpoint h-refinement of every patch (meshes stay matching).

    Knot insertion changes neither the geometry nor the topology, so the
    edges carry over; each interior edge's knot vectors are checked again.
    """
    patches = [_refine_patch(p) for p in surface.patches]
    for e in surface.edges_of_kind("interior"):
        _check_matching_mesh(patches, e.left, e.right, e.orientation_flip)
    return MultiPatchSurface(patches, list(surface.edges), surface.alpha.copy())
