"""Multi-patch NURBS surface geometry.

Patches map the unit square into R^3.  This module provides the first
fundamental form (metric, area density, tangential gradients), outward unit
conormals along patch edges, and the construction of a multi-patch surface
by geometric interface matching with matching-mesh verification.

All of it comes from one kernel, ``tabulate_grid``: the geometry of a
stack of patches that share both knot vectors, on a tensor grid of
parameter points (one point is a 1 x 1 grid), by sum factorisation.  The
homogeneous control net (x w, w), with c w for a coefficient grid, is
contracted with the 1D B-spline tables, first along the direction with fewer
output points (v on a tie, as on square volume grids; u on a west/east side,
so one u point is contracted instead of every control row), with the
channel axis innermost (for one-point panels numpy's matmul calls BLAS gemv,
whose rounding depends on an entry's position).  Every per-point quantity
is formed once, on contiguous arrays whose component axes come first; basis
tables keep their function axes last.  A grid carries the weight-free
factors the volume assembly uses; the rational basis is built from them.
``tabulate_patches`` cuts a stack into the work units of the volume and
error passes, runs of its u-element rows, each tabulated at its Gauss points
bit for bit as that slice of the whole, after one set-up per stack (the
contraction order, the 1D tables and the weights).  One budget,
``STACK_BYTES``, sizes both: ``patch_stacks`` cuts knot groups into stacks
by their volume X batch, and a unit's largest error-pass array fits it.
``tabulate_sides`` tabulates the Gauss points of many patch sides with one
``tabulate_grid`` call per (fixed axis, knot vectors) group on {0, 1} x ts
or ts x {0, 1}, which covers both opposite sides of each patch, and writes
each group's elements straight to their slot-order rows, each flipped slot
reversed.  A side element carries only its trace window of 2(p+1) functions,
or a field's values alone.  Conormal and edge speed come from the kernel's J
and g^-1, without cross products.  ``match_interfaces`` reads a patch's four
sides from the rims of one ts x ts grid per knot group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import panel_rules
from .splines import (
    KnotVector,
    NurbsBasis2D,
    midpoint_refine,
    tabulate,
)

__all__ = [
    "GeometryError",
    "TopologyError",
    "SingularMapError",
    "NurbsPatch",
    "Tabulation",
    "SideTabulation",
    "InterfaceEdge",
    "MultiPatchSurface",
    "SIDES",
    "match_interfaces",
    "refine_surface",
    "knot_groups",
    "patch_stacks",
    "tabulate_grid",
    "tabulate_patches",
    "tabulate_sides",
]

SIDES = ("west", "east", "south", "north")

MATCH_TOL = 1e-8  # largest distance, over the surface's extent, at which two sides coincide
# Each side: (fixed axis, fixed value).
_SIDE_DATA = {"west": (0, 0.0), "east": (0, 1.0), "south": (1, 0.0), "north": (1, 1.0)}
# The component axes in front of each tabulated array's point axes (none if not named).
COMPONENT_AXES = dict(points=1, jacobian=2, inv_metric=2, grads=1, field_grad=1, conormal=1)


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
    id: int

    def __post_init__(self):
        object.__setattr__(
            self, "control_points", np.asarray(self.control_points, dtype=float)
        )
        n1, n2 = self.basis.shape
        if self.control_points.shape != (n1, n2, 3):
            raise ValueError(
                f"control net {self.control_points.shape} does not match basis {(n1, n2)}"
            )
        if not np.all(np.isfinite(self.control_points)):
            raise ValueError("control points must be finite")

    @property
    def degree(self) -> tuple[int, int]:
        return self.basis.basis_u.degree, self.basis.basis_v.degree

    def side_knots(self, side: str) -> KnotVector:
        """Knot vector running along the given side."""
        axis = _SIDE_DATA[side][0]
        return self.basis.basis_v if axis == 0 else self.basis.basis_u

    def side_point(self, side: str, t: float) -> np.ndarray:
        """Mapped point of a side at side coordinate t in [0, 1]."""
        axis, value = _SIDE_DATA[side]
        grid = ([value], [t]) if axis == 0 else ([t], [value])
        return tabulate_grid([self], *grid).points.reshape(3)


@dataclass(frozen=True, kw_only=True)
class Tabulation:
    """First fundamental form, and on request the basis or a field, at many points.

    C-contiguous arrays, component axes first, then the point axes: (P, nu,
    nv) on the grid of P stacked patches (u point e q_u + i in element e) and
    (nel, q) from ``tabulate_sides``.  On a grid the basis functions (m1, m2)
    = (p1+1, p2+1) of a point belong to the control-grid window starting at
    (first_u, first_v), integer arrays (nu, 1) and (nv,).  ``weights`` are the
    quadrature weights times the area element (patch) or the edge speed
    (side), and None on a plain grid.  A grid has the ``factors`` (N_u, dN_u, N_v, dN_v,
    S, S_u, S_v, W) of the rational basis R = W N_u N_v / S (1D tables (nel, q, m), S on the
    point axes, control weights W (P, n1, n2)).  Only on request (else None): ``values``/
    ``grads`` (the basis) and ``field``/``field_grad`` (a coefficient grid, like the geometry).
    """

    points: np.ndarray  # (3, ...)
    jacobian: np.ndarray | None = None  # (3, 2, ...); None only on a side field tabulation
    inv_metric: np.ndarray | None = None  # (2, 2, ...); None there too
    sqrt_det_g: np.ndarray | None = None  # (...); None on every side tabulation
    first_u: np.ndarray | None = None
    first_v: np.ndarray | None = None
    weights: np.ndarray | None = None
    factors: tuple | None = None
    values: np.ndarray | None = None  # (..., m1, m2); (nel, q, m) on sides
    grads: np.ndarray | None = None  # (2, ..., m1, m2), parametric; (2, nel, q, m) on sides
    field: np.ndarray | None = None  # (...)
    field_grad: np.ndarray | None = None  # (2, ...), parametric

    def surface_gradient(self, pgrad: np.ndarray) -> np.ndarray:
        """Push parametric gradients (2, ...[, m1, m2]) forward to R^3: J g^-1 grad."""
        shape = self.points.shape[1:] + (1,) * (pgrad.ndim - self.points.ndim)
        inv, J = self.inv_metric.reshape(2, 2, *shape), self.jacobian.reshape(3, 2, *shape)
        a = inv[0, 0] * pgrad[0] + inv[0, 1] * pgrad[1]
        b = inv[1, 0] * pgrad[0] + inv[1, 1] * pgrad[1]
        out = J[:, 0] * a
        out += J[:, 1] * b  # in place: one full-size temporary fewer
        return out


@dataclass(frozen=True, kw_only=True)
class SideTabulation(Tabulation):
    """Tabulation of the elements of many patch sides with their edge geometry.

    ``pid`` (nel, 1) holds each element's patch id; slot k owns elements
    ``starts[k]:starts[k + 1]``.  The basis covers m = 2(p+1) trace
    functions: ``dofs`` (nel, m) are their patch-local indices k2 n1 + k1.
    ``conormal`` (3, nel, q) is the outward unit conormal, None with the J and
    g^-1 fields on a field tabulation; ``weights`` carry the length of the
    mapped edge tangent, ``chords`` (nel,) the elements' physical chords.
    """

    conormal: np.ndarray | None = None
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
    batched matmul of the (nel, q, m) table with the windows, gathered by
    ``np.take`` (faster here than fancy indexing).
    """
    nel, q, m = N.shape
    windows = np.take(H, first[:, None] + np.arange(m), axis=1).reshape(H.shape[0], nel, m, -1)
    return (N @ windows).reshape(H.shape[0], nel * q, *H.shape[2:])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _elements(a: np.ndarray, q_u: int, q_v: int) -> np.ndarray:
    """The trailing grid axes (nu, nv) of ``a`` as elements (nel_u, nel_v, q_u, q_v), a view."""
    *lead, nu, nv = a.shape
    return a.reshape(*lead, nu // q_u, q_u, nv // q_v, q_v).swapaxes(-3, -2)


def _window_weights(W: np.ndarray, first_u, first_v, m1: int, m2: int) -> np.ndarray:
    """W (P, n1, n2) on the windows at (first_u, first_v): (P, nu, nv, m1, m2), C-contiguous."""
    iu = first_u[:, None, None, None] + np.arange(m1)[:, None]
    iv = first_v[None, :, None, None] + np.arange(m2)
    return np.take(W.reshape(len(W), -1), iu * W.shape[2] + iv, axis=1)


def _rational_basis(tab: Tabulation) -> Tabulation:
    """``tab`` with the rational basis N_u (x) N_v W / S on every point's window
    of its ``factors`` (gradient by the quotient rule)."""
    Nu, dNu, Nv, dNv = (t.reshape(-1, t.shape[-1]) for t in tab.factors[:4])  # (points, m)
    W = _window_weights(tab.factors[7], tab.first_u.ravel(), tab.first_v, Nu.shape[1], Nv.shape[1])
    S, Su, Sv = (a[..., None, None] for a in tab.factors[4:7])
    u, v = (lambda t: t[:, None, :, None]), (lambda t: t[:, None, :])
    values = W * (u(Nu) * v(Nv))  # in W's C order
    values /= S
    grads = np.empty((2,) + values.shape)
    for g, tu, tv, dS in ((grads[0], dNu, Nv, Su), (grads[1], Nu, dNv, Sv)):
        np.multiply(u(tu) * v(tv), W, out=g)
        g -= values * dS
        g /= S
    return replace(tab, values=values, grads=grads)


def _grid_setup(patches: list[NurbsPatch], xs_u, xs_v) -> tuple:
    """The per-grid work of ``tabulate_grid``, done once for all its runs: the
    (nel, q) panels, the contraction order, the 1D tables and the weights W."""
    xs_u, xs_v = (np.asarray(x, dtype=float).reshape(len(x), -1) for x in (xs_u, xs_v))
    # The direction with fewer output points goes first (the one u point of
    # a west/east side); ties, as on square volume grids, go v first.
    b = patches[0].basis
    return (xs_u, xs_v, xs_u.size < xs_v.size, _panel_table(b.basis_u, xs_u),
            _panel_table(b.basis_v, xs_v), np.stack([p.basis.weights for p in patches]))


def _tabulate_run(patches: list[NurbsPatch], grid: tuple, rows: slice, coeffs,
                  rule=None) -> Tabulation:
    """``tabulate_grid`` on the run ``rows`` of u panels of a ``_grid_setup`` grid,
    equal to that slice of the whole grid's tabulation bit for bit: the run's 1D
    tables are slices of the grid's, and the net is cut to the control rows that
    the run's windows cover (``first_u`` still counts the whole net's rows, and W
    is the whole net's).  ``rule``, the 1D Gauss weights of the run's u panels
    and of the v panels, times sqrt(det g) gives ``weights``."""
    xs_u, xs_v, u_first, table_u, (fv, Nv, dNv), w = grid
    xs_u, (fu, Nu, dNu) = xs_u[rows], (t[rows] for t in table_u)
    cut = slice(fu.min(), fu.max() + Nu.shape[-1])
    wc = w[:, cut, :, None]
    net = [np.stack([p.control_points[cut] for p in patches]) * wc, wc]
    if coeffs is not None:
        net.append(coeffs[:, cut, :, None] * wc)
    H = np.concatenate(net, axis=-1)  # (P, control rows of the run, n2, c)
    tables = (fu - cut.start, Nu, dNu), (fv, Nv, dNv)
    (f1, N1, dN1), (f2, N2, dN2) = tables[:: 1 if u_first else -1]
    T, T1 = (_contract(H if u_first else H.swapaxes(1, 2), f1, N).swapaxes(1, 2)
             for N in (N1, dN1))  # (P, n of the second direction, points of the first, c)
    del H
    # A = sum N (x w, w, c w) and its u and v derivatives, one channel-innermost (P, nu,
    # nv, c) array at a time, each channel read once into contiguous arrays: S = A_w, the
    # quotients Q = (x, c) = A / S and their derivatives dQ = (dA - Q dS) / S.
    shape, channels = (len(patches), xs_u.size, xs_v.size), [0, 1, 2] + [4] * (coeffs is not None)
    Q, dQ, S = np.empty((len(channels),) + shape), np.empty((len(channels), 2) + shape), []
    for d, (X, N) in enumerate(((T, N2), (T1, N2), (T, dN2)) if u_first
                               else ((T, N2), (T, dN2), (T1, N2))):
        A = _contract(X, f2, N).swapaxes(1, 2) if u_first else _contract(X, f2, N)
        S.append(np.ascontiguousarray(A[..., 3]))
        for j, c in enumerate(channels):
            if d == 0:
                np.divide(A[..., c], S[0], out=Q[j])
            else:
                dq = np.subtract(A[..., c], Q[j] * S[d], out=dQ[j, d - 1])
                dq /= S[0]
    del T, T1, A  # their memory serves the metric
    extra = {} if coeffs is None else dict(field=Q[3], field_grad=dQ[3])
    ju, jv = dQ[:3, 0], dQ[:3, 1]
    g00, g01, g11 = _dot(ju, ju), _dot(ju, jv), _dot(jv, jv)
    det = g00 * g11 - g01 * g01
    regular = det > 1e-14 * g00 * g11
    if not np.all(regular):
        em = _elements(regular, xs_u.shape[1], xs_v.shape[1])
        s, eu, ev, i, j = np.unravel_index(np.argmin(em), em.shape)
        raise SingularMapError(
            f"singular parameterization on patch {patches[s].id} at "
            f"xi=({xs_u[eu, i]:.6f}, {xs_v[ev, j]:.6f}) (det g <= 1e-14 g_00 g_11)"
        )
    inv = np.empty((2, 2) + det.shape)
    for (r, c), g in (((0, 0), g11), ((0, 1), -g01), ((1, 0), -g01), ((1, 1), g00)):
        np.divide(g, det, out=inv[r, c])
    sqrt_det_g = np.sqrt(det)
    return Tabulation(
        first_u=np.repeat(fu, xs_u.shape[1])[:, None], first_v=np.repeat(fv, xs_v.shape[1]),
        points=Q[:3], jacobian=dQ[:3], inv_metric=inv, sqrt_det_g=sqrt_det_g,
        weights=None if rule is None else rule[0].reshape(-1, 1) * rule[1].reshape(-1) * sqrt_det_g,
        factors=(Nu, dNu, Nv, dNv, *S, w), **extra,
    )


def tabulate_grid(patches: list[NurbsPatch], xs_u, xs_v, coeffs=None) -> Tabulation:
    """Geometry of a stack of patches on the tensor grid xs_u x xs_v.

    The patches must share both knot vectors.  ``xs_u``/``xs_v`` are
    (nel, q) Gauss panels, whose q points lie in one span, or 1D point
    arrays (q = 1, each point with its own window, so the grid may contain
    knots and xi = 1, evaluated on the last non-empty span); point axes are
    (P, nu, nv).  Sum factorisation: the homogeneous control net (x w, w),
    with c w appended for the coefficient grids ``coeffs`` (P, n1, n2), is
    contracted with the 1D tables, first along the direction with fewer
    output points (v on a tie), giving the points, the Jacobian, S = sum N W
    and its derivatives; no per-point window of control points is gathered.
    The metric and its inverse use closed forms.  Raises SingularMapError,
    naming the patch and the first point in element-major order where
    det(J^T J) <= 1e-14 g_00 g_11 (sin^2 of the tangents' angle, whatever the
    patch's size), and ValueError for a point outside [0, 1].
    """
    return _tabulate_run(patches, _grid_setup(patches, xs_u, xs_v), slice(None), coeffs)


def _knot_key(basis: NurbsBasis2D) -> tuple:
    return basis.basis_u, basis.basis_v


def knot_groups(patches: list[NurbsPatch]) -> list[list[int]]:
    """Patch ids grouped by both knot vectors, in order of first appearance."""
    groups: dict = {}
    for pid, patch in enumerate(patches):
        groups.setdefault(_knot_key(patch.basis), []).append(pid)
    return list(groups.values())


# Bytes of the volume X batch (elements x 2 q^2 (p+1)^2 doubles, q = p+1) one stack
# or X block may hold: 25 patches of 16 elements at p = 2, 128 elements at p = 3; a
# work unit's largest error-pass array has the same budget (``tabulate_patches``).
# 1 MB raised square-deep's peak RSS by 0.9% and 2 MB cli-cylinder's by 5.3% (CHANGES).
STACK_BYTES = 2**19


def patch_stacks(patches: list[NurbsPatch]) -> list[list[int]]:
    """``knot_groups`` cut into runs whose volume X batch fits STACK_BYTES (at least one patch)."""
    stacks = []
    for members in knot_groups(patches):
        b = patches[members[0]].basis
        m = (b.basis_u.degree + 1) * (b.basis_v.degree + 1)
        size = max(1, STACK_BYTES // (16 * m * m * b.basis_u.num_elements * b.basis_v.num_elements))
        stacks += [members[k : k + size] for k in range(0, len(members), size)]
    return stacks


def tabulate_patches(patches: list[NurbsPatch], q: int, coeffs=None):
    """The work units of a stack at the q x q Gauss points of its elements, shared by
    the volume and error passes: yields (rows, tab), ``tabulate_grid`` on each run
    ``rows`` of u-element rows, with ``weights`` integrating over the mapped patches.

    The Gauss rules and the grid's set-up are made once; each unit then costs
    only its rows.  A run's largest error-pass array, dQ (8 doubles at each of
    the (p+2)^2 points of an element), fits STACK_BYTES (read when iteration
    starts, at least one row), so at p >= 2 a stack of ``patch_stacks`` is one unit.
    """
    kv_u, kv_v = patches[0].basis.basis_u, patches[0].basis.basis_v
    (xu, wu), (xv, wv) = panel_rules(kv_u.breaks, q), panel_rules(kv_v.breaks, q)
    grid, nel = _grid_setup(patches, xu, xv), kv_u.num_elements
    element_bytes = 64 * (kv_u.degree + 2) * (kv_v.degree + 2)
    size = max(1, STACK_BYTES // (element_bytes * kv_v.num_elements * len(patches)))
    for a in range(0, nel, size):
        run = slice(a, min(a + size, nel))  # the unit is not held here between yields
        yield run, _tabulate_run(patches, grid, run, coeffs, (wu[run], wv))


def _trace_basis(tab: Tabulation, axis: int) -> Tabulation:
    """The rational basis of a side pass's grid on its trace window: the 2 functions nearest
    each side across ``axis``, times p+1 along it.  Cox-de Boor gives exact zeros at the end
    knots of an open knot vector: every other function and its normal derivative vanish there."""
    factors, name = list(tab.factors), ("first_u", "first_v")[axis]
    m = factors[2 * axis].shape[-1]
    for k in (2 * axis, 2 * axis + 1):  # the table across the sides: 2 functions per end
        factors[k] = np.stack([factors[k][0, :, :2], factors[k][1, :, m - 2:]])
    first = getattr(tab, name)
    first = first + np.array([0, m - 2]).reshape(first.shape)
    return _rational_basis(replace(tab, factors=tuple(factors), **{name: first}))


def _side_pass(patches, pid, axis: int, f, flip, bp, q: int, coeffs) -> dict:
    """The elements of the slots (pid, f, flip), whose sides share the fixed axis and whose
    patches share both knot vectors (f is 1 on the east or north side), from one
    ``tabulate_grid`` call over their distinct patches on {0, 1} x ts or ts x {0, 1}."""
    stack, s = np.unique(pid, return_inverse=True)
    ts, wt = panel_rules(bp, q)
    nel, n, basis = bp.size - 1, ts.size, coeffs is None
    xs = (np.array([0.0, 1.0]), np.concatenate([ts.ravel(), bp]))  # across, along the sides
    grid = tabulate_grid([patches[k] for k in stack], *(xs if axis == 0 else xs[::-1]),
                         None if basis else np.stack([coeffs[k] for k in stack]))
    if basis:
        grid = _trace_basis(grid, axis)
    # Point j of side f of stack patch s lies at s * 2 N + f * sf + j * sj.
    lead, N = grid.points.shape[1:], n + bp.size
    sf, sj = (N, 1) if axis == 0 else (1, 2)
    base = (s * 2 * N + f * sf)[:, None]
    # A flipped slot runs against its side's parameter: elements and points reversed.
    j = np.where(flip[:, None], np.arange(n)[::-1], np.arange(n))
    at = (base + j * sj).reshape(-1, q)
    names = ("points", "jacobian", "inv_metric") if basis else ("points", "field")
    arrays = [getattr(grid, name) for name in names] + [grid.jacobian[:, 1 - axis]]
    *gathered, tangent = (a.reshape(*a.shape[: a.ndim - 3], -1)[..., at] for a in arrays)
    out = dict(zip(names, gathered))
    out["weights"] = wt.ravel()[j].reshape(-1, q) * np.sqrt(_dot(tangent, tangent))
    if basis:
        m1, m2 = grid.values.shape[-2:]
        out["values"] = grid.values.reshape(-1, m1 * m2)[at]
        out["grads"] = grid.grads.reshape(2, -1, m1 * m2)[:, at]
        fu, fv = (np.broadcast_to(a, lead).reshape(-1)[at[:, 0], None, None]
                  for a in (grid.first_u, grid.first_v))
        k2 = (fv + np.arange(m2)) * patches[stack[0]].basis.shape[0]  # k2 n1
        out["dofs"] = (k2 + fu + np.arange(m1)[:, None]).reshape(-1, m1 * m2)
        jac, inv = out["jacobian"], out["inv_metric"]
        # J g^-1 e_axis is tangent to the surface, orthogonal to the edge and of
        # length sqrt(g^-1)_axis,axis; its sign points out of the patch.
        scale = np.repeat(2.0 * f - 1.0, nel)[:, None] / np.sqrt(inv[axis, axis])
        out["conormal"] = jac[:, 0] * (inv[0, axis] * scale) + jac[:, 1] * (inv[1, axis] * scale)
    ends = np.where(flip[:, None], np.arange(nel + 1)[::-1], np.arange(nel + 1))
    X = grid.points.reshape(3, -1)[:, base + (n + ends) * sj]
    out["chords"] = np.linalg.norm(np.diff(X, axis=-1), axis=0).reshape(-1)
    return out


def tabulate_sides(patches: list[NurbsPatch], slots, q: int, coeffs=None) -> SideTabulation:
    """Trace basis, or a field, and edge geometry at the q Gauss points of many sides' elements.

    ``slots`` lists (pid, side, flip); the element axis runs over the
    slots' elements in slot order, and a flipped slot is traversed against
    its side's parameter (elements and points reversed).  Slots whose
    sides share the fixed axis and whose patches share both knot vectors
    form a group: one ``tabulate_grid`` call covers both opposite sides of its
    patches, and its rows go straight to their slot-order positions.
    ``coeffs``, one (n1, n2) coefficient grid per patch, gives the field
    values instead of the basis.
    """
    if not slots:
        raise ValueError("tabulate_sides needs at least one slot")
    pid, side, flip = (np.array(c) for c in zip(*slots))
    axis, f = np.array([_SIDE_DATA[s] for s in side], dtype=int).T
    # Group keys (fixed axis, knot group of the slot's patch), computed once per call.
    knot_group = {p: g for g, members in enumerate(knot_groups(patches)) for p in members}
    _, group = np.unique(axis * len(patches) + [knot_group[p] for p in pid], return_inverse=True)
    groups = [np.flatnonzero(group == g) for g in range(group.max() + 1)]
    bps = [patches[pid[k[0]]].side_knots(slots[k[0]][1]).breaks for k in groups]
    nel = np.array([bp.size - 1 for bp in bps])[group]
    starts = np.concatenate([[0], np.cumsum(nel)])
    arrays: dict = {}
    for members, bp in zip(groups, bps):
        rows = (starts[members, None] + np.arange(bp.size - 1)).reshape(-1)
        part = _side_pass(patches, pid[members], axis[members[0]], f[members], flip[members],
                          bp, q, coeffs)
        for name, a in part.items():
            k = COMPONENT_AXES.get(name, 0)  # the element axis follows the component axes
            if name not in arrays:
                arrays[name] = np.empty((*a.shape[:k], starts[-1], *a.shape[k + 1:]), a.dtype)
            arrays[name][(slice(None),) * k + (rows,)] = a
        del part, a  # before the next group's pass
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


@dataclass
class MultiPatchSurface:
    """Non-overlapping patches, their edge topology and per-patch diffusion; patch ids
    are list positions, every edge is a known kind with a right side only when
    interior, names sides of its patches, none twice, and interior edges join
    matching meshes (else TopologyError).  A side may be in no edge."""

    patches: list[NurbsPatch]
    edges: list[InterfaceEdge]
    alpha: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.alpha is None:
            self.alpha = np.ones(len(self.patches))
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (len(self.patches),):
            raise ValueError("need one diffusion coefficient per patch")
        if not np.all(np.isfinite(self.alpha) & (self.alpha > 0.0)):
            raise ValueError("diffusion coefficients must be positive and finite")
        for i, patch in enumerate(self.patches):
            if patch.id != i:
                raise TopologyError(f"patch ids must equal list positions, got {patch.id} at {i}")
        named = set()
        for e in self.edges:
            if e.kind not in ("interior", "dirichlet", "neumann"):
                raise TopologyError(f"unknown edge kind {e.kind!r}")
            if (e.right is None) == (e.kind == "interior"):
                raise TopologyError(f"{e.kind} edge {e.left} with right side {e.right}")
            for pid, side in (s for s in (e.left, e.right) if s is not None):
                if side not in SIDES or not 0 <= pid < len(self.patches) or (pid, side) in named:
                    raise TopologyError(f"edge side ({pid}, {side}) is unknown or in two edges")
                named.add((pid, side))
        for e in self.edges_of_kind("interior"):  # knot vectors equal up to orientation
            kv_l, kv_r = (self.patches[pid].side_knots(side) for pid, side in (e.left, e.right))
            knots = 1.0 - kv_r.knots[::-1] if e.orientation_flip else kv_r.knots
            same = (kv_l.degree, kv_l.n) == (kv_r.degree, kv_r.n)
            if not (same and np.max(np.abs(kv_l.knots - knots)) <= 1e-12):
                raise TopologyError("non-matching meshes unsupported: knot vectors differ on "
                                    f"interface {e.left} / {e.right}")

    @property
    def num_patches(self) -> int:
        return len(self.patches)

    def edges_of_kind(self, kind: str) -> list[InterfaceEdge]:
        return [e for e in self.edges if e.kind == kind]

    @property
    def has_dirichlet(self) -> bool:
        return any(e.kind == "dirichlet" for e in self.edges)


def match_interfaces(
    patches: list[NurbsPatch],
    tags: dict[tuple[int, str], str] | None = None,
    alpha=None,
) -> MultiPatchSurface:
    """Pair patch sides into interior edges and classify the rest by tag.

    Sides are paired when their traced physical curves coincide at 5 sample
    parameters within MATCH_TOL times the surface's extent, the largest side
    of the samples' bounding box (both orientations are tried).  Remaining
    sides must carry a ``dirichlet`` or ``neumann`` tag; an untagged side
    whose curve matches nothing raises TopologyError, before the surface
    checks its patch ids and matching meshes.
    """
    tags = dict(tags or {})
    for (pid, side), tag in tags.items():
        if not 0 <= pid < len(patches) or side not in SIDES:
            raise TopologyError(f"tag references unknown patch side ({pid}, {side})")
        if tag not in ("dirichlet", "neumann"):
            raise TopologyError(f"unknown boundary tag {tag!r}")

    # The t = 1/2 sample is the same in both orientations, and a pair that
    # matches within tol has midpoints within tol in x; only sides in that
    # window are compared.  The window is widened to 2 tol so rounding in its
    # bounds never drops a candidate; the 5-sample test decides.
    ts = np.linspace(0.0, 1.0, 5)
    all_sides = [(pid, side) for pid in range(len(patches)) for side in SIDES]
    samples = np.empty((len(patches), len(SIDES), ts.size, 3))
    for stack in knot_groups(patches):  # each side is a rim of its patch's ts x ts grid
        X = np.moveaxis(tabulate_grid([patches[pid] for pid in stack], ts, ts).points, 0, -1)
        for k, (axis, value) in enumerate(map(_SIDE_DATA.get, SIDES)):
            samples[stack, k] = np.take(X, -int(value), axis=1 + axis)
    samples = samples.reshape(len(all_sides), ts.size, 3)
    tol = MATCH_TOL * float(np.max(np.ptp(samples, axis=(0, 1))))
    mid_x = samples[:, ts.size // 2, 0]
    order = np.argsort(mid_x, kind="stable")
    lo = np.searchsorted(mid_x[order], mid_x - 2.0 * tol, side="left")
    hi = np.searchsorted(mid_x[order], mid_x + 2.0 * tol, side="right")

    # One walk in SIDES order: a side no earlier side took takes its one match among the
    # later free sides.  Untagged loners wait for the walk's end, behind any double match.
    taken = np.zeros(len(all_sides), dtype=bool)
    edges, loner = [], None
    for a, s in enumerate(all_sides):
        if taken[a]:
            continue
        cand = np.sort(order[lo[a] : hi[a]])
        cand = cand[(cand > a) & ~taken[cand]]
        A, B = samples[a], samples[cand]
        straight = np.max(np.linalg.norm(A - B, axis=2), axis=1)
        reversed_ = np.max(np.linalg.norm(A - B[:, ::-1], axis=2), axis=1)
        match = np.flatnonzero(np.minimum(straight, reversed_) <= tol)
        if match.size > 1:
            raise TopologyError(f"side {all_sides[cand[match[1]]]} matches more than one side")
        if match.size:
            (k,) = match
            other, flip = all_sides[cand[k]], bool(reversed_[k] < straight[k])
            taken[cand[k]] = True
            if s in tags or other in tags:
                raise TopologyError(f"boundary tag on interior side {s if s in tags else other}")
            edges.append(InterfaceEdge("interior", s, other, flip))
        elif s in tags:
            edges.append(InterfaceEdge(tags[s], s))
        else:
            loner = loner or s
    if loner:
        raise TopologyError(f"patch side {loner} matches no neighbor and carries no "
                            "boundary tag")
    return MultiPatchSurface(list(patches), edges, alpha)


def _refine_nets(patches: list[NurbsPatch], grids: np.ndarray):
    """Midpoint refinement of grids (P, n1, n2, c) on a stack of patches sharing both
    knot vectors, through the homogeneous net (g w, w) and the memoised
    ``midpoint_refine`` matrices: the refined knot vectors, w_f = T_u w T_v^T and
    g_f = T_u (g w) T_v^T / w_f.  The grids are the control points or coefficients;
    each CSR T is applied to the net with its axis first, in time linear in the elements."""
    kv_u, Tu = midpoint_refine(patches[0].basis.basis_u)
    kv_v, Tv = midpoint_refine(patches[0].basis.basis_v)
    w = np.stack([p.basis.weights for p in patches])[..., None]
    nets = np.concatenate([grids * w, w], axis=-1)
    for axis, T in ((1, Tu), (2, Tv)):
        front = np.moveaxis(nets, axis, 0)
        fine = T @ front.reshape(len(front), -1)
        nets = np.moveaxis(fine.reshape(-1, *front.shape[1:]), 0, axis)
    nets = np.ascontiguousarray(nets)
    return kv_u, kv_v, nets[..., -1], nets[..., :-1] / nets[..., -1:]


def refine_surface(surface: MultiPatchSurface) -> MultiPatchSurface:
    """Global midpoint h-refinement, one ``_refine_nets`` call per knot group.

    Knot insertion changes neither the geometry nor the topology, so the
    edges carry over; the refined surface checks each interior edge's knot
    vectors again when it is built.
    """
    patches = list(surface.patches)
    for group in knot_groups(patches):
        members = [patches[pid] for pid in group]
        kv_u, kv_v, w, x = _refine_nets(members, np.stack([p.control_points for p in members]))
        for pid, w_p, x_p in zip(group, w, x):
            patches[pid] = NurbsPatch(NurbsBasis2D(kv_u, kv_v, w_p), x_p, pid)
    return MultiPatchSurface(patches, list(surface.edges), surface.alpha.copy())
