"""Constructors for the test geometries: planar patch grids and cylinders.

Planar patches use unit weights and Greville-point control nets (the mapping
is then the identity on each sub-rectangle).  Cylindrical patches represent
circle arcs exactly with rational quadratic segments; higher degrees are
produced by homogeneous Bezier degree elevation, and multi-patch layouts by
splitting the arc at its parametric midpoint.  All constructions are exact
up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from .geometry import SIDES, MultiPatchSurface, NurbsPatch, match_interfaces
from .splines import KnotVector, NurbsBasis2D, greville, insert_knots

__all__ = [
    "planar_rectangle_patch",
    "square_grid",
    "quarter_cylinder_grid",
    "full_cylinder",
]


def _bezier_knots(p: int) -> KnotVector:
    return KnotVector(p, np.concatenate([np.zeros(p + 1), np.ones(p + 1)]))


def planar_rectangle_patch(
    p: int, origin=(0.0, 0.0), size=(1.0, 1.0), pid: int = 0
) -> NurbsPatch:
    """Axis-aligned planar rectangle in the z=0 plane with identity-like map."""
    kv = _bezier_knots(p)
    g = greville(kv)
    n = g.size
    cp = np.empty((n, n, 3))
    cp[:, :, 0] = origin[0] + size[0] * g[:, None]
    cp[:, :, 1] = origin[1] + size[1] * g[None, :]
    cp[:, :, 2] = 0.0
    return NurbsPatch(NurbsBasis2D(kv, kv, np.ones((n, n))), cp, pid)


def _outer_tags(nx: int, ny: int, bc: str) -> dict:
    return {(j * nx + i, side): bc for j in range(ny) for i in range(nx)
            for side, outer in zip(SIDES, (i == 0, i == nx - 1, j == 0, j == ny - 1)) if outer}


def square_grid(
    p: int, nx: int = 2, ny: int = 2, bc: str = "dirichlet", alpha=None
) -> MultiPatchSurface:
    """nx-by-ny grid of square patches tiling the unit square."""
    size = (1.0 / nx, 1.0 / ny)
    patches = [planar_rectangle_patch(p, (i / nx, j / ny), size, j * nx + i)
               for j in range(ny) for i in range(nx)]
    return match_interfaces(patches, _outer_tags(nx, ny, bc), alpha)


def _elevate_bezier(hom: np.ndarray) -> np.ndarray:
    """Raise a homogeneous Bezier segment by one degree (geometry unchanged)."""
    a = np.arange(1, len(hom))[:, None] / len(hom)
    return np.concatenate([hom[:1], a * hom[:-1] + (1.0 - a) * hom[1:], hom[-1:]])


def _arc_segments(theta0: float, theta1: float, p: int, n_seg: int):
    """Split an exact circle arc into n_seg rational degree-p Bezier pieces.

    Returns a list of (control xy, weights) per segment; n_seg must be a
    power of two (segments come from repeated midpoint knot insertion).
    The arc must open by at most pi/2 and p must be at least 2.
    """
    if p < 2:
        raise ValueError("exact circle arcs need degree >= 2")
    if n_seg < 1 or n_seg & (n_seg - 1):
        raise ValueError("number of arc segments must be a power of two")
    dtheta = theta1 - theta0
    if not 0.0 < dtheta <= np.pi / 2 + 1e-12:
        raise ValueError("arc must open by at most pi/2")
    mid = 0.5 * (theta0 + theta1)
    w1 = np.cos(0.5 * dtheta)
    pts = np.array(
        [
            [np.cos(theta0), np.sin(theta0)],
            [np.cos(mid) / w1, np.sin(mid) / w1],
            [np.cos(theta1), np.sin(theta1)],
        ]
    )
    w = np.array([1.0, w1, 1.0])
    hom = np.concatenate([pts * w[:, None], w[:, None]], axis=1)
    for _ in range(p - 2):
        hom = _elevate_bezier(hom)

    # Repeatedly insert the midpoint to full multiplicity and cut in half.
    T = insert_knots(_bezier_knots(p), np.full(p, 0.5))[1].toarray()
    segments = [hom]
    while len(segments) < n_seg:
        fine = [T @ seg for seg in segments]
        segments = [half for f in fine for half in (f[: p + 1], f[p:])]
    return [(seg[:, :2] / seg[:, 2:], seg[:, 2]) for seg in segments]


def _cylinder_grid(p: int, arcs, n_z: int, radius: float, height: float) -> list[NurbsPatch]:
    """Patch j * len(arcs) + i: arc segment i (control xy, weights) times row j of [0, height]."""
    kv = _bezier_knots(p)
    n = p + 1
    patches = []
    for j in range(n_z):
        z0, z1 = height * j / n_z, height * (j + 1) / n_z
        for xy, w_arc in arcs:
            cp = np.empty((n, n, 3))
            cp[:, :, 0] = radius * xy[:, 0:1]
            cp[:, :, 1] = radius * xy[:, 1:2]
            cp[:, :, 2] = (z0 + (z1 - z0) * greville(kv))[None, :]
            weights = np.repeat(w_arc[:, None], n, axis=1)
            patches.append(NurbsPatch(NurbsBasis2D(kv, kv, weights), cp, len(patches)))
    return patches


def quarter_cylinder_grid(
    p: int, n_theta: int = 2, n_z: int = 2, radius: float = 1.0, height: float = 1.0
) -> MultiPatchSurface:
    """Quarter cylinder split into an n_theta-by-n_z patch grid, Dirichlet all round.

    The arc segments come from splitting the single exact quarter-circle
    conic, so every patch lies on the circle to machine precision.  With
    n_theta = n_z = 1 it is one patch, whose p = 2 arc carries the classic
    weights (1, sqrt(2)/2, 1).
    """
    patches = _cylinder_grid(p, _arc_segments(0.0, np.pi / 2, p, n_theta), n_z, radius, height)
    return match_interfaces(patches, _outer_tags(n_theta, n_z, "dirichlet"))


def full_cylinder(
    p: int, n_z: int = 1, bc: str = "neumann", radius: float = 1.0
) -> MultiPatchSurface:
    """Unit-height cylinder closed in the angular direction (four 90-degree patch columns).

    Only the two rim circles remain as boundary; with Neumann tags there
    this is a pure-Neumann problem on a closed-in-angle surface.
    """
    arcs = [_arc_segments(i * np.pi / 2, (i + 1) * np.pi / 2, p, 1)[0] for i in range(4)]
    rims = {(pid, side): bc for pid, side in _outer_tags(4, n_z, bc) if side in ("south", "north")}
    return match_interfaces(_cylinder_grid(p, arcs, n_z, radius, 1.0), rims)
