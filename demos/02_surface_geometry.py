"""Multi-patch surfaces: exact conics, metrics, conormals, topology.

The quarter cylinder is represented exactly: rational quadratic arcs put
every mapped point on the unit circle to machine precision, so surface
integrals converge with the quadrature order rather than being polluted by
geometry approximation error.  All geometry is evaluated on tensor grids
of parameter points: ``tabulate_grid`` inside a patch (one point is a
1 x 1 grid), ``tabulate_sides`` at the Gauss points along patch sides.
Every array puts its component axes first: points are (3, ...), the
Jacobian (3, 2, ...), conormals (3, ...).
"""

import numpy as np

from dgiga.assembly import interface_slots
from dgiga.geometries import quarter_cylinder_grid, square_grid
from dgiga.geometry import tabulate_grid, tabulate_patches, tabulate_sides

# One patch covering the full 90-degree arc (a 1 x 1 grid); the classic weights.
patch = quarter_cylinder_grid(2, 1, 1).patches[0]
print("arc weights:", patch.basis.weights[:, 0])
mid = tabulate_grid([patch], [0.5], [0.5])
print("midpoint of the patch:", mid.points.reshape(3), "(45 degrees, half height)")

rng = np.random.default_rng(1)
points = tabulate_grid([patch], rng.random(40), rng.random(25)).points
radii = np.hypot(points[0], points[1])
print(f"max |radius - 1| over {radii.size} samples:", np.max(np.abs(radii - 1)))

# The first fundamental form drives all integrals: sqrt(det g) is the area
# density, and J g^{-1} pushes parametric gradients to tangential ones.
J = mid.jacobian.reshape(3, 2)
print("metric at the midpoint:\n", J.T @ J)
grad = mid.surface_gradient(np.array([0.0, 1.0]).reshape((2,) + mid.sqrt_det_g.shape))
print("tangential gradient of the height coordinate:", grad.reshape(3))

# A 2x2 multi-patch version: interfaces are matched geometrically and the
# knot vectors are verified to agree (matching meshes).
surface = quarter_cylinder_grid(2)
for kind in ("interior", "dirichlet", "neumann"):
    print(f"{kind} edges: {len(surface.edges_of_kind(kind))}")
# The area sums the quadrature weights (Gauss weights times sqrt(det g)) of
# every work unit of every patch.
area = sum(float(np.sum(tab.weights)) for patch in surface.patches
           for _, tab in tabulate_patches([patch], 6))
print("total area (pi/2 exact):", area)

# Conormals: tangent to the surface, orthogonal to the edge, outward.  A
# side is tabulated at q Gauss points per element; q = 1 is the midpoint.
flat = square_grid(1)
east = tabulate_sides(flat.patches, [(0, "east", False)], 1)
print("east conormal of a planar patch:", east.conormal[:, 0, 0])
# Both slots of an interface, the right one traversed along the left one
# (reversed where the interface is flipped), so row k of each is one point.
edge = surface.edges_of_kind("interior")[0]
sides = tabulate_sides(surface.patches, interface_slots([edge]), 1)
n_l, n_r = sides.conormal[:, 0, 0], sides.conormal[:, sides.starts[1], 0]
print("opposite conormals across an interface:", n_l, n_r)
