"""B-spline and NURBS basics: evaluation, refinement, rational weights.

Everything in the library is built from open knot vectors on [0, 1].  This
script walks through the univariate basis, the partition of unity, and
geometry-preserving knot insertion.  ``tabulate`` evaluates the basis at
many points at once, the same tables every assembly and error pass uses.
"""

import numpy as np

from dgiga import KnotVector, greville, insert_knots
from dgiga.splines import tabulate

# A quadratic basis with one interior knot: two elements, four functions.
kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
print(f"degree {kv.degree}, {kv.n} basis functions, {kv.num_elements} elements")

# At any point only degree+1 functions are non-zero, and they sum to one.
xs = np.array([0.0, 0.25, 0.5, 0.9])
first, values, _ = tabulate(kv, xs)
for xi, f, v in zip(xs, first, values):
    print(f"xi={xi:4.2f}: first active {f}, values {np.round(v, 4)}, sum {v.sum():.15f}")

# Derivatives sum to zero -- differentiating the constant 1 gives 0.
_, _, derivs = tabulate(kv, [0.37])
print("derivative sum:", derivs[0].sum())

# Greville abscissae reproduce linear functions: sum_k g_k N_k(xi) = xi.
g = greville(kv)
xi = 0.7312
(f,), (v,), _ = tabulate(kv, [xi])
print("greville points:", g)
print("linear reproduction at", xi, "->", g[f : f + 3] @ v)

# Knot insertion refines the mesh without moving the curve.  The returned
# matrix, a scipy.sparse CSR array with degree+1 entries a row, maps coarse
# control points to fine ones; ``T @ control`` works as for a dense array.
refined, T = insert_knots(kv, [0.25, 0.75])
print("refined knots:", refined.knots)
print("refinement matrix shape:", T.shape)

control = np.array([0.0, 0.1, 0.9, 1.0])  # a 1d spline "curve"
fine_control = T @ control
xs = np.array([0.2, 0.5, 0.8])
coarse, fine = tabulate(kv, xs), tabulate(refined, xs)
for k, x in enumerate(xs):
    a = control[coarse[0][k] : coarse[0][k] + 3] @ coarse[1][k]
    b = fine_control[fine[0][k] : fine[0][k] + 3] @ fine[1][k]
    print(f"curve value at {x}: coarse {a:.15f}, refined {b:.15f}")
