"""B-spline and NURBS basis evaluation on open knot vectors.

Provides the univariate building blocks (basis values and first derivatives
via the Cox-de Boor triangular scheme), bivariate rational tensor-product
bases, and knot insertion for h-refinement.  Evaluation is right-continuous
at interior knots; at the right endpoint the last non-empty span is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "KnotVector",
    "NurbsBasis2D",
    "tabulate",
    "insert_knots",
    "greville",
]


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector on [0, 1] with polynomial degree ``degree``.

    A value: the knots are a read-only copy, and equality and hashing go by
    (degree, knot bytes), so equal vectors share every memoised table.
    ``breaks`` holds the unique knots, the parametric element boundaries.
    """

    degree: int
    knots: np.ndarray = field(compare=False)
    breaks: np.ndarray = field(init=False, compare=False, repr=False)
    _bytes: bytes = field(init=False, repr=False)

    def __post_init__(self):
        p, U = self.degree, np.array(self.knots, dtype=float) + 0.0  # a copy; -0.0 -> 0.0
        U.flags.writeable = False
        object.__setattr__(self, "knots", U)
        if p < 0:
            raise ValueError("degree must be non-negative")
        if U.ndim != 1 or U.size < 2 * (p + 1):
            raise ValueError("knot vector needs at least 2*(degree+1) entries")
        if not np.all(np.isfinite(U)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(U) < 0):
            raise ValueError("knots must be non-decreasing")
        breaks, counts = np.unique(U, return_counts=True)
        breaks.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)
        if counts[0] != p + 1 or counts[-1] != p + 1:
            raise ValueError("knot vector must be open (end knots repeated exactly degree+1 times)")
        if U[0] != 0.0 or U[-1] != 1.0:
            raise ValueError("knot vector must span [0, 1]")
        # Above the degree it splits the patch into parts that no term couples.
        if np.any(counts[1:-1] > p):
            k = 1 + int(np.argmax(counts[1:-1] > p))
            raise ValueError(f"interior knot {float(breaks[k])} has multiplicity {counts[k]}, "
                             f"above the degree {p}")
        object.__setattr__(self, "_bytes", U.tobytes())

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return self.knots.size - self.degree - 1

    @property
    def num_elements(self) -> int:
        return self.breaks.size - 1


def find_span(kv: KnotVector, xi):
    """Index i of the knot span [U_i, U_{i+1}) containing xi, a point or an array.

    Right-continuous at interior knots; xi = 1 maps to the last
    non-empty span.
    """
    U, n = kv.knots, kv.n
    return np.where(xi >= U[n], n - 1, np.searchsorted(U, xi, side="right") - 1)


def tabulate(kv: KnotVector, xs: np.ndarray):
    """The degree+1 possibly non-zero B-splines and d/dxi at many points.

    Returns (first_active, values, derivs): ``values[k, r]`` and
    ``derivs[k, r]`` belong to basis function ``first_active[k] + r`` at
    ``xs[k]``.  Raises ValueError if a point lies outside [0, 1].  The
    vectorised Cox-de Boor scheme is checked bit for bit against the
    pointwise ``eval_bspline`` in ``tests/oracles.py``.  Tables are
    memoised on (knot vector, points), so patches sharing a knot vector
    share one table; the returned arrays are read-only.
    """
    xs = np.ascontiguousarray(xs, dtype=float).ravel()
    return _tabulate_cached(kv, xs.tobytes())


@lru_cache(maxsize=512)
def _tabulate_cached(kv: KnotVector, points: bytes):
    # The pointwise triangular scheme over all points at once: the same
    # operations in the same order, so every entry equals the pointwise one
    # bit for bit.
    xs = np.frombuffer(points)
    U, m, p = kv.knots, xs.size, kv.degree
    outside = xs[~((xs >= 0.0) & (xs <= 1.0))]
    if outside.size:
        raise ValueError(f"evaluation point {outside[0]} outside [0, 1]")
    span = find_span(kv, xs)
    vals, ders, left, right = (np.zeros((m, p + 1)) for _ in range(4))
    vals[:, 0] = 1.0
    for j in range(1, p + 1):
        if j == p:
            lower = vals[:, :p].copy()
        left[:, j] = xs - U[span + 1 - j]
        right[:, j] = U[span + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    first = span - p
    for r in range(p + 1):
        i, d = first + r, np.zeros(m)
        if r > 0:
            den = U[i + p] - U[i]
            d += np.divide(lower[:, r - 1], den, out=np.zeros(m), where=den > 0.0)
        if r < p:
            den = U[i + p + 1] - U[i + 1]
            d -= np.divide(lower[:, r], den, out=np.zeros(m), where=den > 0.0)
        ders[:, r] = p * d
    for a in (first, vals, ders):
        a.flags.writeable = False
    return first, vals, ders


@dataclass(frozen=True)
class NurbsBasis2D:
    """Rational tensor-product basis: two knot vectors and a positive weight grid."""

    basis_u: KnotVector
    basis_v: KnotVector
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        n1, n2 = self.basis_u.n, self.basis_v.n
        if self.weights.shape != (n1, n2):
            raise ValueError(
                f"weight grid {self.weights.shape} does not match basis size {(n1, n2)}"
            )
        if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
            raise ValueError("all NURBS weights must be positive and finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.basis_u.n, self.basis_v.n


def greville(kv: KnotVector) -> np.ndarray:
    """Greville abscissae: moving averages of degree consecutive knots."""
    p, U = kv.degree, kv.knots
    if p == 0:
        return 0.5 * (U[:-1] + U[1:])
    return np.array([U[k + 1 : k + p + 1].mean() for k in range(kv.n)])


def insert_knots(kv: KnotVector, new_knots) -> tuple[KnotVector, sp.csr_array]:
    """Insert knots strictly inside (0, 1); returns the refined vector and the
    control-point refinement matrix, a CSR array with p + 1 entries a row.

    Applying the matrix to (weighted) control points reproduces the original
    geometry exactly.  Raises ValueError, as ``KnotVector`` does, if any
    resulting multiplicity would exceed the degree.  Row i holds columns
    mu - p .. mu, where U_mu <= t_i < U_mu+1, and the Oslo algorithm's discrete
    B-splines: alpha_mu = 1, then for k = 1 .. p, alpha_j = w_j alpha_j +
    (1 - w_j+1) alpha_j+1, w_j = (t_i+k - U_j) / (U_j+k - U_j) or 0 if U_j+k = U_j.
    """
    new_knots = np.sort(np.asarray(new_knots, dtype=float))
    if new_knots.size and (new_knots[0] <= 0.0 or new_knots[-1] >= 1.0):
        raise ValueError("new knots must lie strictly inside (0, 1)")
    refined = KnotVector(kv.degree, np.sort(np.concatenate([kv.knots, new_knots])))
    p, U, t, n = kv.degree, kv.knots, refined.knots, refined.n
    mu = np.searchsorted(U, t[:n], side="right") - 1
    alpha = np.ones((n, 1))  # alpha_mu at k = 0
    for k in range(1, p + 1):
        j = mu[:, None] + np.arange(-k, 2)  # alpha_{mu-k} .. alpha_{mu+1}, the ends 0
        den = U[j + k] - U[j]
        w = np.divide(t[k : n + k, None] - U[j], den, out=np.zeros(den.shape), where=den > 0.0)
        old = np.pad(alpha, ((0, 0), (1, 1)))
        alpha = w[:, :-1] * old[:, :-1] + (1.0 - w[:, 1:]) * old[:, 1:]
    cols = (mu[:, None] + np.arange(-p, 1)).ravel()
    return refined, sp.csr_array((alpha.ravel(), cols, np.arange(n + 1) * (p + 1)), shape=(n, kv.n))


@lru_cache(maxsize=256)
def midpoint_refine(kv: KnotVector) -> tuple[KnotVector, sp.csr_array]:
    """Insert the midpoint of every non-empty span once (global h-refinement).

    Memoised on the knot vector: patches sharing one share the refined
    vector and the (read-only) refinement matrix.
    """
    refined, T = insert_knots(kv, 0.5 * (kv.breaks[:-1] + kv.breaks[1:]))
    for a in (T.data, T.indices, T.indptr):
        a.flags.writeable = False
    return refined, T
