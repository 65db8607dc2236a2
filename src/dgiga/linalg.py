"""Conjugate gradients with Jacobi (inverse-diagonal) scaling for the interior-penalty system.

The matrix is a plain ``scipy.sparse`` array.  Pure-Neumann and closed
surfaces leave the symmetric system singular with the constant vector as
its nullspace; ``cg_solve`` then takes the weights of the mean to fix,
projects the constants out of every Krylov vector and shifts the solution
so that its weighted mean is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolveReport", "NumericalBreakdownError", "cg_solve"]


class NumericalBreakdownError(RuntimeError):
    """NaN or infinity appeared during an iterative solve."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def _jacobi_inverse(A) -> np.ndarray:
    d = A.diagonal()
    good = np.abs(d) > 0.0
    inv = np.ones(A.shape[0])
    inv[good] = 1.0 / d[good]
    return inv


def _check_finite(v: np.ndarray):
    if not np.all(np.isfinite(v)):
        raise NumericalBreakdownError("non-finite value encountered in CG iteration")


def cg_solve(
    A,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    mean_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-scaled CG for a symmetric positive (semi-)definite A.

    ``mean_weights=None`` means A is definite.  An array w means A is
    semidefinite with the constant vector as its nullspace: the constants
    are projected out of b and of every Krylov vector (v - mean(v)), and the
    returned x is shifted by a constant so that w @ x == 0.

    Stops when ||b - A x|| / ||b|| <= tol.  Hitting max_iter returns a
    non-converged report; NaNs raise NumericalBreakdownError.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    b = np.asarray(b, dtype=float)
    _check_finite(b)
    n = A.shape[0]
    if mean_weights is not None:
        mean_weights = np.asarray(mean_weights, dtype=float)
        if mean_weights.shape != (n,) or mean_weights.sum() == 0.0:
            raise ValueError("mean_weights must have one entry per unknown and a nonzero sum")
    if max_iter is None:
        max_iter = 10 * n
    minv = _jacobi_inverse(A)

    def project(v):  # in place
        if mean_weights is not None:
            v -= v.mean()
        return v

    b = project(b.copy())
    x = np.zeros(n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, SolveReport(0, 0.0, True)

    # Projecting b a second time removes most of the round-off mean left by
    # the first projection.  The iteration updates r, z and p in place; a NaN
    # or infinity in r shows in the scalars r @ z or p^T A p, so only those
    # are checked.
    r = project(b.copy())
    z = project(r * minv)
    p = z.copy()
    rz = float(r @ z)
    relres = np.sqrt(r @ r) / bnorm
    it = 0
    while relres > tol and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise NumericalBreakdownError(
                f"CG breakdown: non-positive curvature p^T A p = {pAp:.3e}"
            )
        a = rz / pAp
        x += a * p
        Ap *= a
        project(np.subtract(r, Ap, out=r))
        project(np.multiply(r, minv, out=z))
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NumericalBreakdownError("non-finite value encountered in CG iteration")
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1
        relres = float(np.sqrt(r @ r) / bnorm)
    if mean_weights is not None:
        x -= (mean_weights @ x) / mean_weights.sum()
    return x, SolveReport(it, relres, relres <= tol)
