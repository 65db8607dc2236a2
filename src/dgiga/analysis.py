"""Error measurement against manufactured solutions and convergence rates.

Errors are integrated with one Gauss point per direction more than the
assembly uses, so the quadrature of the error never masks the
discretization error being measured.  ``measure_errors`` is the one entry
point: one pass per stack of patches sharing both knot vectors contracts
u_h's coefficients with the 1D tables (sum factorisation, no basis table)
on the (P, nu, nv) grid of each work unit that ``geometry.tabulate_patches``
yields, the stack or a run of its element rows, and yields the L2 and
broken-gradient parts; only the reduced scalars are copied, to patch-wide
element-major arrays in the sums' order.
The energy error's jump terms, on every interior and Dirichlet edge, read
u_h on the edge layout the assembly uses (``assembly.edge_sides``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import edge_alpha, edge_sides
from .geometry import _dot, _elements, knot_groups, patch_stacks, tabulate_grid, tabulate_patches
from .space import DiscreteFunction

__all__ = ["ErrorReport", "RateTable", "measure_errors", "rate_table"]


@dataclass(frozen=True)
class ErrorReport:
    l2_error: float
    dg_error: float
    dofs: int
    h_max: float
    per_patch: list


def _stack_errors(u_h: DiscreteFunction, stack: list[int], u_exact, grad_u_exact, q: int):
    """Gaps u_h - u and weights (P, N) and squared broken-gradient errors (P,)
    of a stack of patches sharing both knot vectors.  Each work unit of
    ``tabulate_patches``, a run of u-element rows, lives only for its
    iteration and writes its gaps, weights and gradient parts into
    patch-wide element-major arrays, in the sums' order.  Gradient parts are
    zero without grad_u_exact."""
    patches = [u_h.space.surface.patches[pid] for pid in stack]
    coeffs = np.stack([u_h.patch_coeffs(pid) for pid in stack])
    P, b = len(stack), patches[0].basis
    shape = (P, b.basis_u.num_elements, b.basis_v.num_elements, q, q)
    out = None
    for run, tab in tabulate_patches(patches, q, coeffs):
        points, w = tab.points.reshape(3, -1).T, tab.weights
        parts = [tab.field - np.asarray(u_exact(points)).reshape(w.shape), w]
        if grad_u_exact is not None:
            diff = tab.surface_gradient(tab.field_grad)
            diff -= np.asarray(grad_u_exact(points)).T.reshape(diff.shape)
            parts.append(_dot(diff, diff) * w)
            del diff
        if out is None:  # after the first tabulation's temporaries are freed
            out = [np.empty(shape) for _ in parts]
        for a, part in zip(out, parts):
            a[:, run] = _elements(part, q, q)
        del tab, points, w, parts  # before the next unit is tabulated
    gap, w, *h1 = (a.reshape(P, -1) for a in out)
    return gap, w, h1[0].sum(axis=1) if h1 else np.zeros(P)


def _energy_error(u_h: DiscreteFunction, h1: np.ndarray, data) -> float:
    """Energy-norm error from the per-patch gradient parts plus the scaled
    squared jumps of the error u - u_h: of u_h on interior edges, of u_h - u
    on Dirichlet edges (the boundary data g_D does not enter)."""
    surface, delta = u_h.space.surface, data.delta
    total = sum(a * part for a, part in zip(surface.alpha, h1))
    coeffs = [u_h.patch_coeffs(pid) for pid in range(surface.num_patches)]
    sides = edge_sides(surface, u_h.space.degree + 2, coeffs)
    if sides is not None:
        tab, (L, R, D, _) = sides
        alpha, w, h = surface.alpha[tab.pid], tab.weights, tab.chords[:, None]
        jump = tab.field[L] - tab.field[R]
        a_gamma = edge_alpha(alpha[L], alpha[R])
        total += delta * float(np.sum(a_gamma * jump**2 * w[L] / h[L]))
        if D.start < D.stop:
            u = data.u_exact(tab.points[:, D].reshape(3, -1).T)
            gap = tab.field[D] - np.asarray(u).reshape(w[D].shape)
            total += delta * float(np.sum(alpha[D] * gap**2 * w[D] / h[D]))
    return math.sqrt(total)


def surface_h_max(surface) -> float:
    """Largest element diameter (largest distance among the 4 mapped corners),
    from one breakpoint grid per knot group and one square root."""
    h2 = 0.0
    for group in knot_groups(surface.patches):
        patches = [surface.patches[pid] for pid in group]
        bu, bv = patches[0].basis.basis_u.breaks, patches[0].basis.basis_v.breaks
        X = tabulate_grid(patches, bu, bv).points  # (3, P, bu.size, bv.size)
        corners = (X[..., :-1, :-1], X[..., :-1, 1:], X[..., 1:, :-1], X[..., 1:, 1:])
        for a, b in itertools.combinations(corners, 2):
            d = a - b
            h2 = max(h2, float(np.max(_dot(d, d))))
    return math.sqrt(h2)


def measure_errors(u_h: DiscreteFunction, data) -> ErrorReport:
    """L2 and energy-norm errors of a discrete solution, with per-patch L2 parts.

    One pass per stack collects the gaps, weights and gradient parts, and a
    second subtracts a mean from the stored gaps.  With a Dirichlet edge the
    mean is 0.0.  Without one the solution is fixed only up to a constant,
    so the L2 error is measured modulo constants: the mean is the integral
    mean of u_h - u.  Without ``grad_u_exact`` the energy error is NaN.
    """
    if data.u_exact is None:
        raise ValueError("measuring errors needs the exact solution u_exact")
    space, surface = u_h.space, u_h.space.surface
    n = surface.num_patches
    l2, h1, moments, passes = np.zeros(n), np.zeros(n), np.zeros((2, n)), []
    for stack in patch_stacks(surface.patches):
        gap, w, h1[stack] = _stack_errors(u_h, stack, data.u_exact, data.grad_u_exact,
                                          space.degree + 2)
        passes.append((stack, gap, w))
        moments[:, stack] = (gap * w).sum(axis=1), w.sum(axis=1)
    # Patch-major sums, so the mean does not depend on how patches are stacked.
    mean = 0.0 if surface.has_dirichlet else moments[0].sum() / moments[1].sum()
    for stack, gap, w in passes:
        l2[stack] = ((gap - mean) ** 2 * w).sum(axis=1)
    del passes, gap, w  # the edge pass below must not hold the volume tables too
    dg = math.nan
    if data.grad_u_exact is not None:
        dg = _energy_error(u_h, h1, data)
    parts = l2.tolist()
    return ErrorReport(math.sqrt(sum(parts)), dg, space.total_dofs, surface_h_max(surface),
                       [math.sqrt(part) for part in parts])


@dataclass(frozen=True)
class RateRow:
    level: int
    h_max: float
    dofs: int
    l2_error: float
    dg_error: float
    l2_rate: float  # nan on the first level, +inf when the error hits zero
    dg_rate: float


@dataclass(frozen=True)
class RateTable:
    rows: list

    def to_csv(self) -> str:
        lines = ["level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate"]
        for r in self.rows:
            errors = [_fmt_or_empty(v) for v in (r.l2_error, r.dg_error, r.l2_rate, r.dg_rate)]
            lines.append(",".join([str(r.level), f"{r.h_max:.17g}", str(r.dofs), *errors]))
        return "\n".join(lines) + "\n"


def _fmt_or_empty(v: float) -> str:
    return "" if math.isnan(v) else f"{v:.17g}"


def _rate(e_prev, e_next, h_prev, h_next) -> float:
    if e_next == 0.0:
        return math.inf
    if e_prev == 0.0:
        return math.nan
    return math.log(e_prev / e_next) / math.log(h_prev / h_next)


def rate_table(reports: list[ErrorReport]) -> RateTable:
    """Convergence rates from the error reports of levels 0, 1, 2, ...

    Rates compare consecutive levels; the first level has no rate.  A zero
    error yields a +inf rate marker, excluded from any averaging by callers.
    """
    rows: list[RateRow] = []
    for level, rec in enumerate(reports):
        l2r = dgr = math.nan
        if level > 0:
            prev = reports[level - 1]
            l2r = _rate(prev.l2_error, rec.l2_error, prev.h_max, rec.h_max)
            dgr = _rate(prev.dg_error, rec.dg_error, prev.h_max, rec.h_max)
        rows.append(RateRow(level, rec.h_max, rec.dofs, rec.l2_error, rec.dg_error, l2r, dgr))
    return RateTable(rows)
