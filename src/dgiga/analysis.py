"""Error measurement against manufactured solutions and convergence rates.

Errors are integrated with one Gauss point per direction more than the
assembly uses, so the quadrature of the error never masks the
discretization error being measured.  One pass per stack of patches
sharing both knot vectors contracts u_h's coefficients with the 1D tables
(sum factorisation, no basis table) and yields both the L2 and the
broken-gradient parts.  The jump terms of the energy error, on every
interior and every Dirichlet edge, come from one ``tabulate_sides`` call
and one call of the boundary data; u_h reaches the sides by the same field
route, so no basis table is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import edge_alpha, interface_slots
from .geometry import _dot, _tabulate, patch_stacks, tabulate_patches, tabulate_sides
from .space import DiscreteFunction
from .splines import breakpoints

__all__ = ["ErrorReport", "RateTable", "l2_error", "dg_error", "measure_errors", "rate_table"]


@dataclass(frozen=True)
class ErrorReport:
    l2_error: float
    dg_error: float
    dofs: int
    h_max: float
    per_patch: list


def _stack_errors(u_h: DiscreteFunction, stack: list[int], u_exact, grad_u_exact, q: int):
    """Error tables of a stack of patches sharing both knot vectors: the gaps
    u_h - u (None without u_exact) and the weights (P, N), and the squared
    broken-gradient errors (P,).  u_h comes from the sum-factorised kernel,
    so no basis table is built."""
    patches = u_h.space.surface.patches
    coeffs = np.stack([u_h.patch_coeffs(pid) for pid in stack])
    tab = tabulate_patches([patches[pid] for pid in stack], q, coeffs)
    P, points = len(stack), tab.points.reshape(-1, 3)
    w, gap, h1 = tab.weights.reshape(P, -1), None, np.zeros(P)
    if u_exact is not None:
        gap = tab.field.reshape(P, -1) - np.asarray(u_exact(points)).reshape(P, -1)
    if grad_u_exact is not None:
        diff = tab.surface_gradient(tab.field_grad).reshape(P, -1, 3)
        diff -= np.asarray(grad_u_exact(points)).reshape(diff.shape)
        h1 = (_dot(diff, diff) * w).sum(axis=1)
    return gap, w, h1


def _patch_errors(u_h: DiscreteFunction, u_exact, grad_u_exact, q: int,
                  modulo_constants: bool = False) -> list:
    """Per patch, the squared L2 error and the squared broken-gradient error.

    A part whose exact data is None is 0.  With ``modulo_constants`` the L2
    part is that of u_h - u minus its integral mean over the surface, which
    a second pass over the stored gaps subtracts.
    """
    n = u_h.space.surface.num_patches
    l2, h1, moments, passes = np.zeros(n), np.zeros(n), np.zeros((2, n)), []
    for stack in patch_stacks(u_h.space.surface.patches):
        gap, w, h1[stack] = _stack_errors(u_h, stack, u_exact, grad_u_exact, q)
        if gap is not None:
            passes.append((stack, gap, w))
            moments[:, stack] = (gap * w).sum(axis=1), w.sum(axis=1)
    # Patch-major sums, so the mean does not depend on how patches are stacked.
    mean = moments[0].sum() / moments[1].sum() if modulo_constants and passes else 0.0
    for stack, gap, w in passes:
        l2[stack] = ((gap - mean) ** 2 * w).sum(axis=1)
    return list(zip(l2.tolist(), h1.tolist()))


def _energy_error(u_h: DiscreteFunction, parts: list, delta: float, g_D) -> float:
    """Energy-norm error from the per-patch gradient parts plus the scaled
    squared jumps: of u_h on interior edges, of u_h - g_D on Dirichlet edges."""
    surface = u_h.space.surface
    q = u_h.space.degree + 2
    total = sum(a * h1 for a, (_, h1) in zip(surface.alpha, parts))
    interior, dirichlet = surface.edges_of_kind("interior"), surface.edges_of_kind("dirichlet")
    slots = interface_slots(interior) + [(*e.left, False) for e in dirichlet]
    if slots:
        coeffs = [u_h.patch_coeffs(pid) for pid in range(surface.num_patches)]
        tab = tabulate_sides(surface.patches, slots, q, coeffs)
        left, right = tab.starts[len(interior)], tab.starts[2 * len(interior)]
        alpha, w, h = surface.alpha[tab.pid], tab.weights, tab.chords[:, None]
        L, R = slice(0, left), slice(left, right)  # empty without interior edges
        jump = tab.field[L] - tab.field[R]
        a_gamma = edge_alpha(alpha[L], alpha[R])
        total += delta * float(np.sum(a_gamma * jump**2 * w[L] / h[L]))
        if dirichlet:
            D = slice(right, None)
            gap = tab.field[D] - np.asarray(g_D(tab.points[D].reshape(-1, 3))).reshape(w[D].shape)
            total += delta * float(np.sum(alpha[D] * gap**2 * w[D] / h[D]))
    return math.sqrt(total)


def l2_error(u_h: DiscreteFunction, u_exact, q: int | None = None) -> float:
    """L2 norm of u_h - u over the whole surface.

    Integrates with degree+2 points per direction unless q overrides it.
    """
    if q is None:
        q = u_h.space.degree + 2
    return math.sqrt(sum(part for part, _ in _patch_errors(u_h, u_exact, None, q)))


def dg_error(
    u_h: DiscreteFunction, u_exact, grad_u_exact, delta: float, g_D=None
) -> float:
    """Energy-norm error: weighted broken gradient plus scaled jump terms.

    Interior edges contribute the jumps of u_h (the exact solution is
    continuous); Dirichlet edges contribute u_h - g_D, with g_D defaulting
    to the exact solution's trace.
    """
    parts = _patch_errors(u_h, None, grad_u_exact, u_h.space.degree + 2)
    return _energy_error(u_h, parts, delta, g_D or u_exact)


def surface_h_max(surface) -> float:
    """Largest element diameter (largest distance among the 4 mapped corners)."""
    h = 0.0
    for stack in patch_stacks(surface.patches):
        patches = [surface.patches[pid] for pid in stack]
        bu, bv = (breakpoints(kv) for kv in (patches[0].basis.basis_u, patches[0].basis.basis_v))
        X = _tabulate(patches, bu, bv).points.reshape(len(stack), bu.size, bv.size, 3)
        corners = (X[:, :-1, :-1], X[:, :-1, 1:], X[:, 1:, :-1], X[:, 1:, 1:])
        for a, b in itertools.combinations(corners, 2):
            h = max(h, float(np.max(np.linalg.norm(a - b, axis=-1))))
    return h


def measure_errors(u_h: DiscreteFunction, data) -> ErrorReport:
    """L2 and energy-norm errors of a discrete solution, with per-patch parts.

    Without a Dirichlet edge the solution is fixed only up to a constant,
    so the L2 error is measured modulo constants: the integral mean of
    u_h - u is subtracted first.
    """
    space = u_h.space
    parts = _patch_errors(u_h, data.u_exact, data.grad_u_exact, space.degree + 2,
                          modulo_constants=not space.surface.has_dirichlet)
    dg = math.nan
    if data.grad_u_exact is not None:
        dg = _energy_error(u_h, parts, data.delta, data.g_D or data.u_exact)
    l2 = math.sqrt(sum(part for part, _ in parts))
    per_patch = [math.sqrt(part) for part, _ in parts]
    return ErrorReport(l2, dg, space.total_dofs, surface_h_max(space.surface), per_patch)


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

    def last_rates(self) -> tuple[float, float]:
        return self.rows[-1].l2_rate, self.rows[-1].dg_rate

    def to_csv(self) -> str:
        lines = ["level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate"]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        str(r.level),
                        f"{r.h_max:.17g}",
                        str(r.dofs),
                        f"{r.l2_error:.17g}",
                        _fmt_or_empty(r.dg_error),
                        _fmt_or_empty(r.l2_rate),
                        _fmt_or_empty(r.dg_rate),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _fmt_or_empty(v: float) -> str:
    if math.isnan(v):
        return ""
    return f"{v:.17g}"


def _rate(e_prev, e_next, h_prev, h_next) -> float:
    if e_next == 0.0:
        return math.inf
    if e_prev == 0.0:
        return math.nan
    return math.log(e_prev / e_next) / math.log(h_prev / h_next)


def rate_table(levels: list[dict]) -> RateTable:
    """Convergence rates from per-level results.

    Each entry needs keys level, h_max, dofs, l2_error, dg_error.  Rates
    compare consecutive levels; the first level has no rate.  A zero error
    yields a +inf rate marker, excluded from any averaging by callers.
    """
    rows: list[RateRow] = []
    for k, rec in enumerate(levels):
        if k == 0:
            l2r = dgr = math.nan
        else:
            prev = levels[k - 1]
            l2r = _rate(prev["l2_error"], rec["l2_error"], prev["h_max"], rec["h_max"])
            if math.isnan(rec["dg_error"]) or math.isnan(prev["dg_error"]):
                dgr = math.nan
            else:
                dgr = _rate(prev["dg_error"], rec["dg_error"], prev["h_max"], rec["h_max"])
        rows.append(
            RateRow(
                rec["level"],
                rec["h_max"],
                rec["dofs"],
                rec["l2_error"],
                rec["dg_error"],
                l2r,
                dgr,
            )
        )
    return RateTable(rows)
