"""Gauss-Legendre quadrature on breakpoint panels."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["panel_rules"]

MAX_POINTS = 30


@lru_cache(maxsize=None)
def _gauss_reference(q: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Newton iteration on the Legendre polynomial P_q; Chebyshev-like
    # initial guesses converge in a handful of steps for q <= 30.
    def legendre_and_deriv(x):
        P0 = np.ones_like(x)
        P1 = x.copy()
        for k in range(2, q + 1):
            P0, P1 = P1, ((2 * k - 1) * x * P1 - (k - 1) * P0) / k
        # Nodes are strictly inside (-1, 1), so x^2 - 1 never vanishes.
        dP = q * (x * P1 - P0) / (x**2 - 1.0)
        return P1, dP

    nodes = np.cos(np.pi * (np.arange(1, q + 1) - 0.25) / (q + 0.5))
    for _ in range(100):
        P, dP = legendre_and_deriv(nodes)
        step = P / dP
        nodes -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dP = legendre_and_deriv(nodes)
    weights = 2.0 / ((1.0 - nodes**2) * dP**2)
    order = np.argsort(nodes)
    return tuple(nodes[order]), tuple(weights[order])


def panel_rules(breaks: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-span q-point Gauss-Legendre rules; nodes and weights of shape (nspans, q).

    Each rule is exact for polynomials up to degree 2q-1 on its span, and
    its nodes lie strictly inside the span.  Raises ValueError for q < 1,
    q > 30 or breaks that do not strictly increase.
    """
    if q < 1:
        raise ValueError("need at least one quadrature point")
    if q > MAX_POINTS:
        raise ValueError(f"quadrature order {q} unsupported (max {MAX_POINTS})")
    breaks = np.asarray(breaks, dtype=float)
    if not np.all(breaks[:-1] < breaks[1:]):
        raise ValueError("empty interval")
    x, w = _gauss_reference(q)
    a = breaks[:-1, None]
    half = 0.5 * (breaks[1:, None] - a)
    return a + half * (np.asarray(x) + 1.0), half * np.asarray(w)
