"""Gauss-Legendre quadrature on breakpoint panels, from numpy's ``leggauss``."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["panel_rules"]

MAX_POINTS = 30


@lru_cache(maxsize=None)
def _gauss_reference(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point rule on [-1, 1] (numpy's ``leggauss``), read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    return a + half * (x + 1.0), half * w
