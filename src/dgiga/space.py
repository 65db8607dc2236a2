"""Patch-discontinuous NURBS function spaces.

Each patch keeps its own tensor-product NURBS space; global DOFs are the
concatenation of the per-patch coefficient blocks (no coupling between
patches).  Numbering is patch-major, then lexicographic with the second
parametric index as the major key.  The spaces of a refinement sweep
nest patch by patch: ``prolong`` moves a function to the next level with
the refiner of the geometry, ``geometry._refine_nets``, given the
coefficient grids where ``refine_surface`` gives the control points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MultiPatchSurface, _refine_nets, knot_groups

__all__ = ["DgSpace", "DiscreteFunction", "build_space", "prolong"]


@dataclass(frozen=True)
class DgSpace:
    """Discrete DG space over a multi-patch surface, one block per patch."""

    surface: MultiPatchSurface
    degree: int
    offsets: np.ndarray  # length num_patches + 1
    total_dofs: int

    def patch_slice(self, pid: int) -> slice:
        return slice(int(self.offsets[pid]), int(self.offsets[pid + 1]))

    def function(self, coefficients) -> "DiscreteFunction":
        return DiscreteFunction(self, np.asarray(coefficients, dtype=float))


def build_space(surface: MultiPatchSurface, p: int) -> DgSpace:
    """Collect the per-patch NURBS spaces into one discontinuous space.

    Every patch must carry degree p in both directions.
    """
    for patch in surface.patches:
        if patch.degree != (p, p):
            raise ValueError(
                f"patch {patch.id} has degree {patch.degree}, expected ({p}, {p})"
            )
    offsets = np.cumsum([0] + [patch.basis.weights.size for patch in surface.patches])
    return DgSpace(surface, p, offsets, int(offsets[-1]))


@dataclass
class DiscreteFunction:
    """Coefficient vector over a DgSpace."""

    space: DgSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.total_dofs,):
            raise ValueError("coefficient vector length does not match space")

    def patch_coeffs(self, pid: int) -> np.ndarray:
        """Coefficients of one patch as an (n1, n2) grid."""
        n1, n2 = self.space.surface.patches[pid].basis.shape
        block = self.coefficients[self.space.patch_slice(pid)]
        return block.reshape(n2, n1).T  # second index is the major key


def prolong(u_h: DiscreteFunction) -> np.ndarray:
    """Coefficients of u_h on the midpoint refinement of its surface.

    Knot insertion nests each patch's NURBS space in its refinement (the
    weight function does not change), so the prolongation is exact and
    block-diagonal: c_f = (T_u (c o w) T_v^T) / (T_u w T_v^T) per patch, from
    ``geometry._refine_nets``, one call per group of patches sharing both knot
    vectors (``knot_groups``).
    """
    patches, rows = u_h.space.surface.patches, {}
    for group in knot_groups(patches):
        c = np.stack([u_h.patch_coeffs(pid) for pid in group])[..., None]
        *_, c_f = _refine_nets([patches[pid] for pid in group], c)  # (P, n1, n2, 1)
        rows.update(zip(group, c_f[..., 0].swapaxes(1, 2).reshape(len(group), -1)))  # k2-major
    return np.concatenate([rows[pid] for pid in range(len(patches))])
