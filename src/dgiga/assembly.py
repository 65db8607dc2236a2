"""Interior-penalty assembly of the surface diffusion system.

Builds the symmetric system: patchwise diffusion stiffness, interface
consistency/symmetry and jump-penalty terms, weakly imposed Dirichlet
conditions of Nitsche type, and the load vector including Neumann data.
The volume terms are formed for stacks of patches that share both knot
vectors: one sum-factorised tabulation (``tabulate_patches``) and one
batched matmul of parametric gradients per stack.  The edge terms are
formed per pass: the interior edges, the Dirichlet edges and the Neumann
edges are each one ``tabulate_sides`` call, stacked over patches, and one
batch of element matrices.  Edge terms stay parametric: a normal
derivative is grad^ phi . g^-1 J^T n, and the element matrices are batched
matmuls over the edge points.  Entries accumulate in a fixed order
(patch-major, element-lexicographic, then edge-list order inside every
batch) so serial assembly is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .geometry import SideTabulation, _dot, patch_stacks, tabulate_patches, tabulate_sides
from .space import DgSpace

__all__ = [
    "ProblemData",
    "SparseSystem",
    "default_penalty",
    "assemble_volume",
    "assemble_interface",
    "assemble_boundary",
    "assemble_system",
]


def default_penalty(p: int) -> float:
    """Default jump-penalty coefficient 2(p+2)(p+1)."""
    if p < 1:
        raise ValueError("degree must be at least 1")
    return 2.0 * (p + 2) * (p + 1)


@dataclass
class ProblemData:
    """Problem data: source, boundary data, penalty, optional exact solution.

    ``f`` is called as f(patch_id, points) with points of shape (N, 3);
    boundary data and the exact solution take only the points.  Missing
    callables are treated as zero data.
    """

    f: Callable | None = None
    g_D: Callable | None = None
    g_N: Callable | None = None
    delta: float = 12.0
    u_exact: Callable | None = None
    grad_u_exact: Callable | None = None

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("penalty parameter must be positive")


@dataclass
class SparseSystem:
    """Assembled symmetric matrix (CSR, sorted and duplicate-free) and right-hand side.

    Without a Dirichlet edge the constants span the nullspace of the matrix;
    ``basis_integrals`` then holds m_i, the integral of basis function i,
    which fixes the constant of the solution.  It is None otherwise.
    """

    matrix: sp.csr_array
    rhs: np.ndarray
    basis_integrals: np.ndarray | None = None


def _index_dtype(n: int):
    """int32 when every index below n fits in it, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


class _Accumulator:
    """Element matrices (E, m, m) with their global indices (E, m), and the load."""

    def __init__(self, n: int):
        self.n = n
        self.gidx: list[np.ndarray] = []
        self.local: list[np.ndarray] = []
        self.rhs = np.zeros(n)

    def add_block(self, gidx: np.ndarray, local: np.ndarray):
        self.gidx.append(gidx)
        self.local.append(local)

    def system(self) -> SparseSystem:
        """Expand the blocks to COO entries and build the CSR matrix; empties the blocks."""
        dtype = _index_dtype(self.n)
        gidx = np.concatenate(self.gidx, dtype=dtype) if self.gidx else np.empty((0, 0), dtype)
        vals = np.concatenate(self.local).reshape(-1) if self.local else np.empty(0)
        self.gidx, self.local = [], []
        m = gidx.shape[1]
        rows = np.repeat(gidx, m, axis=1).reshape(-1)
        cols = np.tile(gidx, m).reshape(-1)
        mat = sp.coo_array((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        return SparseSystem(mat, self.rhs)


def _volume_blocks(space: DgSpace, data: ProblemData, stack: list[int]):
    """Volume terms of a stack of patches that share both knot vectors.

    Returns global indices (P, E, m), stiffness matrices (P, E, m, m) and
    (P, E, 2, m) rows holding each element's load and basis integrals.
    With w g^-1 = C^T C per Gauss point (C upper triangular, closed form
    from g^-1), K_e = alpha X^T X for X = C grad R stacked over the points:
    one batched matmul on parametric gradients.
    """
    surface = space.surface
    q = space.degree + 1
    tab = tabulate_patches([surface.patches[pid] for pid in stack], q, basis=True)
    P, nel_u, nel_v, _, _, m1, m2 = tab.values.shape
    n, m = P * nel_u * nel_v, m1 * m2
    gidx = space.global_block(np.array(stack)[:, None, None], tab.first_u.reshape(-1, 1),
                              tab.first_v.reshape(-1), m1, m2).reshape(P, -1, m)
    w, inv = tab.weights, tab.inv_metric
    r = np.sqrt(w / inv[..., 0, 0])
    c00, c01, c11 = (a[..., None, None] for a in (inv[..., 0, 0] * r, inv[..., 0, 1] * r,
                                                   r / tab.sqrt_det_g))
    X = np.empty((P, nel_u, nel_v, 2, q, q, m1, m2))
    g0, g1 = tab.grads[..., 0], tab.grads[..., 1]
    np.multiply(c00, g0, out=X[:, :, :, 0])
    X[:, :, :, 0] += c01 * g1
    np.multiply(c11, g1, out=X[:, :, :, 1])
    X = X.reshape(n, 2 * q * q, m)
    K = (X.transpose(0, 2, 1) @ X).reshape(P, -1, m, m)  # a rank-k update: exactly symmetric
    K *= surface.alpha[stack].reshape(-1, 1, 1, 1)
    f = np.zeros_like(w)
    if data.f is not None:
        points = tab.points.reshape(P, -1, 3)
        for k, pid in enumerate(stack):
            f[k] = np.asarray(data.f(pid, points[k]), dtype=float).reshape(w.shape[1:])
    rows = np.stack([f * w, w], axis=3).reshape(n, 2, q * q)
    loads = rows @ tab.values.reshape(n, q * q, m)
    return gidx, K, loads.reshape(P, -1, 2, m)


def assemble_volume(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Patchwise diffusion stiffness and source load, and the basis integrals
    when the surface has no Dirichlet edge.

    Patches sharing both knot vectors are tabulated in stacks
    (``patch_stacks``); the blocks are accumulated patch by patch.
    """
    surface = space.surface
    acc = _Accumulator(space.total_dofs)
    integrals = None if surface.has_dirichlet else np.zeros(space.total_dofs)
    blocks = [None] * surface.num_patches
    for stack in patch_stacks(surface.patches):
        for pid, *block in zip(stack, *_volume_blocks(space, data, stack)):
            blocks[pid] = block
    for gidx, K, loads in blocks:
        acc.add_block(gidx, K)
        if data.f is not None:
            np.add.at(acc.rhs, gidx, loads[:, 0])
        if integrals is not None:
            np.add.at(integrals, gidx, loads[:, 1])
    system = acc.system()
    system.basis_integrals = integrals
    return system


def _side_terms(space: DgSpace, tab: SideTabulation, normal: np.ndarray):
    """Global indices (nel, m), values and normal derivatives (nel, q, m) of the sides' bases.

    d = g^-1 J^T n is formed once per point.  ``normal`` (nel, q, 3) need not be
    the side's own conormal: an interface's right side takes the left's.
    """
    nel, q, m1, m2 = tab.values.shape
    gidx = space.global_block(tab.pid, tab.first_u, tab.first_v, m1, m2).reshape(nel, -1)
    jac, inv = tab.jacobian, tab.inv_metric
    t0, t1 = _dot(jac[..., 0], normal), _dot(jac[..., 1], normal)
    d0, d1 = (inv[..., r, 0] * t0 + inv[..., r, 1] * t1 for r in (0, 1))
    dn = tab.grads[..., 0] * d0[..., None, None] + tab.grads[..., 1] * d1[..., None, None]
    return gidx, tab.values.reshape(nel, q, -1), dn.reshape(nel, q, -1)


def _sipg_blocks(flux, jump, w, pen):
    """Element matrices of -(flux jump^T + jump flux^T) + pen jump jump^T over the edge.

    The penalty block is Y^T Y with Y = sqrt(w) jump, exactly symmetric.
    """
    Y = jump * np.sqrt(w)[..., None]
    fj = (flux * w[..., None]).transpose(0, 2, 1) @ jump
    sym = fj + fj.transpose(0, 2, 1)
    del fj
    jj = Y.transpose(0, 2, 1) @ Y
    jj *= pen[:, None, None]
    jj -= sym
    return jj


def edge_alpha(a, b):
    """Penalty weight on an interior edge: the mean of the two coefficients.

    The mean grows with the larger coefficient, which keeps the ellipticity
    threshold of the penalty parameter independent of coefficient jumps
    when the flux average is unweighted (a harmonic mean would let the
    threshold blow up with the jump ratio).
    """
    return 0.5 * (a + b)


def interface_slots(edges) -> list:
    """Slots of interior edges: every left side, then every right side with its flip."""
    return [(*e.left, False) for e in edges] + [(*e.right, e.orientation_flip) for e in edges]


def _interface_blocks(space: DgSpace, data: ProblemData, edges):
    """Global indices (E, 2m) and SIPG element matrices of all interior-edge elements."""
    surface = space.surface
    tab = tabulate_sides(surface.patches, interface_slots(edges), space.degree + 1)
    half = tab.chords.size // 2
    n = tab.conormal[:half]
    gidx, values, dn = _side_terms(space, tab, np.concatenate([n, n]))
    alpha = surface.alpha[tab.pid][..., None]
    flux = 0.5 * alpha * dn
    jump = np.concatenate([values[:half], -values[half:]], axis=-1)
    flux = np.concatenate([flux[:half], flux[half:]], axis=-1)
    pen = data.delta * edge_alpha(alpha[:half, 0, 0], alpha[half:, 0, 0]) / tab.chords[:half]
    gidx = np.concatenate([gidx[:half], gidx[half:]], axis=-1)
    return gidx, _sipg_blocks(flux, jump, tab.weights[:half], pen)


def assemble_interface(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Consistency, symmetry and penalty terms on interior edges.

    Uses the left side's conormal as the shared direction; the penalty
    weight on an edge is the arithmetic mean of the two diffusion
    coefficients.  All interior edges form one batch, in edge-list order.
    """
    acc = _Accumulator(space.total_dofs)
    edges = space.surface.edges_of_kind("interior")
    if edges:
        acc.add_block(*_interface_blocks(space, data, edges))
    return acc.system()


def _boundary_batch(acc: _Accumulator, space: DgSpace, data: ProblemData, edges, kind: str):
    """Dirichlet terms (matrix and load) or Neumann loads of one batch of boundary edges."""
    surface = space.surface
    tab = tabulate_sides(surface.patches, [(*e.left, False) for e in edges], space.degree + 1)
    gidx, values, dn = _side_terms(space, tab, tab.conormal)
    w = tab.weights
    if kind == "neumann":
        gn = np.asarray(data.g_N(tab.points.reshape(-1, 3)), dtype=float)
        np.add.at(acc.rhs, gidx, ((gn.reshape(w.shape) * w)[:, None] @ values)[:, 0])
        return
    a_gamma = surface.alpha[tab.pid][..., None]
    pen = data.delta / tab.chords
    acc.add_block(gidx, _sipg_blocks(a_gamma * dn, values, w, a_gamma[:, 0, 0] * pen))
    if data.g_D is not None:
        gd = np.asarray(data.g_D(tab.points.reshape(-1, 3)), dtype=float)
        test = a_gamma * (pen[:, None, None] * values - dn)
        np.add.at(acc.rhs, gidx, ((gd.reshape(w.shape) * w)[:, None] @ test)[:, 0])


def assemble_boundary(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Weak Dirichlet terms (matrix and load) and Neumann loads.

    The Dirichlet edges form one batch and the Neumann edges another, each
    in edge-list order.
    """
    acc = _Accumulator(space.total_dofs)
    for kind, needed in (("dirichlet", True), ("neumann", data.g_N is not None)):
        edges = space.surface.edges_of_kind(kind)
        if edges and needed:
            _boundary_batch(acc, space, data, edges, kind)
    return acc.system()


def assemble_system(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Full system: volume + interior-edge + boundary contributions."""
    vol = assemble_volume(space, data)
    iface = assemble_interface(space, data)
    bnd = assemble_boundary(space, data)
    return SparseSystem(
        vol.matrix + iface.matrix + bnd.matrix,
        vol.rhs + iface.rhs + bnd.rhs,
        vol.basis_integrals,
    )
