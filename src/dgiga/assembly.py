"""Interior-penalty assembly of the surface diffusion system.

Builds the symmetric system: patchwise diffusion stiffness, interface
consistency/symmetry and jump-penalty terms, weakly imposed Dirichlet
conditions of Nitsche type, and the load vector including Neumann data.
The volume terms of a stack of patches sharing both knot vectors come from
the weight-free factors of one tabulation (``tabulate_patches``), with no
rational-basis table, and one batched matmul.  Patches are uncoupled in the
volume, so its matrix is block-diagonal by patch, and each block has the
Kronecker pattern of two 1D B-spline bands: the element matrices are summed
straight into the CSR values of that pattern, memoised per knot signature,
with no global COO.  The edge terms are one pass: one ``tabulate_sides``
call over every interior, Dirichlet and Neumann side, with the 2(p+1) trace
functions of each side element.  Edge terms stay parametric: a normal
derivative is grad^ phi . g^-1 J^T n, and the element matrices are batched
matmuls over the edge points; ``_csr`` sums their COO entries.  Entries
accumulate in a fixed order so serial assembly is reproducible: a volume
entry or load sums its patch's elements in element-lexicographic order,
an edge entry sums in edge-list order inside every batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .geometry import (SideTabulation, _dot, _knot_key, _window_weights, patch_stacks,
                       tabulate_patches, tabulate_sides)
from .space import DgSpace
from .splines import KnotVector, breakpoints, find_span

__all__ = [
    "ProblemData",
    "SparseSystem",
    "default_penalty",
    "assemble_volume",
    "assemble_edges",
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


def _csr(n: int, blocks) -> sp.csr_array:
    """Sorted, duplicate-free CSR matrix of element matrices (E, m, m) with their
    global indices (E, m), written to COO entries in block order; widths may mix."""
    dtype, ends = _index_dtype(n), np.cumsum([0] + [K.size for _, K in blocks])
    rows, cols, vals = np.empty(ends[-1], dtype), np.empty(ends[-1], dtype), np.empty(ends[-1])
    for (gidx, K), start, end in zip(blocks, ends, ends[1:]):
        rows[start:end].reshape(K.shape)[...] = gidx[:, :, None]
        cols[start:end].reshape(K.shape)[...] = gidx[:, None, :]
        vals[start:end] = K.reshape(-1)
    mat = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _band(kv: KnotVector):
    """First active function of every element, and the first column and width of
    every row of the 1D coupling band: row i holds the functions that share an
    element with function i, a contiguous range as the windows are."""
    first, i = find_span(kv, breakpoints(kv)[:-1]) - kv.degree, np.arange(kv.n)
    lo = first[np.searchsorted(first + kv.degree, i)]
    hi = first[np.searchsorted(first, i, side="right") - 1] + kv.degree
    return first, lo, hi - lo + 1


@lru_cache(maxsize=64)
def _volume_pattern(basis_u: KnotVector, basis_v: KnotVector):
    """Patch-local CSR pattern of the volume stiffness and the slot of every
    element-matrix entry, memoised on the knot vectors.

    The pattern is kron(band_v, band_u) in the k2-major DOF order, with sorted
    columns: entry (r, c) of row r = r2 n1 + r1 sits at indptr[r] +
    (c2 - lo_v[r2]) width_u[r1] + c1 - lo_u[r1].  ``slots`` (nel_u nel_v, m, m)
    follows the element and window order of ``_volume_blocks``.  Returns
    read-only (indptr, indices, slots).
    """
    (fu, lo1, w1), (fv, lo2, w2) = _band(basis_u), _band(basis_v)
    n1, m1, m2 = basis_u.n, basis_u.degree + 1, basis_v.degree + 1
    indptr = np.concatenate([[0], np.cumsum(np.outer(w2, w1))])
    k1, k2 = fu[:, None] + np.arange(m1), fv[:, None] + np.arange(m2)  # element windows
    # Axes (e_u, e_v, a1, a2, b1, b2): rows (r2, r1) and columns (c2, c1).
    r1, c1 = k1[:, None, :, None, None, None], k1[:, None, None, None, :, None]
    r2, c2 = k2[None, :, None, :, None, None], k2[None, :, None, None, None, :]
    slots = indptr[r2 * n1 + r1] + ((c2 - lo2[r2]) * w1[r1] + (c1 - lo1[r1]))
    indices = np.empty(indptr[-1], dtype=np.intp)
    indices[slots] = c2 * n1 + c1  # every pattern entry is some element's entry
    slots = slots.reshape(fu.size * fv.size, m1 * m2, m1 * m2)
    for a in (indptr, indices, slots):
        a.flags.writeable = False
    return indptr, indices, slots


def _csr_values(slots: np.ndarray, nnz: int, K: np.ndarray) -> np.ndarray:
    """CSR values (P, nnz) of the element matrices K (P, E, m, m) of a stack of
    patches sharing one pattern, summed in element order by one bincount."""
    at = slots.reshape(1, -1) + nnz * np.arange(len(K))[:, None]
    return np.bincount(at.reshape(-1), K.reshape(-1), minlength=len(K) * nnz).reshape(-1, nnz)


def _volume_blocks(space: DgSpace, data: ProblemData, stack: list[int]):
    """Volume terms of a stack of patches that share both knot vectors.

    Returns global indices (P, E, m), stiffness matrices (P, E, m, m) and
    (P, E, 2, m) rows holding each element's load and basis integrals, all
    from psi = N_u N_v / S, where the rational basis is R = W psi.  With
    w g^-1 = C^T C per Gauss point (C upper triangular, closed form),
    X = C grad psi is built with the function axes outermost, so every
    elementwise step runs over the grid points; K_e = alpha W_a W_b
    (X^T X)_ab, the weights applied as one exactly symmetric factor after
    the matmul and alpha last.  The rows contract (f w / S, w / S) with the
    1D tables.
    """
    surface, q = space.surface, space.degree + 1
    patches = [surface.patches[pid] for pid in stack]
    tab = tabulate_patches(patches, q, basis=True)
    Nu, dNu, Nv, dNv, S, Su, Sv = tab.factors
    P, nel_u, nel_v = S.shape[:3]
    m1, m2 = Nu.shape[-1], Nv.shape[-1]
    n, m = P * nel_u * nel_v, m1 * m2
    fu, fv = tab.first_u.reshape(-1, 1), tab.first_v.reshape(-1)
    gidx = space.global_block(np.array(stack)[:, None, None], fu, fv, m1, m2).reshape(P, -1, m)
    W = _window_weights(patches, tab).reshape(n, m)
    w, inv = tab.weights, tab.inv_metric
    r = np.sqrt(w / inv[..., 0, 0]) / S
    c00, c01, c11 = inv[..., 0, 0] * r, inv[..., 0, 1] * r, r / tab.sqrt_det_g
    s0, s1 = (c00 * Su + c01 * Sv) / S, c11 * Sv / S
    # Function axes first, points as (P, u points, v points): every elementwise
    # loop runs along the v points.  X_0 = A N_v + B dN_v, X_1 = N_u C.
    grid = (P, nel_u * q, nel_v * q)
    c00, c01, c11, s0, s1 = (a.swapaxes(2, 3).reshape(grid) for a in (c00, c01, c11, s0, s1))
    uN, udN = (np.ascontiguousarray(t.reshape(-1, m1).T)[:, None, :, None] for t in (Nu, dNu))
    vN, vdN = (np.ascontiguousarray(t.reshape(-1, m2).T)[:, None, None] for t in (Nv, dNv))
    A = c00 * udN - s0 * uN
    B = c01 * uN
    C = c11 * vdN - s1 * vN
    X = np.empty((m1, m2, 2, *grid))
    np.multiply(A[:, None], vN, out=X[:, :, 0])
    X[:, :, 0] += B[:, None] * vdN
    np.multiply(uN[:, None], C, out=X[:, :, 1])
    del A, B, C
    X = X.reshape(m1, m2, 2, P, nel_u, q, nel_v, q).transpose(3, 4, 6, 2, 5, 7, 0, 1)
    X = X.reshape(n, 2 * q * q, m)
    K = X.transpose(0, 2, 1) @ X  # a rank-k update: exactly symmetric
    del X
    K *= W[:, :, None] * W[:, None, :]
    K = K.reshape(P, -1, m, m)
    K *= surface.alpha[stack].reshape(-1, 1, 1, 1)
    f = np.zeros_like(w)
    if data.f is not None:
        points = tab.points.reshape(P, -1, 3)
        for k, pid in enumerate(stack):
            f[k] = np.asarray(data.f(pid, points[k]), dtype=float).reshape(w.shape[1:])
    rows = np.stack([f * w, w]) / S  # (2, P, nel_u, nel_v, q, q)
    rows = Nu.transpose(0, 2, 1)[:, None] @ (rows @ Nv)  # (2, P, nel_u, nel_v, m1, m2)
    loads = rows.transpose(1, 2, 3, 0, 4, 5).reshape(n, 2, m) * W[:, None]
    return gidx, K, loads.reshape(P, -1, 2, m)


def assemble_volume(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Patchwise diffusion stiffness and source load, and the basis integrals
    when the surface has no Dirichlet edge.

    The matrix is block-diagonal by patch and is written straight into its
    CSR arrays: each patch block has the memoised pattern of its knot
    vectors (``_volume_pattern``), and each stack of patches sharing them
    (``patch_stacks``) is tabulated and summed into its values by one
    bincount.  Every entry and every load sums its patch's elements in
    element order, whatever the stacking.
    """
    surface, n = space.surface, space.total_dofs
    rhs, integrals = np.zeros(n), None if surface.has_dirichlet else np.zeros(n)
    patterns = [_volume_pattern(*_knot_key(patch.basis)) for patch in surface.patches]
    starts = np.cumsum([0] + [indices.size for _, indices, _ in patterns])
    dtype = _index_dtype(max(n, starts[-1]))
    indptr, indices = np.zeros(n + 1, dtype), np.empty(starts[-1], dtype)
    values = np.empty(starts[-1])
    for pid, (ptr, idx, _) in enumerate(patterns):
        rows, at = space.patch_slice(pid), slice(starts[pid], starts[pid + 1])
        indptr[rows.start + 1 : rows.stop + 1] = ptr[1:] + starts[pid]
        indices[at] = idx
        indices[at] += space.offsets[pid]
    for stack in patch_stacks(surface.patches):
        gidx, K, loads = _volume_blocks(space, data, stack)
        _, idx, slots = patterns[stack[0]]
        for pid, v in zip(stack, _csr_values(slots, idx.size, K)):
            values[starts[pid] : starts[pid + 1]] = v
        del K  # before the next stack's is built
        if data.f is not None:
            np.add.at(rhs, gidx, loads[..., 0, :])
        if integrals is not None:
            np.add.at(integrals, gidx, loads[..., 1, :])
    return SparseSystem(sp.csr_array((values, indices, indptr), shape=(n, n)), rhs, integrals)


def _side_terms(space: DgSpace, tab: SideTabulation, normal: np.ndarray):
    """Global indices (nel, m), values and normal derivatives (nel, q, m) of the trace functions.

    d = g^-1 J^T n is formed once per point.  ``normal`` (nel, q, 3) need not be
    the side's own conormal: an interface's right side takes the left's.
    """
    gidx = space.offsets[tab.pid] + tab.dofs
    jac, inv = tab.jacobian, tab.inv_metric
    t0, t1 = _dot(jac[..., 0], normal), _dot(jac[..., 1], normal)
    d0, d1 = (inv[..., r, 0] * t0 + inv[..., r, 1] * t1 for r in (0, 1))
    dn = tab.grads[..., 0] * d0[..., None] + tab.grads[..., 1] * d1[..., None]
    return gidx, tab.values, dn


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


def assemble_edges(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Interior-edge terms, weak Dirichlet terms (matrix and load) and Neumann loads.

    One ``tabulate_sides`` call covers every interior edge's left side, then
    its right side, then the Dirichlet sides and, when g_N is given, the
    Neumann sides, each in edge-list order.  An interior edge takes the left
    side's conormal as the shared direction, and its penalty weight is the
    arithmetic mean of the two diffusion coefficients.  The interior blocks
    couple 4(p+1) trace functions, the Dirichlet blocks 2(p+1).
    """
    surface, n = space.surface, space.total_dofs
    blocks, rhs = [], np.zeros(n)
    interior, dirichlet = surface.edges_of_kind("interior"), surface.edges_of_kind("dirichlet")
    neumann = surface.edges_of_kind("neumann") if data.g_N is not None else []
    slots = interface_slots(interior) + [(*e.left, False) for e in dirichlet + neumann]
    if not slots:
        return SparseSystem(_csr(n, blocks), rhs)
    tab = tabulate_sides(surface.patches, slots, space.degree + 1)
    left, right, bnd = tab.starts[np.cumsum([len(interior), len(interior), len(dirichlet)])]
    normal = tab.conormal.copy()
    normal[left:right] = tab.conormal[:left]
    gidx, values, dn = _side_terms(space, tab, normal)
    alpha, w = surface.alpha[tab.pid][..., None], tab.weights
    # Element ranges, each possibly empty: interior left, interior right, Dirichlet, Neumann.
    L, R, D, N = slice(0, left), slice(left, right), slice(right, bnd), slice(bnd, None)
    flux = 0.5 * alpha[:right] * dn[:right]
    pen = data.delta * edge_alpha(alpha[L, 0, 0], alpha[R, 0, 0]) / tab.chords[L]
    blocks.append((np.concatenate([gidx[L], gidx[R]], axis=-1), _sipg_blocks(
        np.concatenate([flux[L], flux[R]], axis=-1),
        np.concatenate([values[L], -values[R]], axis=-1), w[L], pen)))
    a_gamma, pen = alpha[D], data.delta / tab.chords[D]
    blocks.append((gidx[D], _sipg_blocks(a_gamma * dn[D], values[D], w[D], alpha[D, 0, 0] * pen)))
    if dirichlet and data.g_D is not None:
        gd = np.asarray(data.g_D(tab.points[D].reshape(-1, 3)), dtype=float)
        test = a_gamma * (pen[:, None, None] * values[D] - dn[D])
        np.add.at(rhs, gidx[D], ((gd.reshape(w[D].shape) * w[D])[:, None] @ test)[:, 0])
    if neumann:
        gn = np.asarray(data.g_N(tab.points[N].reshape(-1, 3)), dtype=float)
        np.add.at(rhs, gidx[N], ((gn.reshape(w[N].shape) * w[N])[:, None] @ values[N])[:, 0])
    return SparseSystem(_csr(n, blocks), rhs)


def assemble_system(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Full system: volume + edge contributions."""
    vol = assemble_volume(space, data)
    edges = assemble_edges(space, data)
    return SparseSystem(vol.matrix + edges.matrix, vol.rhs + edges.rhs, vol.basis_integrals)
