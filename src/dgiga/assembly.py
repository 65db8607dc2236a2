"""Interior-penalty assembly of the surface diffusion system.

``assemble_system`` builds the symmetric system: patchwise diffusion
stiffness, interface consistency/symmetry and jump-penalty terms, weakly
imposed Dirichlet conditions of Nitsche type, and the load vector including
Neumann data; on a surface with no edges, the volume terms alone.
The edge terms are one pass over the one edge layout, ``edge_sides``, with
the 2(p+1) trace functions of each side element, and stay parametric: a
normal derivative is grad^ phi . g^-1 J^T n.  Their entries are summed at
their distinct keys r n + c, and each level has one CSR pattern, fixed
before any value (``_system_pattern``): every row's volume band, the
Kronecker product of two 1D B-spline bands, plus the keys it does not hold.
The volume terms of a stack of patches sharing both knot vectors come from
the weight-free factors of one tabulation (``tabulate_patches``) per work
unit, a run of element rows (``geometry.row_runs``; a stack within the
budget is one unit), on its (P, nu, nv) grid, with no rational-basis table,
and batched matmuls whose X batches are element-major copies, one per block
of the unit's element rows that fits ``geometry.STACK_BYTES``.  One
accumulator serves the volume pass: each block's element matrices go where
their rows' bands start plus their ranks there (``_volume_pattern``) as the
block is made, and its loads and basis integrals into each patch's slice of
the vectors, one ``np.add.at`` each.
Entries accumulate in a fixed order so serial assembly is reproducible: a
volume entry or load sums its patch's elements in element-lexicographic
order, an edge entry in block order from zero, and a system entry is its
volume value plus its edge sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import geometry
from .geometry import (SideTabulation, _dot, _elements, _knot_key, _window_weights,
                       patch_stacks, row_runs, tabulate_patches, tabulate_sides)
from .space import DgSpace
from .splines import KnotVector, find_span

__all__ = [
    "ProblemData",
    "SparseSystem",
    "default_penalty",
    "assemble_system",
]


def default_penalty(p: int) -> float:
    """Default jump-penalty coefficient 2(p+2)(p+1)."""
    if p < 1:
        raise ValueError("degree must be at least 1")
    return 2.0 * (p + 2) * (p + 1)


@dataclass(kw_only=True)
class ProblemData:
    """Problem data: source, boundary data, penalty, optional exact solution.

    ``f`` is called once per work unit of the volume pass (a stack of patches,
    or a run of a larger patch's element rows) as f(patch_ids, points), with
    points (N, 3) and each point's patch id (N,); boundary data and the
    exact solution take only the points.  Missing callables are zero data.
    ``delta`` has no default: the coercive range grows with p (``default_penalty``).
    """

    f: Callable | None = None
    g_D: Callable | None = None
    g_N: Callable | None = None
    delta: float
    u_exact: Callable | None = None
    grad_u_exact: Callable | None = None

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"penalty parameter must be positive and finite, got {self.delta}")


@dataclass
class SparseSystem:
    """Assembled symmetric matrix (CSR, sorted and duplicate-free, with a pattern
    fixed by the mesh and the edge list before any value) and right-hand side.

    Without a Dirichlet edge the constants span the nullspace of the matrix;
    ``basis_integrals`` then holds m_i, the integral of basis function i,
    which fixes the constant of the solution.  It is None otherwise.
    """

    matrix: sp.csr_array
    rhs: np.ndarray
    basis_integrals: np.ndarray | None


def _index_dtype(n: int):
    """int32 when every index below n fits in it, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _band(kv: KnotVector):
    """First active function of every element, and the first column and width of
    every row of the 1D coupling band: row i holds the functions that share an
    element with function i, a contiguous range as the windows are."""
    first, p, i = find_span(kv, kv.breaks[:-1]) - kv.degree, kv.degree, np.arange(kv.n)
    starts = np.zeros(kv.n, bool)
    starts[first] = True  # the first element starting at i - p or later, the last at i or before
    lo = np.minimum.accumulate(np.where(starts, i, kv.n)[::-1])[::-1][np.maximum(i - p, 0)]
    hi = np.maximum.accumulate(np.where(starts, i, 0)) + p
    return first, lo, hi - lo + 1


def _ranges(starts, counts):
    """The ranges [start, start + count), one after another, in the dtype of ``starts``."""
    out = np.repeat((starts - np.cumsum(counts) + counts).astype(starts.dtype), counts)
    out += np.arange(out.size, dtype=out.dtype)
    return out


def _volume_pattern(basis_u: KnotVector, basis_v: KnotVector):
    """Every element-matrix entry's rank in its row's volume band, and each
    element's functions, for one patch's knot vectors.

    The band of row r = r2 n1 + r1 is row r of kron(band_v, band_u) in the
    k2-major DOF order, with sorted columns (``_band_columns``): entry (r, c)
    has rank (c2 - lo_v[r2]) w_u[r1] + c1 - lo_u[r1] there, with the starts lo
    and widths w of the 1D bands (``_band``), below w_u w_v <= (2p+1)^2.
    ``ranks`` (nel_u nel_v, m, m), in the smallest unsigned type that holds
    w_u w_v (uint8 up to p = 7), and ``dofs`` (nel_u nel_v, m) follow the
    element and window order of ``_volume_blocks``.
    """
    (fu, lo1, w1), (fv, lo2, w2) = _band(basis_u), _band(basis_v)
    n1, m1, m2 = basis_u.n, basis_u.degree + 1, basis_v.degree + 1
    k1, k2 = fu[:, None] + np.arange(m1), fv[:, None] + np.arange(m2)  # element windows
    # Axes (e_u, e_v, a1, a2, b1, b2): rows (r2, r1) and columns (c2, c1).
    r1, c1 = k1[:, None, :, None, None, None], k1[:, None, None, None, :, None]
    r2, c2 = k2[None, :, None, :, None, None], k2[None, :, None, None, None, :]
    # Both terms cast to the ranks' dtype first: only their sum is full-size.
    dtype = np.min_scalar_type(w1.max() * w2.max())
    ranks = ((c2 - lo2[r2]) * w1[r1]).astype(dtype) + (c1 - lo1[r1]).astype(dtype)
    cols = c2 * n1 + c1  # (nel_u, nel_v, 1, 1, m1, m2): the functions of each element
    return ranks.reshape(-1, m1 * m2, m1 * m2), cols.reshape(-1, m1 * m2)


def _band_columns(basis_u: KnotVector, basis_v: KnotVector):
    """Patch-local column indices of the volume pattern (``_volume_pattern``), row by
    row: row (r2, r1) is w2[r2] runs of w1[r1] columns, run c2 from c2 n1 + lo1[r1],
    with the starts lo and widths w of the 1D bands (``_band``)."""
    (_, lo1, w1), (_, lo2, w2) = _band(basis_u), _band(basis_v)
    n1, n2 = basis_u.n, basis_v.n
    runs = np.repeat(w2, n1)
    starts = _ranges(np.repeat(lo2, n1), runs)
    starts *= n1
    starts += np.repeat(np.tile(lo1, n2), runs)
    return _ranges(starts.astype(_index_dtype(n1 * n2)), np.repeat(np.tile(w1, n2), runs))


def _volume_blocks(space: DgSpace, data: ProblemData, stack: list[int]):
    """Volume terms of a stack of patches that share both knot vectors, by blocks.

    Yields (elements, K, rows) per block: a slice of the stack's elements,
    their stiffness matrices (P, E_b, m, m) and rows (P, 2, E_b, m) holding
    each element's load and basis integrals, both from psi = N_u N_v / S,
    where the rational basis is R = W psi.  With w g^-1 = C^T C per Gauss
    point (C upper triangular, closed form), X = C grad psi is built with the
    function axes outermost, so every elementwise step runs over the grid
    points; K_e = alpha W_a W_b (X^T X)_ab, the weights applied as one exactly
    symmetric factor after the matmul and alpha last.  Each work unit, a run
    of u-element rows (``row_runs``), is tabulated once and its rows contract
    (f w / S, w / S) with the 1D tables; a block is as many of its rows as
    fit their X in ``geometry.STACK_BYTES`` (read at call time, at least one).
    """
    surface, q = space.surface, space.degree + 1
    patches = [surface.patches[pid] for pid in stack]
    P, kv_u, kv_v = len(stack), patches[0].basis.basis_u, patches[0].basis.basis_v
    nel_v, m1, m2 = kv_v.num_elements, kv_u.degree + 1, kv_v.degree + 1
    m, alpha = m1 * m2, surface.alpha[stack].reshape(-1, 1, 1, 1)
    block = max(1, geometry.STACK_BYTES // (16 * q * q * m * nel_v * P))
    for run in row_runs(patches):
        tab = tabulate_patches(patches, q, rows=run)
        Nu, dNu, Nv, dNv, S, Su, Sv, W = tab.factors
        W = _window_weights(W, tab.first_u[::q, 0], tab.first_v[::q], m1, m2).reshape(P, -1, m)
        w, f = tab.weights, 0.0
        if data.f is not None:  # one call per unit, one patch id per point
            pids = np.repeat(stack, w[0].size)
            f = np.asarray(data.f(pids, tab.points.reshape(3, -1).T), dtype=float).reshape(w.shape)
        rows = _elements(np.stack([f * w, w]) / S, q, q)  # (2, P, nel_u, nel_v, q, q)
        rows = Nu.transpose(0, 2, 1)[:, None] @ (rows @ Nv)  # (2, P, nel_u, nel_v, m1, m2)
        loads = rows.transpose(1, 0, 2, 3, 4, 5).reshape(P, 2, -1, m) * W[:, None]
        r = np.sqrt(w / tab.inv_metric[0, 0]) / S
        c00, c01, c11 = tab.inv_metric[0, 0] * r, tab.inv_metric[0, 1] * r, r / tab.sqrt_det_g
        s0, s1 = (c00 * Su + c01 * Sv) / S, c11 * Sv / S
        del tab, w, f, r, rows  # the rest needs only these coefficients and the factors
        # Function axes first, then the grid points: every elementwise loop runs
        # along the v points.  X_0 = A N_v + B dN_v, X_1 = N_u C.
        uN, udN = (np.ascontiguousarray(t.reshape(-1, m1).T)[:, None, :, None] for t in (Nu, dNu))
        vN, vdN = (np.ascontiguousarray(t.reshape(-1, m2).T)[:, None, None] for t in (Nv, dNv))
        for first in range(0, run.stop - run.start, block):  # X in blocks of element rows
            last = min(first + block, run.stop - run.start)
            g, e = slice(first * q, last * q), slice(first * nel_v, last * nel_v)
            ug, udg = uN[:, :, g], udN[:, :, g]
            A = c00[:, g] * udg - s0[:, g] * ug
            B = c01[:, g] * ug
            C = c11[:, g] * vdN - s1[:, g] * vN
            X = np.empty((m1, m2, 2) + A.shape[1:])
            np.multiply(A[:, None], vN, out=X[:, :, 0])
            X[:, :, 0] += np.multiply(B[:, None], vdN, out=X[:, :, 1])  # X_1 as scratch
            np.multiply(ug[:, None], C, out=X[:, :, 1])
            del A, B, C
            X = _elements(X, q, q).transpose(3, 4, 5, 2, 6, 7, 0, 1).reshape(P, -1, 2 * q * q, m)
            K = X.transpose(0, 1, 3, 2) @ X  # a rank-k update: exactly symmetric
            del X
            K *= W[:, e, :, None] * W[:, e, None, :]
            K *= alpha
            yield slice((run.start + first) * nel_v, (run.start + last) * nel_v), K, loads[:, :, e]
            del K
        del c00, c01, c11, s0, s1  # before the next unit is tabulated


def _system_pattern(space: DgSpace, keys: np.ndarray):
    """The level's CSR pattern: each row's volume band and the distinct edge keys
    r n + c (sorted) that the band does not hold, fixed before any value.

    Row r's band (``_volume_pattern``) is a box in its patch's grid: w2 k2-lines
    from line a2 by w1 functions from k1 = a1, the starts and widths of the 1D
    bands (``_band``), the lines numbered over all patches.  A key's column on
    line c2 at k1 = c1 has below = clip(c2 - a2, 0, w2) w1 + [a2 <= c2 < a2 + w2]
    clip(c1 - a1, 0, w1) band columns before it (its rank in the band where the
    band holds it; a column of another patch falls before or after the box).
    Its slot is where r's band starts among the bands alone, plus below, plus
    the keys new to their bands before it: the keys are sorted.

    Returns indptr, ``own`` (intp: where each row's band starts, so a volume
    entry's slot is own[row] plus its rank), the keys' slots, the new keys'
    slots and columns, the rows that have a new key inside their band (a
    self-interface, a patch met twice) and those rows' band slots from own.
    """
    n, off = space.total_dofs, space.offsets
    keyed = [_knot_key(p.basis) for p in space.surface.patches]
    tables = {}
    for u, v in dict.fromkeys(keyed):  # per function: k2, a2, w2 of its k2 and k1, a1, w1 of its k1
        V, U = (np.stack([np.arange(kv.n), *_band(kv)[1:]]) for kv in (v, u))
        tables[u, v] = np.concatenate(np.broadcast_arrays(V[:, :, None], U[:, None, :]))
    table = np.concatenate([tables[key].reshape(6, -1) for key in keyed], 1).astype(_index_dtype(n))
    lines = np.array([v.n for _, v in keyed])
    table[:2] += np.repeat(np.cumsum(lines) - lines, np.diff(off)).astype(table.dtype)
    bandlen = table[2] * table[5]
    row, col = np.divmod(keys, n)
    line, k1 = table[[0, 3]].take(col, axis=1)
    a2, w2, a1, w1 = table[[1, 2, 4, 5]].take(row, axis=1)
    del tables, table
    d2, d1 = line - a2, k1 - a1  # from the band box's corner
    in2 = (0 <= d2) & (d2 < w2)
    new = ~(in2 & (0 <= d1) & (d1 < w1))
    below = np.clip(d2, 0, w2) * w1 + in2 * np.clip(d1, 0, w1)
    del line, k1, a2, a1, d2, d1, in2
    rowlen = bandlen + np.bincount(row[new], minlength=n)
    dtype = _index_dtype(max(n, int(rowlen.sum())))
    indptr = np.concatenate([[0], np.cumsum(rowlen)]).astype(dtype)
    slots = (np.cumsum(bandlen, dtype=dtype) - bandlen).take(row)
    slots += below
    slots += np.cumsum(new, dtype=dtype)
    slots -= new
    own = indptr[:-1] + np.bincount(row[new & (below == 0)], minlength=n)  # intp
    moved = np.flatnonzero(np.bincount(row[new & (0 < below) & (below < w2 * w1)], minlength=n))
    return indptr, own, slots, slots[new], col[new], moved, _ranges(own[moved], bandlen[moved])


def _side_terms(space: DgSpace, tab: SideTabulation, left: int, right: int):
    """Global indices (nel, m), values and normal derivatives (nel, q, m) of the trace functions.

    Elements [0, left) are interior edges' left sides, [left, right) their right
    sides in the same order: both take the left conormal n, every other element
    its own.  d = g^-1 J^T n is formed once per point.
    """
    normal = np.concatenate([tab.conormal[:, :left]] * 2 + [tab.conormal[:, right:]], axis=1)
    gidx = space.offsets[tab.pid] + tab.dofs
    jac, inv = tab.jacobian, tab.inv_metric
    t0, t1 = _dot(jac[:, 0], normal), _dot(jac[:, 1], normal)
    d0, d1 = (inv[r, 0] * t0 + inv[r, 1] * t1 for r in (0, 1))
    dn = tab.grads[0] * d0[..., None] + tab.grads[1] * d1[..., None]
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


def edge_sides(surface, q: int, coeffs=None, neumann: bool = False):
    """The one edge layout, by one ``tabulate_sides`` call (``coeffs`` as there):
    each interior edge's left side, then its right side with its flip, then the
    Dirichlet sides and, with ``neumann``, the Neumann sides, in edge-list order.
    Returns the tabulation and its (possibly empty) element ranges (L, R, D, N), or None."""
    interior, dirichlet = surface.edges_of_kind("interior"), surface.edges_of_kind("dirichlet")
    boundary = dirichlet + (surface.edges_of_kind("neumann") if neumann else [])
    slots = interface_slots(interior) + [(*e.left, False) for e in boundary]
    if not slots:
        return None
    tab, ni = tabulate_sides(surface.patches, slots, q, coeffs), len(interior)
    cuts = tab.starts[[0, ni, 2 * ni, 2 * ni + len(dirichlet), len(slots)]]
    return tab, tuple(slice(a, b) for a, b in zip(cuts[:-1], cuts[1:]))


def _edge_terms(space: DgSpace, data: ProblemData):
    """Interior-edge terms, weak Dirichlet terms (matrix and load) and Neumann loads.

    The sides are ``edge_sides``'s, the Neumann ones when g_N is given.
    ``_side_terms`` gives both sides of an interior edge its left conormal,
    and the edge's penalty weight is the arithmetic mean of the two diffusion
    coefficients.  The interior blocks couple 4(p+1) trace functions, the
    Dirichlet blocks 2(p+1).  Returns the keys r n + c (int32 while n^2 fits)
    and the values of the element-matrix entries, interior blocks then
    Dirichlet blocks, each in element order, and the load.  An entry between
    two functions with zero trace on the edge element (exact Cox-de Boor
    zeros, the second layer of functions next to the side) is exactly 0.0 and
    is left out.  The load comes first, so the side tabulation is freed before
    the blocks, and each block's K once its kept entries are taken.
    """
    surface, n = space.surface, space.total_dofs
    sides = edge_sides(surface, space.degree + 1, neumann=data.g_N is not None)
    if sides is None:
        return np.empty(0, _index_dtype(n * n)), np.empty(0), np.zeros(n)
    tab, (L, R, D, N) = sides
    gidx, values, dn = _side_terms(space, tab, L.stop, R.stop)
    alpha, w, chords = surface.alpha[tab.pid][..., None], tab.weights, tab.chords
    pen = data.delta / chords[D]
    load = np.zeros(gidx.shape)  # 0.0 on interior elements, which leaves every sum as it is
    if D.start < D.stop and data.g_D is not None:
        gd = np.asarray(data.g_D(tab.points[:, D].reshape(3, -1).T), dtype=float)
        test = alpha[D] * (pen[:, None, None] * values[D] - dn[D])
        load[D] = ((gd.reshape(w[D].shape) * w[D])[:, None] @ test)[:, 0]
    if N.start < N.stop:
        gn = np.asarray(data.g_N(tab.points[:, N].reshape(3, -1).T), dtype=float)
        load[N] = ((gn.reshape(w[N].shape) * w[N])[:, None] @ values[N])[:, 0]
    rhs = np.zeros(n)
    np.add.at(rhs, gidx.reshape(-1), load.reshape(-1))  # gidx is intp
    del tab, load  # the blocks need no points, Jacobians or basis gradients
    g, flux = gidx.astype(_index_dtype(n * n)), 0.5 * alpha[: R.stop] * dn[: R.stop]
    blocks = ((np.concatenate([g[L], g[R]], -1), np.concatenate([values[L], -values[R]], -1),
               np.concatenate([flux[L], flux[R]], -1), w[L],
               data.delta * edge_alpha(alpha[L, 0, 0], alpha[R, 0, 0]) / chords[L]),
              (g[D], values[D], alpha[D] * dn[D], w[D], alpha[D, 0, 0] * pen))
    del gidx, g, values, dn, flux
    keys, entries = [], []
    for dofs, trace, flux, weights, pen in blocks:
        K = _sipg_blocks(flux, trace, weights, pen)
        traced = np.any(trace != 0.0, axis=1)  # (E, m): nonzero on the edge element
        kept = traced[:, :, None] | traced[:, None, :]
        keys.append((dofs[:, :, None] * n + dofs[:, None, :])[kept])
        entries.append(K[kept])
        del K  # before the next block's K is built
    return np.concatenate(keys), np.concatenate(entries), rhs


def assemble_system(space: DgSpace, data: ProblemData) -> SparseSystem:
    """The system in the level's pattern (``_system_pattern``) of the distinct
    edge keys, and the basis integrals when the surface has no Dirichlet edge.

    The edge entries are summed at their keys from zero in block order (a
    stable sort and one ``np.bincount``, which adds in input order).  Each
    block of ``_volume_blocks`` is summed as it is made, one ``np.add.at``
    adding its element matrices at own[row] plus their band ranks, one its
    load and integral rows into each patch's slice of the vectors.  Then the
    band columns (``_band_columns``) fill every slot no new key takes, in row
    order, the band values of rows with a new key inside their band move to
    the same places, and each edge sum is added once.
    """
    surface, n, off = space.surface, space.total_dofs, space.offsets
    keys, entries, rhs = _edge_terms(space, data)
    # Not np.unique's inverse: its cumsum - 1 on a temporary of 256 KB or more has
    # numpy's temporary elision walk the C stack, which maps the unwind tables of
    # every library (about 0.6 MB of resident memory) before the volume pass.
    order = np.argsort(keys, kind="stable")  # equal keys in block order
    keys = keys[order]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    sums = np.bincount(np.cumsum(first), entries[order])[1:]
    keys = keys[first]
    del order, first, entries  # before the volume pass, as are the keys
    indptr, own, slots, taken, cols, moved, pre = _system_pattern(space, keys)
    del keys
    keyed = [_knot_key(p.basis) for p in surface.patches]
    patterns = {key: _volume_pattern(*key) for key in dict.fromkeys(keyed)}
    values, vectors = np.zeros(indptr[-1]), np.zeros(2 * n)
    for stack in patch_stacks(surface.patches):
        ranks, dofs = patterns[keyed[stack[0]]]
        # Flat intp indices into the values and each patch's vector slices: np.add.at's fast path.
        o = off[stack, None]
        starts = own[o + np.arange(off[stack[0] + 1] - off[stack[0]])]
        firsts = (o + [0, n]).astype(np.intp)[..., None, None]
        for elements, K, loads in _volume_blocks(space, data, stack):
            np.add.at(values, (starts[:, dofs[elements], None] + ranks[elements]).reshape(-1),
                      K.reshape(-1))
            np.add.at(vectors, (firsts + dofs[elements]).reshape(-1), loads.reshape(-1))
    del patterns, own, starts, ranks, dofs, K, loads  # before the indices are made
    indices, free = np.empty(indptr[-1], indptr.dtype), np.ones(indptr[-1], bool)
    free[taken] = False
    columns = {key: _band_columns(*key) for key in dict.fromkeys(keyed)}
    for p, key in enumerate(keyed):
        at = slice(indptr[off[p]], indptr[off[p + 1]])
        indices[at][free[at]] = np.add(columns[key], off[p], dtype=indptr.dtype)
    indices[taken] = cols
    post = _ranges(indptr[moved], indptr[moved + 1] - indptr[moved])
    moving = values[pre]
    values[pre] = 0.0
    values[post[free[post]]] = moving
    values[slots] += sums
    return SparseSystem(sp.csr_array((values, indices, indptr), shape=(n, n)),
                        vectors[:n] + rhs, None if surface.has_dirichlet else vectors[n:])
