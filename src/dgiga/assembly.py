"""Interior-penalty assembly of the surface diffusion system.

Builds the symmetric system: patchwise diffusion stiffness, interface
consistency/symmetry and jump-penalty terms, weakly imposed Dirichlet
conditions of Nitsche type, and the load vector including Neumann data.
Each level has one CSR pattern, fixed by the mesh and the edge list before
any value (``_system_pattern``): the volume's Kronecker bands of two 1D
B-spline bands per patch, plus a cross block for every interior edge between
the trace functions of its two sides.
The volume terms of a stack of patches sharing both knot vectors come from
the weight-free factors of one tabulation (``tabulate_patches``) per work
unit, a run of element rows (``geometry.row_runs``; a stack within the
budget is one unit), on its (P, nu, nv) grid, with no rational-basis table,
and batched matmuls whose X batches are element-major copies, one per block
of the unit's element rows that fits ``geometry.STACK_BYTES``.  One
accumulator serves the volume pass: each block's element matrices go into
the band slots of the pattern as the block is made, and its loads and basis
integrals into each patch's slice of the vectors, one ``np.add.at`` each.
The edge terms are one pass over the one edge layout, ``edge_sides``, with
the 2(p+1) trace functions of each side element, and stay parametric: a
normal derivative is grad^ phi . g^-1 J^T n.  Their element matrices are
batched matmuls over the edge points, whose entries take their slots from
the same closed form.  Entries accumulate in a fixed order so serial
assembly is reproducible: a volume entry or load sums its patch's elements
in element-lexicographic order, an edge entry in block order from zero, and
a system entry is its volume value plus its edge sum.
"""

from __future__ import annotations

import itertools
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
    "assemble_volume",
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
    first, i = find_span(kv, kv.breaks[:-1]) - kv.degree, np.arange(kv.n)
    lo = first[np.searchsorted(first + kv.degree, i)]
    hi = first[np.searchsorted(first, i, side="right") - 1] + kv.degree
    return first, lo, hi - lo + 1


def _volume_pattern(basis_u: KnotVector, basis_v: KnotVector):
    """Patch-local CSR pattern of the volume stiffness, the slot of every
    element-matrix entry and the functions of every element, for one patch's
    knot vectors.

    The pattern is kron(band_v, band_u) in the k2-major DOF order, with sorted
    columns: entry (r, c) of row r = r2 n1 + r1 sits at indptr[r] +
    (c2 - lo_v[r2]) width_u[r1] + c1 - lo_u[r1].  ``slots`` (nel_u nel_v, m, m)
    and ``dofs`` (nel_u nel_v, m), the patch-local functions of each element
    window, follow the element and window order of ``_volume_blocks``;
    ``slots`` are in the patch-local index dtype (``_index_dtype``).
    Returns (indptr, indices, slots, dofs).
    """
    (fu, lo1, w1), (fv, lo2, w2) = _band(basis_u), _band(basis_v)
    n1, m1, m2 = basis_u.n, basis_u.degree + 1, basis_v.degree + 1
    indptr = np.concatenate([[0], np.cumsum(np.outer(w2, w1))])
    k1, k2 = fu[:, None] + np.arange(m1), fv[:, None] + np.arange(m2)  # element windows
    # Axes (e_u, e_v, a1, a2, b1, b2): rows (r2, r1) and columns (c2, c1).
    r1, c1 = k1[:, None, :, None, None, None], k1[:, None, None, None, :, None]
    r2, c2 = k2[None, :, None, :, None, None], k2[None, :, None, None, None, :]
    # slot = (indptr[r] - lo2[r2] w1[r1] - lo1[r1]) + c2 w1[r1] + c1, every term cast
    # to the slots' dtype first: only the last sum is full-size.
    dtype = _index_dtype(indptr[-1])
    at = (indptr[r2 * n1 + r1] - lo2[r2] * w1[r1] - lo1[r1]).astype(dtype)
    slots = (at + (c2 * w1[r1]).astype(dtype)) + c1.astype(dtype)
    cols = c2 * n1 + c1  # (nel_u, nel_v, 1, 1, m1, m2): the functions of each element
    indices = np.empty(indptr[-1], dtype)
    indices[slots] = cols  # every pattern entry is some element's entry
    return indptr, indices, slots.reshape(-1, m1 * m2, m1 * m2), cols.reshape(-1, m1 * m2)


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


def _inside(box, c2, c1):
    """Whether cells (k2, k1) lie in boxes (..., 4) = (k2 first, count, k1 first, count)."""
    return ((box[..., 0] <= c2) & (c2 < box[..., 0] + box[..., 1])
            & (box[..., 2] <= c1) & (c1 < box[..., 2] + box[..., 3]))


def _edge_boxes(space: DgSpace, edges, sigs, sig):
    """The boxes of the rows that ``edges`` reach, from the mesh alone.

    A row is reached when it is a trace function of an interior or Dirichlet
    side: one of the two layers of functions next to it.  Table row t, for
    rows[t] (ascending), holds box 0, the row's volume band, and box 1 + side,
    the other side's trace functions over the 1D band of the edge's knot
    vector (``_band``, mirrored if flipped): both layers against a first-layer
    row, the first against a second-layer row (the pairs left out are exact
    Cox-de Boor zeros).  A box is (k2 first, count, k1 first, count) in the
    grid of patch qid[t, box], which is -1 where there is no box.  Patch p has
    the knot vectors sigs[sig[p]].  Returns (reached, qid, boxes), ``reached``
    a mask over the rows.
    """
    n, off = space.total_dofs, space.offsets
    kvs = list(dict.fromkeys(kv for key in sigs for kv in key))
    lo, wd = (np.concatenate(a) for a in zip(*(_band(kv)[1:] for kv in kvs)))
    at = dict(zip(kvs, np.cumsum([0] + [kv.n for kv in kvs])))
    ku, kv, n1, n2 = np.array([(at[u], at[v], u.n, v.n) for u, v in sigs])[sig].T
    # A side from (patch, side, partner patch, partner side, flip); a side code indexes
    # SIDES (axis code // 2, end code % 2), and axis 0 runs along v.
    code = {side: i for i, side in enumerate(geometry.SIDES)}
    sides = np.array([x for e in edges if e.kind != "neumann" for x in (
        e.left[0], code[e.left[1]], *((e.right[0], code[e.right[1]]) if e.right else (-1, 0)),
        e.orientation_flip)], dtype=np.intp).reshape(-1, 5)
    P, S, Q, T, F = np.concatenate([sides, sides[sides[:, 2] >= 0][:, [2, 3, 0, 1, 4]]]).T
    v, w, q = S < 2, T < 2, np.maximum(Q, 0)
    along = np.where(v, n2[P], n1[P])
    # Each side's columns, repeated for each function of the two layers along it: patch,
    # offset, n1, whether along v, functions along, last index across, far end, its rows
    # of the 1D bands along and across, side, partner patch, partner along v, partner's
    # far end, flip, partner's functions across.
    count = 2 * along
    P, o, m, v, along, last, end, ka, kc, S, Q, w, T, F, nq = np.repeat(np.array([
        P, off[P], n1[P], v, along, np.where(v, n1[P], n2[P]) - 1, S % 2, np.where(v, kv[P], ku[P]),
        np.where(v, ku[P], kv[P]), S, Q, w, T % 2, F, np.where(w, n1[q], n2[q])]), count, 1)
    i = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    s, a = i // 2, i % 2  # the position along the side, the layer
    across = np.where(end, last - a, a)
    ka, kc = ka + s, kc + across  # the 1D bands along and across the side
    rows = o + np.where(v, s * m + across, across * m + s)
    tl, tw, nb = np.where(F, along - lo[ka] - wd[ka], lo[ka]), wd[ka], 2 - a
    al = np.where(T, nq - nb, 0)
    mark = np.zeros(n, bool)
    mark[rows] = True
    t, x = (np.cumsum(mark) - 1)[rows], Q >= 0
    qid = np.full((np.count_nonzero(mark), 5), -1, _index_dtype(n))
    boxes = np.zeros(qid.shape + (4,), qid.dtype)
    qid[t, 0] = P
    boxes[t, 0] = np.where(v, [lo[ka], wd[ka], lo[kc], wd[kc]], [lo[kc], wd[kc], lo[ka], wd[ka]]).T
    qid[t[x], 1 + S[x]] = Q[x]
    boxes[t[x], 1 + S[x]] = np.where(w, [tl, tw, al, nb], [al, nb, tl, tw]).T[x]
    return mark, qid, boxes


def _system_pattern(space: DgSpace, edges):
    """The level's CSR pattern, fixed by the mesh and ``edges`` before any value.

    Row r holds its volume band (``_volume_pattern``) and, where edges reach
    it, the boxes of ``_edge_boxes``.  r's boxes in one patch form a group,
    led by its first box; r lists its groups by patch offset, each group's
    cells row-major.  A group of one box is ranked in closed form, a union of
    several (a self-interface, a patch met twice) over its bounding box,
    through a table of its cells.

    Returns indptr, indices, each patch's (indptr, slots, dofs) of
    ``_volume_pattern``, ``own`` (where each row's band starts, in the band's
    own order) and the edge pass's (slots, shift, seg, moves): ``slots`` gives
    the slots of element matrices in a buffer over the rows that edges reach,
    whose row t holds the seg[t] values from slot shift[t] + its buffer start,
    and ``moves`` (from, to) carries a union's band values to their places once
    the volume is summed.
    """
    n, off = space.total_dofs, space.offsets
    keys = [_knot_key(p.basis) for p in space.surface.patches]
    sigs = list(dict.fromkeys(keys))  # each knot signature once
    sig = [sigs.index(key) for key in keys]
    built = [_volume_pattern(*key) for key in sigs]
    n1 = np.array([u.n for u, _ in sigs])[sig]
    mark, qid, boxes = _edge_boxes(space, edges, sigs, sig)
    trows = np.flatnonzero(mark)
    nt = trows.size
    rep, valid = np.tile(np.arange(5, dtype=np.int8), (nt, 1)), qid >= 0
    for k in range(1, 5):
        for j in range(k - 1, -1, -1):
            rep[:, k] = np.where(qid[:, j] == qid[:, k], j, rep[:, k])
    lead, first = valid & (rep == np.arange(5)), boxes[..., 0::2].copy()
    end, multi = first + boxes[..., 1::2], np.zeros((nt, 5), bool)
    r, k = np.nonzero(valid & ~lead)
    multi[r, rep[r, k]] = True
    np.minimum.at(first, (r, rep[r, k]), boxes[r, k, 0::2])  # the groups' bounding boxes
    np.maximum.at(end, (r, rep[r, k]), boxes[r, k, 0::2] + boxes[r, k, 1::2])
    ext = end - first
    del end
    size = np.where(lead, ext[..., 0] * ext[..., 1], 0)
    # The cells of every cross group and every union, row-major over the bounding box.
    gi = np.flatnonzero(lead & ((np.arange(5) > 0) | multi))
    area, w = size.ravel()[gi], ext[..., 1].ravel()[gi]
    f2, f1, cell0 = first[..., 0].ravel()[gi], first[..., 1].ravel()[gi], np.cumsum(area) - area
    k = np.arange(area.sum()) - np.repeat(cell0, area)  # each cell's index in its box
    c2, c1 = np.divmod(k, np.repeat(w, area))
    c2 += np.repeat(f2, area)
    c1 += np.repeat(f1, area)
    gc = np.repeat(gi, area)  # each cell's group, table row * 5 + box
    inside, m = slice(None), multi.ravel()[gc]  # every cell, but where a union has gaps
    if m.any():
        t, g = np.divmod(gc[m], 5)
        member = valid[t] & (rep[t] == g[:, None])
        inside = np.ones(gc.size, bool)
        inside[m] = (member & _inside(boxes[t], c2[m, None], c1[m, None])).any(1)
        size.ravel()[gi] = np.add.reduceat(inside, cell0)
        k = np.cumsum(inside) - inside
        k -= np.repeat(k[cell0], area)
    widths = [np.diff(ptr) for ptr, _, _, _ in built]
    rowlen = np.concatenate([widths[s] for s in sig])
    rowlen[trows] = size.sum(1)
    dtype = _index_dtype(max(n, int(rowlen.sum())))
    indptr = np.concatenate([[0], np.cumsum(rowlen)]).astype(dtype)
    # A group starts after the row's groups in lower patches (patch ids follow the offsets).
    start = indptr[trows, None] + (np.matmul((qid[:, :, None] > qid[:, None, :]).astype(size.dtype),
                                             size[:, :, None])[..., 0])
    own = indptr[:-1].copy()
    own[trows] = start[:, 0]
    slot = start.ravel()[gc] + k
    del k
    seg = rowlen[trows]
    shift = indptr[trows] - (np.cumsum(seg) - seg)  # a row's buffer slots from its slots
    base = start - shift[:, None] - first[..., 0] * ext[..., 1] - first[..., 1]
    moves, lut, cross = (np.empty(0, np.intp),) * 2, None, inside
    if m.any():  # a union's slots are looked up in ``lut`` at cell ``base + k2 wide + k1``
        lut = slot - shift[gc // 5]
        base.ravel()[gi] = np.where(multi.ravel()[gi], cell0 - f2 * w - f1, base.ravel()[gi])
        u = np.flatnonzero(gc % 5 == 0)  # cells of the unions in their rows' own patches
        band = boxes[gc[u] // 5, 0]
        go = _inside(band, c2[u], c1[u])
        moves = ((start[gc[u] // 5, 0] + (c2[u] - band[:, 0]) * band[:, 3] + c1[u]
                  - band[:, 2])[go], slot[u][go])
        cross = inside.copy()
        cross[u[go]] = False
    # The bands fill every slot that no cross cell takes, in row order, a run of patches
    # sharing a knot signature at a time.
    indices, free = np.empty(indptr[-1], dtype), np.ones(indptr[-1], bool)
    free[slot[cross]] = False
    band, at = np.empty(np.count_nonzero(free), dtype), 0
    for s, run in itertools.groupby(range(len(sig)), sig.__getitem__):
        run, idx = list(run), built[s][1]
        np.add(idx, off[run, None].astype(dtype), out=band[at : at + len(run) * idx.size]
               .reshape(len(run), -1))
        at += len(run) * idx.size
    indices[free] = band
    del free, band
    q = qid.ravel()[gc]
    indices[slot[inside]] = (off[q] + c2 * n1[q] + c1)[inside]
    del q, c2, c1, gc, slot
    r = np.arange(nt)[:, None]
    base, wide, multi = base[r, rep].astype(dtype), ext[r, rep, 1].astype(dtype), multi[r, rep]

    def slots(pid, dofs, side):
        """Buffer slots (E, H h, H h) of element matrices over functions of patches
        pid (E, H, 1), patch-local indices dofs (E, H, h), in H halves: the two
        sides of an interior edge, ``side`` (E, H, 1) their side codes, or a
        Dirichlet side."""
        E, H, h = dofs.shape
        t = (np.cumsum(mark) - 1)[off[pid] + dofs][..., None]
        g = (t, np.where(np.eye(H, dtype=bool)[:, None], 0, side[..., None]))  # each half's box
        c2, c1 = (c[:, None, None] for c in np.divmod(dofs, n1[pid]))
        at = base[g][..., None] + wide[g][..., None] * c2 + c1
        if lut is not None:
            sel = np.broadcast_to(multi[g][..., None], at.shape)
            at[sel] = lut[at[sel]]
        return at.reshape(E, H * h, H * h)

    patterns = [(built[s][0], built[s][2], built[s][3]) for s in sig]  # not the local indices
    return indptr, indices, patterns, own, (slots, shift, seg, moves)


def _assemble_volume(space: DgSpace, data: ProblemData, edges):
    """The volume terms in the pattern of ``_system_pattern(space, edges)``.

    Each stack of patches sharing both knot vectors (``patch_stacks``) is
    tabulated once per work unit, and each block of ``_volume_blocks`` is
    summed as it is made: one ``np.add.at`` adds its element matrices into
    the values, by the band slots of the patch's knot vectors
    (``_volume_pattern``) shifted to each row's band, and one its load and
    integral rows into each patch's slice of the vectors.  Every entry sums its
    patch's elements in element order, whatever the stacking.  Returns indptr,
    indices, the values, the vectors (load, basis integrals) and the pattern's
    edge part (``_system_pattern``).
    """
    surface, n = space.surface, space.total_dofs
    indptr, indices, patterns, own, edge = _system_pattern(space, edges)
    values, vectors = np.zeros(indptr[-1]), np.zeros(2 * n)
    for stack in patch_stacks(surface.patches):
        ptr, slots, dofs = patterns[stack[0]]
        # Flat intp indices into the values and each patch's vector slices: np.add.at's fast path.
        o = space.offsets[stack, None]
        shift = own[o + np.arange(ptr.size - 1)] - ptr[:-1]
        firsts = (o + [0, n]).astype(np.intp)[..., None, None]
        for elements, K, loads in _volume_blocks(space, data, stack):
            np.add.at(values, (shift[:, dofs[elements], None] + slots[elements]).reshape(-1),
                      K.reshape(-1))
            np.add.at(vectors, (firsts + dofs[elements]).reshape(-1), loads.reshape(-1))
    return indptr, indices, values, vectors, edge


def assemble_volume(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Patchwise diffusion stiffness and source load, and the basis integrals
    when the surface has no Dirichlet edge.

    Every volume term is patch-local, so the matrix is block-diagonal by patch,
    each block with the Kronecker band pattern of its knot vectors.
    """
    n = space.total_dofs
    indptr, indices, values, vectors, _ = _assemble_volume(space, data, [])
    return SparseSystem(sp.csr_array((values, indices, indptr), shape=(n, n)), vectors[:n],
                        None if space.surface.has_dirichlet else vectors[n:])


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
    Dirichlet blocks 2(p+1).  Returns the blocks, interior then Dirichlet, and
    the load.  A block is (pid, dofs, side, K, kept): its functions' patch ids
    and patch-local indices (E, H, h) in H halves (the two sides of an interior
    edge, or one Dirichlet side), each function's side in its edge (1 + index
    in ``geometry.SIDES``), the element matrices (E, H h, H h) and the entries
    kept.  An entry between two functions with zero trace on the edge element
    (exact Cox-de Boor zeros) is exactly 0.0 and is left out.
    """
    surface, n = space.surface, space.total_dofs
    sides = edge_sides(surface, space.degree + 1, neumann=data.g_N is not None)
    if sides is None:
        return [], np.zeros(n)
    tab, (L, R, D, N) = sides
    gidx, values, dn = _side_terms(space, tab, L.stop, R.stop)
    alpha, w = surface.alpha[tab.pid][..., None], tab.weights
    flux = 0.5 * alpha[: R.stop] * dn[: R.stop]
    pen = data.delta * edge_alpha(alpha[L, 0, 0], alpha[R, 0, 0]) / tab.chords[L]
    jump = np.concatenate([values[L], -values[R]], axis=-1)
    K_I = _sipg_blocks(np.concatenate([flux[L], flux[R]], axis=-1), jump, w[L], pen)
    a_gamma, pen = alpha[D], data.delta / tab.chords[D]
    K_D = _sipg_blocks(a_gamma * dn[D], values[D], w[D], alpha[D, 0, 0] * pen)
    side = np.zeros(tab.pid.shape, np.intp)  # 1 + index in SIDES on interior sides
    interior = interface_slots(surface.edges_of_kind("interior"))
    codes = [1 + geometry.SIDES.index(s) for _, s, _ in interior]
    side[: R.stop, 0] = np.repeat(codes, np.diff(tab.starts[: len(codes) + 1]))
    blocks = []
    for halves, trace, K in (((L, R), jump, K_I), ((D,), values[D], K_D)):
        traced = np.any(trace != 0.0, axis=1)  # (E, m): nonzero on the edge element
        pid, dofs, code = (np.stack([a[h] for h in halves], 1) for a in (tab.pid, tab.dofs, side))
        blocks.append((pid, dofs, code, K, traced[:, :, None] | traced[:, None, :]))
    load = np.zeros(gidx.shape)  # 0.0 on interior elements, which leaves every sum as it is
    if D.start < D.stop and data.g_D is not None:
        gd = np.asarray(data.g_D(tab.points[:, D].reshape(3, -1).T), dtype=float)
        test = a_gamma * (pen[:, None, None] * values[D] - dn[D])
        load[D] = ((gd.reshape(w[D].shape) * w[D])[:, None] @ test)[:, 0]
    if N.start < N.stop:
        gn = np.asarray(data.g_N(tab.points[:, N].reshape(3, -1).T), dtype=float)
        load[N] = ((gn.reshape(w[N].shape) * w[N])[:, None] @ values[N])[:, 0]
    rhs = np.zeros(n)
    np.add.at(rhs, gidx.reshape(-1), load.reshape(-1))  # gidx is intp
    return blocks, rhs


def assemble_system(space: DgSpace, data: ProblemData) -> SparseSystem:
    """Full system in the level's pattern (``_system_pattern``): the volume terms
    summed into it, then the edge terms summed from zero in block order into a
    buffer over the rows that edges reach (a flat ``np.add.at`` per block), each
    sum added once, so an entry is its volume value plus its edge sum."""
    n = space.total_dofs
    indptr, indices, values, vectors, (slots, shift, seg, (pre, post)) = _assemble_volume(
        space, data, space.surface.edges)
    moved = values[pre]  # the bands of unions in a row's own patch
    values[pre] = 0.0
    values[post] = moved
    blocks, rhs = _edge_terms(space, data)
    sums = np.zeros(seg.sum())
    while blocks:  # interior, then Dirichlet; each block freed once summed
        pid, dofs, side, K, kept = blocks.pop(0)
        np.add.at(sums, slots(pid, dofs, side)[kept], K[kept])
    values[np.repeat(shift, seg) + np.arange(sums.size)] += sums
    return SparseSystem(sp.csr_array((values, indices, indptr), shape=(n, n)),
                        vectors[:n] + rhs, None if space.surface.has_dirichlet else vectors[n:])
