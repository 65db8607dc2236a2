"""Edge passes and refinement are batched per knot signature.

The edge assembly (interior, Dirichlet and Neumann sides together) and the
jump terms of the energy error (interior and Dirichlet sides together) each
tabulate their sides with one side-grid call per (fixed axis, knot
vectors) group and call their boundary data once, however many edges the
layout has.  Edge element matrices couple only the trace functions.
Refinement builds one insertion matrix per distinct knot vector.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from test_geometry import seeded_grid

import dgiga.assembly
import dgiga.geometry
import dgiga.splines
from dgiga.analysis import dg_error
from dgiga.assembly import _index_dtype, assemble_edges
from dgiga.driver import run_sweep
from dgiga.problems import make_problem
from dgiga.space import build_space


def knot_group(surface, pid, side):
    basis = surface.patches[pid].basis
    axis = dgiga.geometry.SIDES.index(side) // 2
    return axis, basis.basis_u.knots.tobytes(), basis.basis_v.knots.tobytes()


def groups(surface, sides):
    return len({knot_group(surface, pid, side) for pid, side in sides})


def expected_kernel_calls(surface):
    """One call per group in each of the two edge passes."""
    interior = surface.edges_of_kind("interior")
    jumps = [e.left for e in interior] + [e.right for e in interior]
    jumps += [e.left for e in surface.edges_of_kind("dirichlet")]
    sides = jumps + [e.left for e in surface.edges_of_kind("neumann")]
    return groups(surface, sides) + groups(surface, jumps)


def edge_elements(surface, kind):
    return sum(surface.patches[pid].side_knots(side).num_elements
               for pid, side in (e.left for e in surface.edges_of_kind(kind)))


class Counter:
    def __init__(self, fn=None):
        self.calls, self.fn = 0, fn

    def __call__(self, *args):
        self.calls += 1
        if self.fn is not None:
            return self.fn(*args)
        return np.zeros(len(args[-1]))


def counting_sweep(surface, monkeypatch, levels=3):
    """Per level: side-kernel calls, calls of g_D, g_N and u_exact, and the
    accumulated elements keyed by element-matrix entries."""
    kernel = Counter(dgiga.geometry._side_grid)
    monkeypatch.setattr(dgiga.geometry, "_side_grid", kernel)
    blocks = {}
    csr, csr_values = dgiga.assembly._csr, dgiga.assembly._csr_values

    def count(local):
        entries = local.shape[-1] * local.shape[-2]
        blocks[entries] = blocks.get(entries, 0) + local.size // entries

    def counting_csr(n, pairs):
        pairs = list(pairs)
        for _, local in pairs:
            count(local)
        return csr(n, pairs)

    def counting_csr_values(slots, nnz, K):
        count(K)
        return csr_values(slots, nnz, K)

    # Edge blocks go through _csr, volume blocks through _csr_values.
    monkeypatch.setattr(dgiga.assembly, "_csr", counting_csr)
    monkeypatch.setattr(dgiga.assembly, "_csr_values", counting_csr_values)
    counters = {}

    def factory(surf, delta):
        data = make_problem("plane_sine", surf, 2, delta)
        counters.update(g_D=Counter(data.g_D), g_N=Counter(), u_exact=Counter(data.u_exact))
        data.g_D, data.g_N, data.u_exact = counters["g_D"], counters["g_N"], counters["u_exact"]
        return data

    records = []

    def collect(result):
        records.append(dict(kernel=kernel.calls, blocks=dict(blocks), surface=result.surface,
                            **{k: c.calls for k, c in counters.items()}))
        kernel.calls = 0
        blocks.clear()

    run_sweep(surface, 2, factory, levels=levels, collect=collect)
    return records


@pytest.mark.parametrize("n", [4, 8])
def test_side_kernel_calls_per_level_do_not_grow_with_edges(monkeypatch, n):
    surface = seeded_grid(7, n)
    sides = [(p.id, side) for p in surface.patches for side in dgiga.geometry.SIDES]
    assert groups(surface, sides) == 4  # 2 fixed axes x 2 knot signatures
    expected = expected_kernel_calls(surface)
    assert expected <= 2 * 4  # passes x groups; the layouts have 40 and 144 edges
    records = counting_sweep(surface, monkeypatch)
    assert [r["kernel"] for r in records] == [expected] * 3
    for record in records:
        # p = 2: 9 x 9 volume blocks; edge blocks couple the 2(p + 1) = 6
        # trace functions of each side, so 12 x 12 on an interface element
        # and 6 x 6 on a Dirichlet element.
        level = record["surface"]
        assert record["blocks"] == {
            81: sum(p.basis.basis_u.num_elements * p.basis.basis_v.num_elements
                    for p in level.patches),
            144: edge_elements(level, "interior"),
            36: edge_elements(level, "dirichlet"),
        }


def test_boundary_data_is_called_once_per_pass(monkeypatch):
    surface = seeded_grid(7, 8)
    for record in counting_sweep(surface, monkeypatch):
        # Dirichlet assembly and Dirichlet jumps; Neumann assembly; only the
        # error pass calls u_exact when g_D is given, once per patch stack.
        assert record["g_D"] == 2
        assert record["g_N"] == 1
        stacks = len(dgiga.geometry.patch_stacks(surface.patches))
        assert record["u_exact"] == stacks < surface.num_patches
        surface = dgiga.geometry.refine_surface(surface)


def test_refinement_inserts_knots_once_per_knot_vector(monkeypatch):
    surface = seeded_grid(7, 8)
    dgiga.splines.midpoint_refine.cache_clear()
    insert = Counter(dgiga.splines.insert_knots)
    monkeypatch.setattr(dgiga.splines, "insert_knots", insert)
    for _ in range(2):
        knots = {(kv.degree, kv.knots.tobytes()) for p in surface.patches
                 for kv in (p.basis.basis_u, p.basis.basis_v)}
        assert len(knots) == 3  # u, reversed u and v; 64 patches
        insert.calls = 0
        surface = dgiga.geometry.refine_surface(surface)
        assert insert.calls == len(knots)


def test_memoised_refinement_is_bit_identical(monkeypatch):
    surface = seeded_grid(7, 8)
    memoised = dgiga.geometry.refine_surface(dgiga.geometry.refine_surface(surface))

    def fresh(kv):
        bp = dgiga.splines.breakpoints(kv)
        return dgiga.splines.insert_knots(kv, 0.5 * (bp[:-1] + bp[1:]))

    monkeypatch.setattr(dgiga.geometry, "midpoint_refine", fresh)
    reference = dgiga.geometry.refine_surface(dgiga.geometry.refine_surface(surface))
    for got, want in zip(memoised.patches, reference.patches):
        for a, b in ((got.control_points, want.control_points),
                     (got.basis.weights, want.basis.weights),
                     (got.basis.basis_u.knots, want.basis.basis_u.knots),
                     (got.basis.basis_v.knots, want.basis.basis_v.knots)):
            assert a.tobytes() == b.tobytes()
    kv, T = dgiga.splines.midpoint_refine(surface.patches[0].basis.basis_u)
    assert not T.flags.writeable and not kv.knots.flags.writeable


def test_jump_error_calls_exact_solution_once():
    surface = seeded_grid(7, 8)
    space = build_space(surface, 2)
    data = make_problem("plane_sine", surface, 2, 24.0)
    u_exact = Counter(data.u_exact)
    dg_error(space.function(), u_exact, data.grad_u_exact, 24.0)
    assert u_exact.calls == 1


def test_coo_index_dtype_never_truncates():
    limit = np.iinfo(np.int32).max
    assert _index_dtype(1) is np.int32
    assert _index_dtype(limit) is np.int32
    assert _index_dtype(limit + 1) is np.int64
    big = np.array([limit + 7])
    assert big.astype(_index_dtype(limit + 8))[0] == limit + 7


def test_coo_build_uses_int32_indices(monkeypatch):
    seen = []
    real = sp.coo_array

    def spy(arg, shape):
        _, (rows, cols) = arg
        seen.append((rows.dtype, cols.dtype))
        return real(arg, shape=shape)

    monkeypatch.setattr(sp, "coo_array", spy)
    surface = seeded_grid(7, 4)
    assemble_edges(build_space(surface, 2), make_problem("plane_sine", surface, 2, 24.0))
    assert seen == [(np.int32, np.int32)]
