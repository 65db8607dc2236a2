"""Edge passes and refinement are batched per knot signature.

Interior assembly, Dirichlet and Neumann assembly and the two jump terms
of the energy error each tabulate their sides with one side-grid call per
(fixed axis, knot vectors) group and call their boundary data once, however
many edges the layout has.  Refinement builds one insertion matrix per
distinct knot vector.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from test_geometry import seeded_grid

import dgiga.geometry
import dgiga.splines
from dgiga.analysis import dg_error
from dgiga.assembly import _index_dtype, assemble_interface
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
    """One call per group in each of the five edge passes."""
    interior = surface.edges_of_kind("interior")
    paired = [e.left for e in interior] + [e.right for e in interior]
    dirichlet = [e.left for e in surface.edges_of_kind("dirichlet")]
    neumann = [e.left for e in surface.edges_of_kind("neumann")]
    return 2 * groups(surface, paired) + 2 * groups(surface, dirichlet) + groups(surface, neumann)


class Counter:
    def __init__(self, fn=None):
        self.calls, self.fn = 0, fn

    def __call__(self, *args):
        self.calls += 1
        if self.fn is not None:
            return self.fn(*args)
        return np.zeros(len(args[-1]))


def counting_sweep(surface, monkeypatch, levels=3):
    """Per level: side-kernel calls, and calls of g_D, g_N and u_exact."""
    kernel = Counter(dgiga.geometry._side_grid)
    monkeypatch.setattr(dgiga.geometry, "_side_grid", kernel)
    counters = {}

    def factory(surf, delta):
        data = make_problem("plane_sine", surf, 2, delta)
        counters.update(g_D=Counter(data.g_D), g_N=Counter(), u_exact=Counter(data.u_exact))
        data.g_D, data.g_N, data.u_exact = counters["g_D"], counters["g_N"], counters["u_exact"]
        return data

    records = []

    def collect(result):
        records.append(dict(kernel=kernel.calls, **{k: c.calls for k, c in counters.items()}))
        kernel.calls = 0

    run_sweep(surface, 2, factory, levels=levels, collect=collect)
    return records


@pytest.mark.parametrize("n", [4, 8])
def test_side_kernel_calls_per_level_do_not_grow_with_edges(monkeypatch, n):
    surface = seeded_grid(7, n)
    sides = [(p.id, side) for p in surface.patches for side in dgiga.geometry.SIDES]
    assert groups(surface, sides) == 4  # 2 fixed axes x 2 knot signatures
    expected = expected_kernel_calls(surface)
    assert expected <= 5 * 4  # passes x groups; the layouts have 40 and 144 edges
    records = counting_sweep(surface, monkeypatch)
    assert [r["kernel"] for r in records] == [expected] * 3


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
    dgiga.splines._midpoint_refine_cached.cache_clear()
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
    assemble_interface(build_space(surface, 2), make_problem("plane_sine", surface, 2, 24.0))
    assert seen == [(np.int32, np.int32)]
