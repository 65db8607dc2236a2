from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak
from oracles import (
    discrete_bsplines,
    elevate_bezier,
    eval_bspline,
    insertion_matrix,
    uniform_open_knots,
)

from dgiga.geometries import _bezier_knots, _elevate_bezier
from dgiga.geometry import NurbsPatch, _rational_basis, tabulate_grid
from dgiga.splines import (
    KnotVector,
    NurbsBasis2D,
    greville,
    insert_knots,
    midpoint_refine,
    tabulate,
)

KV_CASES = [
    KnotVector(1, [0, 0, 0.5, 1, 1]),
    KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1]),
    KnotVector(2, [0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1]),
    KnotVector(3, [0, 0, 0, 0, 0.2, 0.5, 0.8, 1, 1, 1, 1]),
    KnotVector(4, np.concatenate([np.zeros(5), [0.3, 0.6], np.ones(5)])),
]


# -- independent oracle: textbook recursion, term by term ---------------------

def cox_de_boor_value(U, i, p, x):
    if p == 0:
        return 1.0 if U[i] <= x < U[i + 1] else 0.0
    out = 0.0
    den = U[i + p] - U[i]
    if den > 0:
        out += (x - U[i]) / den * cox_de_boor_value(U, i, p - 1, x)
    den = U[i + p + 1] - U[i + 1]
    if den > 0:
        out += (U[i + p + 1] - x) / den * cox_de_boor_value(U, i + 1, p - 1, x)
    return out


def cox_de_boor_deriv(U, i, p, x):
    out = 0.0
    den = U[i + p] - U[i]
    if den > 0:
        out += p / den * cox_de_boor_value(U, i, p - 1, x)
    den = U[i + p + 1] - U[i + 1]
    if den > 0:
        out -= p / den * cox_de_boor_value(U, i + 1, p - 1, x)
    return out


def rational_curve_oracle(kv, weights, points, x):
    """Homogeneous-coordinate evaluation of a NURBS curve via the recursion."""
    num = np.zeros(points.shape[1])
    den = 0.0
    for i in range(kv.n):
        b = cox_de_boor_value(kv.knots, i, kv.degree, x)
        num += weights[i] * b * points[i]
        den += weights[i] * b
    return num / den


def rational_basis_at(basis, xi):
    """The kernel's rational basis at one point: values (m1, m2), grads (m1, m2, 2)."""
    n1, n2 = basis.shape
    grid = np.stack(np.meshgrid(np.arange(n1), np.arange(n2), [0.0], indexing="ij"), axis=-1)
    patch = NurbsPatch(basis, grid.reshape(n1, n2, 3), 0)
    tab = _rational_basis(tabulate_grid([patch], [xi[0]], [xi[1]]))
    m1, m2 = tab.values.shape[-2:]
    return tab.values.reshape(m1, m2), np.moveaxis(tab.grads.reshape(2, m1, m2), 0, -1)


def test_matches_recursive_oracle():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    first, values, derivs = tabulate(kv, [0.25])
    for r in range(kv.degree + 1):
        i = first[0] + r
        assert values[0, r] == pytest.approx(
            cox_de_boor_value(kv.knots, i, 2, 0.25), abs=1e-14
        )
        assert derivs[0, r] == pytest.approx(
            cox_de_boor_deriv(kv.knots, i, 2, 0.25), abs=1e-12
        )


@pytest.mark.parametrize("kv", KV_CASES)
def test_matches_oracle_at_random_interior_points(kv, rng):
    xs = rng.uniform(0.01, 0.99, size=25)
    xs = xs[np.min(np.abs(kv.knots[:, None] - xs), axis=0) >= 1e-6]
    first, values, _ = tabulate(kv, xs)
    for x, f, v in zip(xs, first, values):
        dense = np.zeros(kv.n)
        dense[f : f + kv.degree + 1] = v
        for i in range(kv.n):
            assert dense[i] == pytest.approx(
                cox_de_boor_value(kv.knots, i, kv.degree, x), abs=1e-13
            )


def test_open_vector_interpolates_at_zero():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    first, values, _ = tabulate(kv, [0.0])
    assert first[0] == 0
    np.testing.assert_allclose(values[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_right_endpoint_uses_last_span():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    first, values, _ = tabulate(kv, [1.0])
    assert first[0] == kv.n - kv.degree - 1
    np.testing.assert_allclose(values[0], [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("kv", KV_CASES)
def test_partition_of_unity_and_deriv_sum(kv, rng):
    _, values, derivs = tabulate(kv, rng.random(1000))
    assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(derivs.sum(axis=1))) <= 1e-10


@pytest.mark.parametrize("kv", KV_CASES)
def test_derivatives_match_finite_differences(kv, rng):
    h = 1e-6
    xs = rng.uniform(0.05, 0.95, size=50)
    xs = xs[np.min(np.abs(kv.knots[:, None] - xs), axis=0) >= 10 * h]
    f_lo, lo, _ = tabulate(kv, xs - h)
    f_hi, hi, _ = tabulate(kv, xs + h)
    _, _, derivs = tabulate(kv, xs)
    same = f_lo == f_hi
    fd = (hi[same] - lo[same]) / (2 * h)
    scale = np.maximum(np.abs(derivs[same]), 1.0)
    assert np.max(np.abs(fd - derivs[same]) / scale) <= 1e-5


def test_domain_error_outside_interval():
    kv = KV_CASES[1]
    with pytest.raises(ValueError):
        tabulate(kv, [-0.1])
    with pytest.raises(ValueError):
        tabulate(kv, [1.0001])


# -- memoised 1D tables --------------------------------------------------------


def pointwise_table(kv, xs):
    evs = [eval_bspline(kv, float(x)) for x in xs]
    return (
        np.array([ev.first_active for ev in evs]),
        np.array([ev.values for ev in evs]),
        np.array([ev.derivs for ev in evs]),
    )


@pytest.mark.parametrize("kv", KV_CASES)
def test_tabulate_is_bit_identical_to_pointwise(kv, rng):
    xs = np.concatenate([rng.random(40), kv.knots, [0.0, 1.0]])
    for _ in range(2):  # a miss, then a hit
        for got, want in zip(tabulate(kv, xs), pointwise_table(kv, xs)):
            assert got.tobytes() == want.tobytes()


def test_tabulate_returns_read_only_arrays():
    kv = KV_CASES[2]
    xs = np.linspace(0.0, 1.0, 7)
    first, vals, ders = tabulate(kv, xs)
    for a in (first, vals, ders):
        with pytest.raises(ValueError):
            a[0] = 0
    again = tabulate(kv, xs.copy())
    assert again[1].tobytes() == pointwise_table(kv, xs)[1].tobytes()


def test_tabulate_tells_knot_vectors_apart():
    a = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    b = KnotVector(2, [0, 0, 0, 0.5 + 1e-12, 1, 1, 1])
    xs = np.linspace(0.0, 1.0, 11)
    for got, want in zip(tabulate(b, xs), pointwise_table(b, xs)):
        assert got.tobytes() == want.tobytes()
    assert tabulate(a, xs)[1].tobytes() != tabulate(b, xs)[1].tobytes()


def test_tabulate_domain_error_leaves_cache_usable():
    kv = KV_CASES[3]
    with pytest.raises(ValueError, match="outside"):
        tabulate(kv, np.array([0.2, 1.5]))
    xs = np.array([0.2, 0.7])
    for got, want in zip(tabulate(kv, xs), pointwise_table(kv, xs)):
        assert got.tobytes() == want.tobytes()


def test_knot_vectors_are_values():
    a = KnotVector(1, [0, 0, 1, 1])
    b = KnotVector(1, np.array([0.0, 0.0, 1.0, 1.0]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != KnotVector(1, [0, 0, 0.5, 1, 1])
    assert a != KnotVector(2, [0, 0, 0, 1, 1, 1])
    assert KnotVector(1, [-0.0, -0.0, 1, 1]) == a
    with pytest.raises(ValueError):
        a.knots[0] = 0.5  # read-only, so the key cannot go stale
    # Equal vectors share the memoised tables and refinements.
    c = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    d = KnotVector(2, c.knots.copy())
    xs = np.linspace(0.0, 1.0, 5)
    assert all(x is y for x, y in zip(tabulate(c, xs), tabulate(d, xs)))
    assert midpoint_refine(c) is midpoint_refine(d)


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector(2, [0, 0, 0.5, 1, 1])  # not open
    with pytest.raises(ValueError):
        KnotVector(1, [0, 0, 0.7, 0.3, 1, 1])  # decreasing
    with pytest.raises(ValueError):
        KnotVector(-1, [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_knots_rejected(bad):
    """NaN failed as "must be open" and inf as "non-decreasing"."""
    with pytest.raises(ValueError, match="knots must be finite"):
        KnotVector(2, [0, 0, 0, bad, 1, 1, 1])


@pytest.mark.parametrize("end", ["start", "end"])
def test_end_knot_above_degree_plus_one_rejected(end):
    """A p + 2 fold end knot made a basis function vanish everywhere, and
    ``dgiga solve`` died of a segmentation fault on such a file."""
    knots = [0.0] * 4 + [0.5] + [1.0] * 3
    knots = knots if end == "start" else [1.0 - k for k in knots[::-1]]
    with pytest.raises(ValueError, match="end knots repeated exactly degree\\+1 times"):
        KnotVector(2, knots)


@pytest.mark.parametrize("extra", [1, 2], ids=["degree_plus_1", "degree_plus_2"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_interior_knot_above_the_degree_rejected(p, extra):
    """Multiplicity p + 1 split a patch into halves that nothing coupled (the L2 rate
    read 0.00, with no error) and p + 2 crashed the assembly; p stays legal."""
    start, end = [0.0] * (p + 1), [1.0] * (p + 1)
    assert KnotVector(p, start + [0.5] * p + end).num_elements == 2
    with pytest.raises(ValueError, match=f"interior knot 0.5 has multiplicity {p + extra}, "
                                         f"above the degree {p}"):
        KnotVector(p, start + [0.5] * (p + extra) + end)


def test_greville_reproduces_linears(rng):
    for kv in KV_CASES:
        g = greville(kv)
        xs = rng.random(20)
        first, values, _ = tabulate(kv, xs)
        for x, f, v in zip(xs, first, values):
            assert float(g[f : f + kv.degree + 1] @ v) == pytest.approx(x, abs=1e-13)


# -- knot insertion -----------------------------------------------------------

def test_insert_sorted_merge():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    refined, T = insert_knots(kv, [0.25, 0.75])
    np.testing.assert_allclose(
        refined.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], atol=0
    )
    assert T.shape == (refined.n, kv.n)


def test_midpoint_refine_doubles_elements():
    for kv in KV_CASES:
        refined, _ = midpoint_refine(kv)
        assert refined.num_elements == 2 * kv.num_elements


@pytest.mark.parametrize("breaks", [[0.25, 0.5, 0.75], [0.05, 0.15, 0.4]], ids=["uniform", "graded"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_refinement_matrix_has_at_most_p_plus_1_nonzeros_per_row(p, breaks):
    """A fine control point mixes at most p + 1 coarse ones, so the sparse T the
    refiner applies does work linear in the element count."""
    ends = [0.0] * (p + 1), [1.0] * (p + 1)
    for interior in (breaks, [0.5] * p):  # simple knots, then one of multiplicity p
        kv = KnotVector(p, ends[0] + interior + ends[1])
        _, T = midpoint_refine(kv)
        assert np.all(np.diff(T.indptr) == p + 1)


def test_insertion_multiplicity_error():
    kv = KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
    with pytest.raises(ValueError, match="multiplicity"):
        insert_knots(kv, [0.5])


def test_insertion_rejects_boundary_knots():
    with pytest.raises(ValueError):
        insert_knots(KV_CASES[1], [0.0])


def test_insertion_preserves_curve(rng):
    kv = KnotVector(3, [0, 0, 0, 0, 0.4, 1, 1, 1, 1])
    w = rng.uniform(0.5, 2.0, kv.n)
    pts = rng.normal(size=(kv.n, 2))
    refined, T = insert_knots(kv, [0.1, 0.2, 0.6, 0.9])
    hom = np.concatenate([pts * w[:, None], w[:, None]], axis=1)
    hom_f = T @ hom
    w_f = hom_f[:, 2]
    pts_f = hom_f[:, :2] / w_f[:, None]
    for x in rng.random(20):
        orig = rational_curve_oracle(kv, w, pts, x)
        fine = rational_curve_oracle(refined, w_f, pts_f, x)
        np.testing.assert_allclose(fine, orig, atol=1e-12)


def midpoints(p, num_elements):
    kv = uniform_open_knots(p, num_elements)
    return kv, 0.5 * (kv.breaks[:-1] + kv.breaks[1:])


UNIT = 2.0**-53  # unit roundoff of float64

# (knot vector, new knots) at degree p.  At p = 0 a KnotVector admits no interior knot.
INSERTIONS = {
    **{f"midpoints_{m}": (lambda p, m=m: midpoints(p, m)) for m in (1, 8, 33, 64)},
    "graded": lambda p: (_bezier_knots(p), np.array([0.1, 0.2, 0.6, 0.9])),
    "raised_to_p": lambda p: (uniform_open_knots(p, 2), np.full(p - 1, 0.5)),
    "arc_halving": lambda p: (_bezier_knots(p), np.full(p, 0.5)),
}


@pytest.mark.parametrize("case", sorted(INSERTIONS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_insert_knots_equals_the_row_by_row_product(p, case):
    """Each CSR row is bit for bit the scalar Oslo recursion (``discrete_bsplines``),
    within 2u of the exact row, and T is within 8u of the row-by-row Boehm
    matrices' product, whose bits at p >= 3 are the BLAS kernel's FMA rounding."""
    kv, new = INSERTIONS[case](p)
    refined, T = insert_knots(kv, new)
    assert np.array_equal(refined.knots, np.sort(np.concatenate([kv.knots, new])))
    for i in range(refined.n):
        row = slice(T.indptr[i], T.indptr[i + 1])
        first, values = discrete_bsplines(kv.knots, refined.knots, p, i)
        assert np.array_equal(T.indices[row], np.arange(first, first + p + 1))
        assert T.data[row].tobytes() == np.array(values).tobytes()
        _, exact = discrete_bsplines(kv.knots, refined.knots, p, i, number=Fraction)
        assert max(abs(Fraction(got) - want) for got, want in zip(T.data[row], exact)) <= 2 * UNIT
    assert np.abs(T.toarray() - insertion_matrix(kv, new)).max() <= 8 * UNIT


def test_knot_insertion_is_linear_in_the_element_count():
    """T is built as its p + 1 entries a row: at p = 3 and 256 elements the running
    product of dense Boehm matrices peaked at 5.35 MB, the direct build at 0.17 MB."""
    kv, new = midpoints(3, 256)
    insert_knots(kv, new)  # warm up
    _, peak = traced_peak(insert_knots, kv, new)
    assert peak < 1e6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_elevation_equals_the_pointwise_loop(n, rng):
    hom = np.concatenate([rng.normal(size=(n, 2)), rng.uniform(0.5, 2.0, (n, 1))], axis=1)
    assert np.array_equal(_elevate_bezier(hom), elevate_bezier(hom))


# -- bivariate rational basis -------------------------------------------------

def test_nurbs2d_reduces_to_bspline_for_equal_weights(rng):
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    basis = NurbsBasis2D(kv, kv, 3.7 * np.ones((kv.n, kv.n)))
    for _ in range(10):
        xi = rng.random(2)
        vals, _ = rational_basis_at(basis, xi)
        (_, eu, _), (_, ev, _) = tabulate(kv, xi[:1]), tabulate(kv, xi[1:])
        np.testing.assert_allclose(vals, np.outer(eu[0], ev[0]), atol=1e-14)


def test_nurbs2d_partition_of_unity(rng):
    kv_u = KnotVector(2, [0, 0, 0, 1, 1, 1])
    kv_v = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    basis = NurbsBasis2D(kv_u, kv_v, rng.uniform(0.5, 2.0, (kv_u.n, kv_v.n)))
    for _ in range(200):
        vals, grads = rational_basis_at(basis, rng.random(2))
        assert abs(vals.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(grads.sum(axis=(0, 1)))) <= 1e-10


def test_quarter_circle_basis_matches_rational_oracle():
    # Weights of the exact 90-degree arc; the midparameter value vector must
    # reproduce the point (sqrt2/2, sqrt2/2) when combined with the arc's
    # control points.
    kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
    w = np.array([1.0, np.sqrt(2) / 2, 1.0])
    basis = NurbsBasis2D(kv, kv, np.repeat(w[:, None], 3, axis=1))
    vals, _ = rational_basis_at(basis, (0.5, 0.3))
    cp = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pt = np.einsum("ab,ak->k", vals, cp)
    np.testing.assert_allclose(pt, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-14)
    oracle = rational_curve_oracle(kv, w, cp, 0.5)
    np.testing.assert_allclose(pt, oracle, atol=1e-14)


def test_nurbs2d_rejects_bad_weights():
    kv = KnotVector(1, [0, 0, 1, 1])
    with pytest.raises(ValueError):
        NurbsBasis2D(kv, kv, np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        NurbsBasis2D(kv, kv, np.ones((3, 2)))


def test_counts_and_breakpoints():
    kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
    assert kv.n == 4
    np.testing.assert_allclose(kv.breaks, [0, 0.5, 1])
    assert not kv.breaks.flags.writeable
    assert uniform_open_knots(2, 4).num_elements == 4
