import numpy as np
import pytest
import scipy.sparse as sp

from dgiga.assembly import _csr
from dgiga.linalg import NumericalBreakdownError, cg_solve


def random_spd(n, rng):
    B = rng.normal(size=(n, n))
    return B.T @ B + np.eye(n)


def to_csr(dense):
    return sp.csr_array(dense)


def test_identity_converges_in_one_iteration(rng):
    b = rng.normal(size=8)
    x, report = cg_solve(to_csr(np.eye(8)), b)
    np.testing.assert_allclose(x, b, atol=1e-14)
    assert report.iterations == 1
    assert report.converged


def test_diagonal_solve():
    A = to_csr(np.diag(np.arange(1.0, 6.0)))
    x, report = cg_solve(A, np.ones(5), tol=1e-12)
    np.testing.assert_allclose(x, 1.0 / np.arange(1.0, 6.0), atol=1e-11)
    assert report.converged


def test_matches_dense_factorization_oracle(rng):
    A = random_spd(50, rng)
    b = rng.normal(size=50)
    x, report = cg_solve(to_csr(A), b, tol=1e-12)
    assert report.converged
    oracle = np.linalg.solve(A, b)
    assert np.linalg.norm(x - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_matvec_matches_dense_oracle(rng):
    dense = sp.random(100, 100, density=0.05, random_state=7).toarray()
    A = to_csr(dense)
    for _ in range(5):
        v = rng.normal(size=100)
        np.testing.assert_allclose(A @ v, dense @ v, atol=1e-13)


def test_csr_indices_sorted_and_unique():
    # Element blocks (E, m, m) over indices (E, m); the two blocks overlap in
    # the (0, 1) entry, and the second lists its indices in reverse order.
    A = _csr(2, [(np.array([[0, 1]]), np.array([[[2.0, 1.0], [3.0, 4.0]]])),
                 (np.array([[1, 0]]), np.array([[[0.0, 0.0], [5.0, 0.0]]]))])
    for r in range(2):
        c = A.indices[A.indptr[r] : A.indptr[r + 1]]
        assert np.all(np.diff(c) > 0)
    np.testing.assert_allclose(A.toarray(), [[2.0, 6.0], [3.0, 4.0]])


def test_a_norm_error_decreases_monotonically(rng):
    A = random_spd(50, rng)
    b = rng.normal(size=50)
    exact = np.linalg.solve(A, b)
    csr = to_csr(A)
    errors = []
    for k in range(1, 30):
        x, _ = cg_solve(csr, b, tol=1e-14, max_iter=k)
        e = x - exact
        errors.append(float(e @ (A @ e)))
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-10 * max(errors))


def test_nonconvergence_is_reported_not_raised(rng):
    A = random_spd(40, rng) + np.diag(np.linspace(0, 1e6, 40))
    b = rng.normal(size=40)
    x, report = cg_solve(to_csr(A), b, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert report.final_relative_residual > 1e-14


def test_nan_raises_breakdown():
    A = to_csr(np.eye(3))
    with pytest.raises(NumericalBreakdownError):
        cg_solve(A, np.array([1.0, np.nan, 0.0]))


def laplacian_1d(n, neumann=False):
    L = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    if neumann:
        L[0, 0] = L[-1, -1] = 1.0  # nullspace = constants
    return L


class PoisonedMatvec:
    """A matrix whose k-th product A @ p comes back with entry ``at`` replaced."""

    def __init__(self, A, k, value, at):
        self.A, self.k, self.value, self.at, self.calls = A, k, value, at, 0
        self.shape = A.shape

    def diagonal(self):
        return self.A.diagonal()

    def __matmul__(self, p):
        self.calls += 1
        out = self.A @ p
        if self.calls == self.k:
            out[self.at] = self.value
        return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("neumann", [False, True])
def test_breakdown_mid_iteration_raises(rng, value, neumann):
    n = 30
    A = PoisonedMatvec(to_csr(laplacian_1d(n, neumann)), 3, value, n // 2)
    with pytest.raises(NumericalBreakdownError):
        cg_solve(A, rng.normal(size=n), tol=1e-14, mean_weights=np.ones(n) if neumann else None)
    assert A.calls == 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_mid_iteration_raises():
    # With b = e_0 the third search direction is exactly zero from index 3
    # on, so p^T A p stays finite and the overflow first shows in r @ z.
    n = 30
    A = PoisonedMatvec(to_csr(laplacian_1d(n)), 3, np.finfo(float).max, n - 1)
    with pytest.raises(NumericalBreakdownError, match="non-finite"):
        cg_solve(A, np.eye(n)[0], tol=1e-14)
    assert A.calls == 3


def test_tol_validation():
    A = to_csr(np.eye(2))
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(2), tol=2.0)


def test_projected_constant_rhs_gives_zero():
    n = 12
    A = to_csr(np.eye(n) - np.ones((n, n)) / n)  # projector, nullspace = constants
    x, report = cg_solve(A, 3.7 * np.ones(n), mean_weights=np.ones(n))
    np.testing.assert_allclose(x, 0.0, atol=1e-14)
    assert report.converged and report.iterations == 0


def test_mean_weights_fix_the_constant(rng):
    n = 30
    L = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    L[0, 0] = L[-1, -1] = 1.0  # 1d Neumann Laplacian, nullspace = constants
    b = rng.normal(size=n)
    b -= b.mean()
    w = rng.uniform(0.1, 2.0, size=n)
    x1, _ = cg_solve(to_csr(L), b, tol=1e-12, mean_weights=np.ones(n))
    x2, _ = cg_solve(to_csr(L), b, tol=1e-12, mean_weights=w)
    assert abs(x1.sum()) <= 1e-10
    assert abs(w @ x2) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(x2)
    shift = x1 - x2
    np.testing.assert_allclose(shift, shift.mean(), atol=1e-10)


def test_mean_weights_validation():
    A = to_csr(np.eye(3))
    for w in (np.ones(2), np.array([1.0, -1.0, 0.0])):
        with pytest.raises(ValueError, match="mean_weights"):
            cg_solve(A, np.ones(3), mean_weights=w)


def test_projected_matches_pinned_dof_oracle():
    # Pure-Neumann diffusion system: pin one DOF, solve the reduced dense
    # system as the oracle, compare after shifting both to zero mean.
    from dgiga.geometries import square_grid
    from dgiga.geometry import refine_surface
    from dgiga.problems import make_problem
    from dgiga.assembly import assemble_system
    from dgiga.space import build_space

    surface = refine_surface(square_grid(2, bc="neumann"))
    space = build_space(surface, 2)
    data = make_problem("plane_cosine", surface, 2)
    system = assemble_system(space, data)
    n = space.total_dofs
    x, report = cg_solve(system.matrix, system.rhs, tol=1e-12, mean_weights=np.ones(n))
    assert report.converged
    assert abs(x.sum()) <= 1e-10

    A = system.matrix.toarray()
    b = system.rhs
    keep = np.arange(1, space.total_dofs)
    y = np.zeros(space.total_dofs)
    y[keep] = np.linalg.solve(A[np.ix_(keep, keep)], b[keep])
    y -= y.mean()
    assert np.linalg.norm(x - y) <= 1e-6 * max(1.0, np.linalg.norm(y))
