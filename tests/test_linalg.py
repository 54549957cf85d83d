import numpy as np
import pytest

from platedpg import dpg
from platedpg.errors import SolverConvergenceError, SPDError
from platedpg.linalg import (SolveReport, dense_cholesky,
                             sparse_from_triplets, spd_solve)
from platedpg.problems import builtin_square_problem
from platedpg.spaces import build_dofmap


def test_dense_cholesky_2x2():
    L = dense_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_dense_cholesky_identity():
    np.testing.assert_allclose(dense_cholesky(np.eye(5)), np.eye(5))


def test_dense_cholesky_indefinite_names_pivot():
    with pytest.raises(SPDError) as err:
        dense_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert err.value.pivot == 1


@pytest.mark.parametrize("n", [3, 11, 28])
def test_dense_cholesky_roundtrip(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n))
    A = X @ X.T + n * np.eye(n)
    L = dense_cholesky(A)
    assert np.abs(L @ L.T - A).max() <= 1e-12 * np.abs(A).max()
    assert np.allclose(L, np.tril(L))


def test_dense_cholesky_stack_matches_single_and_names_matrix():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 28, 28))
    A = X @ np.swapaxes(X, 1, 2) + 28 * np.eye(28)
    L = dense_cholesky(A)
    for a, l in zip(A, L):
        np.testing.assert_array_equal(l, dense_cholesky(a))
    A[3] = -A[3]
    with pytest.raises(SPDError, match="matrix 3 is not SPD: pivot 0") as err:
        dense_cholesky(A)
    assert err.value.pivot == 0


def test_sparse_triplets_sum_duplicates():
    A = sparse_from_triplets([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], 2)
    np.testing.assert_allclose(A.toarray(), [[3.0, 0.0], [0.0, 5.0]])


def test_spd_solve_identity():
    import scipy.sparse as sp
    b = np.array([1.0, -2.0, 3.0])
    x, report = spd_solve(sp.identity(3, format="csr"), b)
    np.testing.assert_allclose(x, b)
    assert report.relative_residual <= 1e-12


def test_spd_solve_diagonal():
    import scipy.sparse as sp
    A = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0]).tocsr()
    x, _ = spd_solve(A, np.ones(5))
    np.testing.assert_allclose(x, [1, 0.5, 1 / 3, 0.25, 0.2])


def test_spd_solve_zero_rhs():
    import scipy.sparse as sp
    x, report = spd_solve(sp.identity(4, format="csr"), np.zeros(4))
    np.testing.assert_allclose(x, 0.0)
    assert report.relative_residual == 0.0


def test_spd_solve_against_dense_oracle():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    rng = np.random.default_rng(0)
    b = rng.normal(size=system.A.shape[0])
    x, _ = spd_solve(system.A, b)
    dense = np.linalg.solve(system.A.toarray(), b)
    assert np.linalg.norm(x - dense) <= 1e-8 * np.linalg.norm(dense)


def test_spd_solve_unreachable_tolerance_raises_with_report():
    import scipy.sparse as sp
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 12))
    A = sp.csr_matrix(X @ X.T + 1e-8 * np.eye(12))
    with pytest.raises(SolverConvergenceError) as err:
        spd_solve(A, rng.normal(size=12), tol=1e-30)
    assert isinstance(err.value.report, SolveReport)
    assert err.value.report.iterations == 10 * 12
