import logging

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from conftest import sparse_from_triplets
from platedpg import dpg, linalg
from platedpg.errors import SolverConvergenceError, SPDError
from platedpg.linalg import TOL, SolveReport, spd_solve
from platedpg.problems import builtin_square_problem
from platedpg.spaces import build_dofmap


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


def test_spd_solve_factors_a_as_is():
    """On an assembled DPG system, x is bit for bit the solution from a
    factorization of ``A.tocsc()``: A is exactly symmetric, so the
    ``A.T`` that SuperLU gets holds the same CSC arrays."""
    import scipy.sparse.linalg as spla
    from platedpg.mesh import uniform_refine
    prob = builtin_square_problem()
    mesh = uniform_refine(prob.initial_mesh)
    system = dpg.assemble(mesh, build_dofmap(mesh, prob.bc_builder(mesh)),
                          prob)
    A, b = system.A, system.rhs
    ref = A.tocsc()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(A.T, name), getattr(ref, name))
    x, report = spd_solve(A, b)
    lu = spla.splu(ref, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    assert report.iterations == 0
    np.testing.assert_array_equal(x, lu.solve(b))
    assert report.fill == lu.nnz


def test_spd_solve_unreachable_tolerance_raises_with_report(monkeypatch):
    import scipy.sparse as sp
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 12))
    A = sp.csr_matrix(X @ X.T + 1e-8 * np.eye(12))
    monkeypatch.setattr(linalg, "TOL", 1e-30)
    with pytest.raises(SolverConvergenceError, match="tol=1e-30") as err:
        spd_solve(A, rng.normal(size=12))
    assert isinstance(err.value.report, SolveReport)
    assert err.value.report.fill > 0
    assert err.value.report.backward_error > 1e-30


def test_spd_solve_singular_matrix_raises_spd_error():
    import scipy.sparse as sp
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                [1.0, 1.0, 0.0],
                                [0.0, 0.0, 2.0]]))
    with pytest.raises(SPDError, match="exactly singular"):
        spd_solve(A, np.ones(3))


def test_spd_solve_meets_backward_error_above_residual_floor():
    """The smoothest mode of the 1-D Laplacian: ||b|| is 4e5 times smaller
    than ||A|| ||x||, so rounding alone keeps ||Ax-b|| / ||b|| near 5e-11,
    while the backward error of the factorization is at rounding level."""
    import scipy.sparse as sp
    n = 2000
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    x_true = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    x, report = spd_solve(A, A @ x_true)
    assert report.iterations == 0
    assert report.relative_residual > 1e-12
    assert report.backward_error <= 1e-15
    assert report.fill > 0
    assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), density=st.floats(0.05, 0.5),
       seed=st.integers(0, 2 ** 32 - 1),
       exponents=st.lists(st.floats(-8.0, 8.0), min_size=40, max_size=40))
def test_spd_solve_badly_scaled_random_spd(n, density, seed, exponents):
    """A = D S D with S a random sparse SPD matrix and D a diagonal scaling
    from 1e-8 to 1e8.  The solution must meet the backward-error bound and,
    in the scaled unknowns D x, agree with a dense solve of S y = D^{-1} b
    to within the condition number of S times the rounding of both."""
    import scipy.sparse as sp
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng, format="csr")
    S = R + R.T
    S = S + sp.diags(abs(S).sum(axis=1).A1 + 1.0)
    d = 10.0 ** np.asarray(exponents[:n])
    A = (sp.diags(d) @ S @ sp.diags(d)).tocsr()
    b = d * rng.normal(size=n)
    x, report = spd_solve(A, b)
    assert report.backward_error <= TOL
    assert report.fill > 0
    y_ref = np.linalg.solve(S.toarray(), b / d)
    cond_S = np.linalg.cond(S.toarray(), np.inf)
    err = np.abs(d * x - y_ref).max() / np.abs(y_ref).max()
    assert err <= 2.0 * cond_S * (TOL + n * np.finfo(float).eps)


def test_spd_solve_logs_one_debug_record(caplog):
    import scipy.sparse as sp
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with caplog.at_level(logging.DEBUG, logger="platedpg.linalg"):
        spd_solve(A, np.ones(3))
    records = [r for r in caplog.records if r.name == "platedpg.linalg"]
    assert len(records) == 1
    message = records[0].getMessage()
    for key in ("LU", "n=3", "nnz=3", "fill=", "refinement_steps=0",
                "backward_error=", "relative_residual="):
        assert key in message
