import numpy as np
import pytest
from conftest import random_shape_regular_triangle

from platedpg import dpg
from platedpg.errors import SPDError
from platedpg.linalg import dense_cholesky, spd_solve
from platedpg.mesh import (mesh_from_arrays, reference_triangle_mesh,
                           unit_square_mesh)
from platedpg.polyquad import tri_rule
from platedpg.problems import (MaterialLaw, ProblemSpec,
                               builtin_square_problem, builtin_zshape_problem)
from platedpg.spaces import ElementGeometry, build_dofmap, interpolate_uhat_bc


def clamped_zero_bc(mesh):
    return interpolate_uhat_bc(lambda p: np.zeros(len(p)),
                               lambda p: np.zeros((len(p), 2)), mesh)


# ---------------------------------------------------------------------------
# local matrices
# ---------------------------------------------------------------------------

def test_gram_constant_entries():
    mesh = reference_triangle_mesh()
    G = dpg.local_gram(mesh, 0)
    # constant scalar test pair and constant E11 tensor pair see the area
    assert abs(G[0, 0] - 0.5) < 1e-14
    assert abs(G[10, 10] - 0.5) < 1e-14
    assert np.abs(G - G.T).max() < 1e-14


def test_gram_quadratic_entry_against_oracle():
    """Diagonal entry of the scaled quadratic: mass plus squared-Hessian
    terms, checked against an independent dense quadrature."""
    mesh = mesh_from_arrays([(0.2, 0.1), (1.1, 0.3), (0.4, 1.0)], [(0, 1, 2)])
    G = dpg.local_gram(mesh, 0)
    geom = ElementGeometry(mesh, 0)
    sbasis = geom.scalar_basis(3)
    i = int(np.nonzero((sbasis.exp_i == 2) & (sbasis.exp_j == 0))[0][0])
    pts, w = tri_rule(12).map_to(geom.P)
    xi = (pts[:, 0] - geom.centroid[0]) / geom.diam
    oracle = w @ xi ** 4 + (2.0 / geom.diam ** 2) ** 2 * geom.area
    assert abs(G[i, i] - oracle) < 1e-13 * oracle


@pytest.mark.parametrize("seed", range(8))
def test_gram_spd_on_random_triangles(seed):
    rng = np.random.default_rng(seed)
    tri = random_shape_regular_triangle(rng)
    mesh = mesh_from_arrays(tri, [(0, 1, 2)])
    G = dpg.local_gram(mesh, 0)
    dense_cholesky(G)          # raises on failure


def test_local_b_constant_test_rows():
    mesh = mesh_from_arrays([(0.1, 0.2), (1.3, 0.1), (0.4, 1.2)], [(0, 1, 2)])
    B = dpg.local_b(mesh, 0, MaterialLaw(1.0, 0.0))
    s = mesh.edge_sign[0]
    # z == 1 row: alpha columns carry the element-side signs, beta columns
    # vanish, gamma columns are -1
    for k in range(3):
        assert abs(B[0, 13 + 2 * k] - s[k]) < 1e-14
        assert abs(B[0, 14 + 2 * k]) < 1e-14
    np.testing.assert_allclose(B[0, 19:22], -1.0, atol=1e-14)
    # constant tensor tests have divdiv = 0: u column vanishes there
    assert abs(B[10, 0]) < 1e-14
    assert abs(B[11, 0]) < 1e-14
    assert abs(B[12, 0]) < 1e-14


def test_local_b_moment_column_against_area():
    """The M11 column against the test whose Hessian is the constant
    e1 x e1 equals the element area (scaled frame factors cancel)."""
    mesh = reference_triangle_mesh()
    geom = ElementGeometry(mesh, 0)
    sbasis = geom.scalar_basis(3)
    B = dpg.local_b(mesh, 0, MaterialLaw(1.0, 0.0))
    i = int(np.nonzero((sbasis.exp_i == 2) & (sbasis.exp_j == 0))[0][0])
    # test function: xi^2 with Hessian 2/h^2 e1e1; scale back to h^2/2 Hess
    h = geom.diam
    assert abs((h ** 2 / 2.0) * B[i, 1] - geom.area) < 1e-13


def test_local_load():
    mesh = reference_triangle_mesh()
    load0 = dpg.local_load(mesh, 0, None)
    np.testing.assert_allclose(load0, 0.0)
    load1 = dpg.local_load(mesh, 0, lambda p: np.ones(len(p)))
    assert abs(load1[0] - (-0.5)) < 1e-14
    np.testing.assert_allclose(load1[10:], 0.0)
    # against the test function x (fitted in the scaled basis):
    geom = ElementGeometry(mesh, 0)
    pts, _ = tri_rule(8).map_to(geom.P)
    table = geom.scalar_basis(3).eval(pts)
    coeffs, *_ = np.linalg.lstsq(table.values, pts[:, 0], rcond=None)
    assert abs(load1[:10] @ coeffs - (-1.0 / 6.0)) < 1e-13


def test_condense_degenerate_and_identity_gram():
    W, v = dpg.condense(np.zeros((1, 4, 3)), np.eye(4)[None],
                        np.zeros((1, 4)))
    np.testing.assert_allclose(W[0].T @ W[0], 0.0)
    np.testing.assert_allclose(W[0].T @ v[0], 0.0)
    rng = np.random.default_rng(2)
    B = rng.normal(size=(4, 3))
    load = rng.normal(size=4)
    W, v = dpg.condense(B[None], np.eye(4)[None], load[None])
    np.testing.assert_allclose(W[0].T @ W[0], B.T @ B, atol=1e-14)
    np.testing.assert_allclose(W[0].T @ v[0], B.T @ load, atol=1e-14)


def test_condense_against_dense_inverse_oracle():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(3, 4, 3))
    load = rng.normal(size=(3, 4))
    X = rng.normal(size=(3, 4, 4))
    G = X @ np.swapaxes(X, 1, 2) + 4.0 * np.eye(4)
    W, v = dpg.condense(B, G, load)
    for t in range(3):
        Ginv = np.linalg.inv(G[t])
        np.testing.assert_allclose(W[t].T @ W[t], B[t].T @ Ginv @ B[t],
                                   atol=1e-12)
        np.testing.assert_allclose(W[t].T @ v[t], B[t].T @ Ginv @ load[t],
                                   atol=1e-12)


def test_condense_propagates_spd_failure():
    G = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
    with pytest.raises(SPDError,
                       match="element Gram matrix 1 is not SPD") as err:
        dpg.condense(np.zeros((2, 2, 2)), G, np.zeros((2, 2)))
    assert err.value.pivot == 1


# ---------------------------------------------------------------------------
# batched element path against single elements and dense oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graded_zshape():
    """Adaptive Z-shape mesh with more than 100 triangles, graded towards
    the reentrant corner by the estimator-driven loop, and its stacked
    element matrices."""
    from platedpg.driver import dorfler_mark, solve_problem
    from platedpg.mesh import nvb_refine
    prob = builtin_zshape_problem()
    mesh = prob.initial_mesh
    while mesh.num_triangles < 100:
        _, est, _, _ = solve_problem(prob, mesh)
        mesh = nvb_refine(mesh, dorfler_mark(est.per_element, 0.5))
    geom = ElementGeometry(mesh, np.arange(mesh.num_triangles))
    B, G, load = dpg.element_matrices(geom, prob.material, prob.f)
    return prob, mesh, B, G, load


def test_batched_matches_single_element_path(graded_zshape):
    prob, mesh, B, G, load = graded_zshape
    f = lambda p: 1.0 + p[:, 0] ** 2
    _, _, load_f = dpg.element_matrices(
        ElementGeometry(mesh, np.arange(mesh.num_triangles)), prob.material,
        f)
    for t in (0, mesh.num_triangles // 2, mesh.num_triangles - 1):
        for batched, single in ((B[t], dpg.local_b(mesh, t, prob.material)),
                                (G[t], dpg.local_gram(mesh, t)),
                                (load_f[t], dpg.local_load(mesh, t, f))):
            assert np.abs(batched - single).max() <= 1e-12 * np.abs(
                single).max()


def test_estimate_equals_dense_dual_norm(graded_zshape):
    """eta_T = ||v - W x_T|| equals sqrt(r^T G^{-1} r) from a dense solve.

    The trial vector is random: at the discrete solution the residual
    cancels, and the dense oracle itself then carries errors near 1e-10
    on the smallest elements.
    """
    prob, mesh, B, G, load = graded_zshape
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    x = np.random.default_rng(0).normal(size=dm.full_dim)
    est = dpg.estimate(mesh, dm, prob, dpg.Solution(mesh, dm, x))
    r = load - (B @ x[dm.element_scatter(np.arange(mesh.num_triangles)),
                      None])[..., 0]
    oracle = np.sqrt(np.einsum("ti,ti->t", r,
                               np.linalg.solve(G, r[..., None])[..., 0]))
    np.testing.assert_allclose(est.per_element, oracle, rtol=1e-10)


def test_condensed_blocks_equal_dense_schur_complement(graded_zshape):
    prob, mesh, B, G, load = graded_zshape
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    systems = dpg.build_element_systems(mesh, dm, prob.material, prob.f)
    A = np.swapaxes(systems.W, 1, 2) @ systems.W
    oracle = np.swapaxes(B, 1, 2) @ np.linalg.solve(G, B)
    err = np.abs(A - oracle).max(axis=(1, 2))
    assert (err <= 1e-10 * np.abs(oracle).max(axis=(1, 2))).all()


# ---------------------------------------------------------------------------
# assembly and estimation
# ---------------------------------------------------------------------------

def test_assemble_zero_data_gives_zero_solution():
    mesh = unit_square_mesh()
    prob = ProblemSpec("zero", mesh, MaterialLaw(1.0, 0.0), None,
                       bc_builder=clamped_zero_bc)
    dm = build_dofmap(mesh, clamped_zero_bc(mesh))
    system = dpg.assemble(mesh, dm, prob)
    np.testing.assert_allclose(system.rhs, 0.0, atol=1e-15)
    x, _ = spd_solve(system.A, system.rhs)
    np.testing.assert_allclose(x, 0.0)
    sol = dpg.Solution(mesh, dm, dm.recover_full(system.recover_free(x)))
    est = dpg.estimate(mesh, dm, prob, sol, systems=system.systems)
    np.testing.assert_allclose(est.per_element, 0.0, atol=1e-15)


def test_assemble_clamped_square_is_24x24_spd():
    mesh = unit_square_mesh()
    prob = ProblemSpec("clamped", mesh, MaterialLaw(1.0, 0.0),
                       lambda p: np.ones(len(p)), bc_builder=clamped_zero_bc)
    dm = build_dofmap(mesh, clamped_zero_bc(mesh))
    system = dpg.assemble(mesh, dm, prob)
    assert system.A.shape == (24, 24)
    dense_cholesky(system.A.toarray())
    A = system.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def test_assemble_symmetry_on_square_problem():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    A = system.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def test_estimator_positive_with_load():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    x, _ = spd_solve(system.A, system.rhs)
    sol = dpg.Solution(mesh, dm, dm.recover_full(system.recover_free(x)))
    est = dpg.estimate(mesh, dm, prob, sol, systems=system.systems)
    assert est.total > 0
    assert (est.per_element >= 0).all()


def test_discrete_optimality_residual():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    from platedpg.mesh import uniform_refine
    for _ in range(3):
        mesh = uniform_refine(mesh)
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    x, report = spd_solve(system.A, system.rhs)
    res = np.linalg.norm(system.A @ x - system.rhs)
    assert res <= 1e-10 * np.linalg.norm(system.rhs)
    assert report.relative_residual <= 1e-10


def test_estimator_and_moment_error_decrease_monotonically():
    from platedpg.driver import solve_problem
    from platedpg.mesh import uniform_refine
    from platedpg.problems import l2_errors
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    etas, errs = [], []
    for _ in range(4):
        sol, est, _, _ = solve_problem(prob, mesh)
        _, em = l2_errors(mesh, sol, prob.exact)
        etas.append(est.total)
        errs.append(em)
        mesh = uniform_refine(mesh)
    for seq in (etas, errs):
        for a, b in zip(seq, seq[1:]):
            assert b <= 1.01 * a
