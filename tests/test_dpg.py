from dataclasses import replace
from fractions import Fraction
import re
import tracemalloc
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (random_shape_regular_triangle, reference_triangle_mesh,
                      sparse_from_triplets, zero_fields)

from platedpg import dpg
from platedpg.driver import ExperimentConfig, experiment_levels, solve_problem
from platedpg.errors import ConfigurationError, SPDError
from platedpg.linalg import spd_solve
from platedpg.mesh import (Mesh, dyadic_shape, mesh_from_arrays, nvb_refine,
                           uniform_refine, unit_square_mesh)
from platedpg.polyquad import (ASSEMBLY_RULE, ERROR_RULE, EXP_I, EXP_J,
                               p3_table)
from platedpg.problems import (SINGULAR_ALPHA, ExactSolution, ProblemSpec,
                               Singularity, builtin_square_problem,
                               builtin_zshape_problem, l2_errors)
from platedpg.spaces import (BCSpec, ElementGeometry, build_dofmap,
                             interpolate_uhat_bc)
from numbering_oracles import reduction_matrix
from trace_oracles import element_tensor_basis


def triangle_loads(geom, f):
    """Load rows (n, 28) of a stack of triangles, each from its own
    quadrature points and P3 value table."""
    qpts, w, table = geom.volume_table
    return dpg._load(f, qpts, w, table.values)


def one_element(mesh, t, f=lambda p: np.zeros(len(p))):
    """B, G and load of triangle t alone."""
    geom = ElementGeometry(mesh, np.array([t]))
    B, G = dpg.element_matrices(geom)
    return B[0], G[0], triangle_loads(geom, f)[0]


def clamped_zero_bc(mesh):
    return interpolate_uhat_bc(zero_fields, mesh)


# ---------------------------------------------------------------------------
# local matrices
# ---------------------------------------------------------------------------

def test_gram_constant_entries():
    mesh = reference_triangle_mesh()
    G = one_element(mesh, 0)[1]
    # constant scalar test pair and constant E11 tensor pair see the area
    assert abs(G[0, 0] - 0.5) < 1e-14
    assert abs(G[10, 10] - 0.5) < 1e-14
    assert np.abs(G - G.T).max() < 1e-14


def test_gram_quadratic_entry_against_oracle():
    """Diagonal entry of the scaled quadratic: mass plus squared-Hessian
    terms, checked against an independent dense quadrature."""
    mesh = mesh_from_arrays([(0.2, 0.1), (1.1, 0.3), (0.4, 1.0)], [(0, 1, 2)])
    G = one_element(mesh, 0)[1]
    geom = ElementGeometry(mesh, 0)
    i = int(np.nonzero((EXP_I == 2) & (EXP_J == 0))[0][0])
    pts, w = ERROR_RULE.map_to(geom.P)
    xi = (pts[:, 0] - geom.centroid[0]) / geom.diam
    oracle = w @ xi ** 4 + (2.0 / geom.diam ** 2) ** 2 * mesh.tri_area[0]
    assert abs(G[i, i] - oracle) < 1e-13 * oracle


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 2.0))
def test_tensor_block_against_a_dense_oracle_build(seed, log_scale):
    """The tensor test rows of G (mass plus divdiv) and of B's u and moment
    columns, ``(1, divdiv Theta_i)`` and ``(M_j, Theta_i)``, equal a build
    from the oracle tensor table on a degree-12 rule, to 1e-12 of the
    Cauchy-Schwarz bound of each entry, on shape-regular triangles of
    diameter 1e-3 to 1e2.  The oracle table is rebased first: test
    functions 13 and 17 are ``xi eta S12 - xi^2 S11`` and ``eta^2 S22 -
    xi^2 S11``, column j of T.  (Rebasing the finished oracle G instead
    would leave its rounding of the h^-2 divdiv part in the h^2 mass part
    of those two.)"""
    rng = np.random.default_rng(seed)
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tri = (base + 0.15 * rng.uniform(-1, 1, size=(3, 2))) * 10.0 ** log_scale
    mesh = mesh_from_arrays(tri, [(0, 1, 2)])
    B, G, _ = one_element(mesh, 0)
    geom = ElementGeometry(mesh, 0)
    pts, w = ERROR_RULE.map_to(geom.P)
    theta = element_tensor_basis(geom).eval(pts)
    T = np.eye(18)
    T[9, [13, 17]] = -1.0
    values = np.einsum("qiab,ij->qjab", theta.values, T)
    divdiv = theta.divdiv @ T
    G_ref = (np.einsum("q,qiab,qjab->ij", w, values, values)
             + np.einsum("q,qi,qj->ij", w, divdiv, divdiv))
    # unit moments M11, M12, M22 of the trial field M
    unit_M = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                       [[0.0, 0.0], [0.0, 1.0]]])
    B_ref = np.column_stack([
        w @ divdiv,
        np.einsum("q,qiab,jab->ij", w, values, unit_M)])
    trial_sq = mesh.tri_area[0] * np.r_[1.0, np.einsum("jab,jab->j", unit_M,
                                                       unit_M)]
    d = np.diag(G)[10:]
    np.testing.assert_array_less(np.abs(G[10:, 10:] - G_ref),
                                 1e-12 * np.sqrt(np.outer(d, d)))
    np.testing.assert_array_less(np.abs(B[10:, 0:4] - B_ref),
                                 1e-12 * np.sqrt(np.outer(d, trial_sq)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-8.0, 2.0))
def test_condensation_against_50_digits_at_every_scale(seed, log_scale):
    """On shape-regular triangles of diameter 1e-8 to 1e2 the element
    matrices condense without SPDError, and from the same float B and G a
    50-digit mpmath computation gives the tensor block of the Cholesky
    factor (row i to 1e-12 of sqrt(G_ii)) and ``A_T = B^T G^{-1} B`` (to
    1e-12 of sqrt(A_ii A_jj), against ``W^T W``)."""
    import mpmath
    rng = np.random.default_rng(seed)
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tri = (base + 0.15 * rng.uniform(-1, 1, size=(3, 2))) * 10.0 ** log_scale
    B, G, _ = one_element(mesh_from_arrays(tri, [(0, 1, 2)]), 0)
    W = dpg.condense(B[None], G[None], np.zeros((1, dpg.N_TEST)),
                     np.arange(1))[0][0]
    A = W.T @ W
    L = np.linalg.cholesky(G)[10:, 10:]
    with mpmath.workdps(50):
        # G is block diagonal: scalar rows 0-9, then the tensor rows
        A_mp = mpmath.zeros(dpg.N_TRIAL)
        for rows in (slice(0, 10), slice(10, 28)):
            L_mp = mpmath.cholesky(mpmath.matrix(G[rows, rows].tolist()))
            X = L_mp ** -1 * mpmath.matrix(B[rows].tolist())
            A_mp += X.T * X
        L_mp = np.array(L_mp.tolist(), dtype=float)
        A_mp = np.array(A_mp.tolist(), dtype=float)
    d = np.diag(G)[10:]
    assert np.all(np.abs(L - L_mp) <= 1e-12 * np.sqrt(d)[:, None])
    d = np.diag(A_mp)
    assert np.all(np.abs(A - A_mp) <= 1e-12 * np.sqrt(np.outer(d, d)))


@pytest.mark.parametrize("seed", range(8))
def test_gram_spd_on_random_triangles(seed):
    rng = np.random.default_rng(seed)
    tri = random_shape_regular_triangle(rng)
    mesh = mesh_from_arrays(tri, [(0, 1, 2)])
    G = one_element(mesh, 0)[1]
    np.linalg.cholesky(G)      # raises on failure


def test_local_b_constant_test_rows():
    mesh = mesh_from_arrays([(0.1, 0.2), (1.3, 0.1), (0.4, 1.2)], [(0, 1, 2)])
    B = one_element(mesh, 0)[0]
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
    B = one_element(mesh, 0)[0]
    i = int(np.nonzero((EXP_I == 2) & (EXP_J == 0))[0][0])
    # test function: xi^2 with Hessian 2/h^2 e1e1; scale back to h^2/2 Hess
    h = geom.diam
    assert abs((h ** 2 / 2.0) * B[i, 1] - mesh.tri_area[0]) < 1e-13


def test_local_load():
    mesh = reference_triangle_mesh()
    load0 = one_element(mesh, 0)[2]
    np.testing.assert_allclose(load0, 0.0)
    load1 = one_element(mesh, 0, f=lambda p: np.ones(len(p)))[2]
    assert abs(load1[0] - (-0.5)) < 1e-14
    np.testing.assert_allclose(load1[10:], 0.0)
    # against the test function x (fitted in the scaled basis):
    geom = ElementGeometry(mesh, 0)
    pts, _ = ASSEMBLY_RULE.map_to(geom.P)
    table = p3_table(geom.centroid, geom.diam, pts)
    coeffs, *_ = np.linalg.lstsq(table.values, pts[:, 0], rcond=None)
    assert abs(load1[:10] @ coeffs - (-1.0 / 6.0)) < 1e-13


def test_condense_degenerate_and_identity_gram():
    W, v = dpg.condense(np.zeros((1, 4, 3)), np.eye(4)[None],
                        np.zeros((1, 4)), np.arange(1))
    np.testing.assert_allclose(W[0].T @ W[0], 0.0)
    np.testing.assert_allclose(W[0].T @ v[0], 0.0)
    rng = np.random.default_rng(2)
    B = rng.normal(size=(4, 3))
    load = rng.normal(size=4)
    W, v = dpg.condense(B[None], np.eye(4)[None], load[None], np.arange(1))
    np.testing.assert_allclose(W[0].T @ W[0], B.T @ B, atol=1e-14)
    np.testing.assert_allclose(W[0].T @ v[0], B.T @ load, atol=1e-14)


def test_condense_against_dense_inverse_oracle():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(3, 4, 3))
    load = rng.normal(size=(3, 4))
    X = rng.normal(size=(3, 4, 4))
    G = X @ np.swapaxes(X, 1, 2) + 4.0 * np.eye(4)
    W, v = dpg.condense(B, G, load, np.arange(3))
    for t in range(3):
        Ginv = np.linalg.inv(G[t])
        np.testing.assert_allclose(W[t].T @ W[t], B[t].T @ Ginv @ B[t],
                                   atol=1e-12)
        np.testing.assert_allclose(W[t].T @ v[t], B[t].T @ Ginv @ load[t],
                                   atol=1e-12)


def test_condense_stack_matches_single_and_names_the_first_failure():
    """One Cholesky call for the whole stack gives each Gram the same bits
    as a call for it alone; with two Grams that do not factor, the error
    names the first by the first triangle of its class, with its pivot."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 28, 28))
    G = X @ np.swapaxes(X, 1, 2) + 28 * np.eye(28)
    B, load = rng.normal(size=(5, 28, 22)), rng.normal(size=(5, 28))
    W, v = dpg.condense(B, G, load, np.arange(5))
    for c in range(5):
        Wc, vc = dpg.condense(B[c:c + 1], G[c:c + 1], load[c:c + 1],
                              np.arange(1))
        np.testing.assert_array_equal(W[c], Wc[0])
        np.testing.assert_array_equal(v[c], vc[0])
    G[3:] = -G[3:]
    cls = np.array([0, 4, 1, 2, 3, 3])     # class 3 starts at triangle 4
    with pytest.raises(SPDError,
                       match=r"^element Gram matrix 4 is not SPD: pivot 0 = -"
                       ) as err:
        dpg.condense(B, G, rng.normal(size=(6, 28)), cls)
    assert err.value.index == (4,)
    assert err.value.pivot == 0


def test_condense_propagates_spd_failure():
    G = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
    with pytest.raises(SPDError,
                       match=r"^element Gram matrix 1 is not SPD: pivot 1 = "
                       ) as err:
        dpg.condense(np.zeros((2, 2, 2)), G, np.zeros((2, 2)), np.arange(2))
    assert err.value.index == (1,)
    assert err.value.pivot == 1


def test_condense_types_a_stack_failure_no_gram_explains(monkeypatch):
    """The stacked Cholesky and the class-by-class refactoring use
    different LAPACK builds, so the stack may fail where every Gram
    factors alone; that is an SPDError too, not a bare LinAlgError."""
    def failing(G):
        raise np.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    with pytest.raises(SPDError, match="every element Gram matrix factors "
                       "alone") as err:
        dpg.condense(np.zeros((2, 2, 2)), np.stack([np.eye(2)] * 2),
                     np.zeros((2, 2)), np.arange(2))
    assert (err.value.pivot, err.value.index) == (None, None)


@pytest.mark.parametrize("f", [
    lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0),
    lambda p: 1.0], ids=["nan", "scalar"])
def test_a_load_not_one_finite_value_per_point_is_refused(f):
    problem = replace(builtin_square_problem(), f=f)
    with pytest.raises(ConfigurationError,
                       match="load f is not one finite value per point"):
        solve_problem(problem, problem.initial_mesh)


# ---------------------------------------------------------------------------
# batched element path against single elements and dense oracles
# ---------------------------------------------------------------------------

def adaptive_zshape(min_triangles):
    """The first mesh of the adaptive Z-shape run with at least
    ``min_triangles`` triangles, graded towards the reentrant corner."""
    levels = experiment_levels(ExperimentConfig("zshape", "adaptive",
                                                max_levels=100))
    return next(level.mesh for level in levels
                if level.mesh.num_triangles >= min_triangles)


@pytest.fixture(scope="module")
def zshape_1000():
    """Adaptive Z-shape mesh with at least 1,000 triangles, whose rows of
    the unreduced system sum many duplicates."""
    return adaptive_zshape(1000)


@pytest.fixture(scope="module")
def graded_zshape():
    """Adaptive Z-shape mesh with more than 100 triangles and its stacked
    element matrices."""
    prob = builtin_zshape_problem()
    mesh = adaptive_zshape(100)
    geom = ElementGeometry(mesh, np.arange(mesh.num_triangles))
    B, G = dpg.element_matrices(geom)
    assert prob.f is None          # so the load is zero
    return prob, mesh, B, G, np.zeros((mesh.num_triangles, dpg.N_TEST))


def test_batched_matches_single_element_path(graded_zshape):
    prob, mesh, B, G, load = graded_zshape
    f = lambda p: 1.0 + p[:, 0] ** 2
    load_f = triangle_loads(
        ElementGeometry(mesh, np.arange(mesh.num_triangles)), f)
    for t in (0, mesh.num_triangles // 2, mesh.num_triangles - 1):
        for batched, single in zip((B[t], G[t], load_f[t]),
                                   one_element(mesh, t, f)):
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
    est = dpg.estimate(
        dpg.build_element_systems(mesh, dm, prob.f), x)
    r = load - (B @ x[dm.element_scatter(mesh, np.arange(mesh.num_triangles)),
                      None])[..., 0]
    oracle = np.sqrt(np.einsum("ti,ti->t", r,
                               np.linalg.solve(G, r[..., None])[..., 0]))
    np.testing.assert_allclose(est.per_element, oracle, rtol=1e-10)


def test_condensed_blocks_equal_dense_schur_complement(graded_zshape):
    prob, mesh, B, G, load = graded_zshape
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    systems = dpg.build_element_systems(mesh, dm, prob.f)
    W = systems.W[systems.cls]
    A = np.swapaxes(W, 1, 2) @ W
    oracle = np.swapaxes(B, 1, 2) @ np.linalg.solve(G, B)
    err = np.abs(A - oracle).max(axis=(1, 2))
    assert (err <= 1e-10 * np.abs(oracle).max(axis=(1, 2))).all()


def test_without_load_v_is_zero_and_W_unchanged(graded_zshape):
    """f = None skips the load table; v is then exactly zero and W is the
    same as with a load that evaluates to zero."""
    prob, mesh = graded_zshape[:2]
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    none = dpg.build_element_systems(mesh, dm, None)
    zero = dpg.build_element_systems(mesh, dm, lambda p: np.zeros(len(p)))
    assert not none.v.any()
    assert np.array_equal(none.W, zero.W)


def test_element_systems_are_c_contiguous(graded_zshape):
    """W and v come out C-contiguous, with and without a load.  Equal
    values do not fix the DPG numbers: ``W^T W`` and ``W x`` pick their
    matmul kernels by memory layout, so the same W with other strides
    (one stacked ``solve_triangular`` gives strides (160, 8, 32) on a
    (3, 4, 5) stack) moves the adaptive Z-shape's eta from level 2 on."""
    prob, mesh = graded_zshape[:2]
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    for f in (None, lambda p: 1.0 + p[:, 0] ** 2):
        systems = dpg.build_element_systems(mesh, dm, f)
        assert systems.W.flags.c_contiguous
        assert systems.v.flags.c_contiguous


# ---------------------------------------------------------------------------
# one element system per congruence class
# ---------------------------------------------------------------------------

def rel_per_element(a, b):
    """Normwise relative difference of each element's block."""
    axes = tuple(range(1, a.ndim))
    return np.linalg.norm(a - b, axis=axes) / np.linalg.norm(b, axis=axes)


def class_and_element_paths(mesh, f):
    """(W, v, A_T) per triangle from the class path and from element
    matrices and condensation run on every triangle, plus the classes."""
    dm = build_dofmap(mesh, clamped_zero_bc(mesh))
    systems = dpg.build_element_systems(mesh, dm, f)
    W_c = systems.W[systems.cls]
    geom = ElementGeometry(mesh, np.arange(mesh.num_triangles))
    W, v = dpg.condense(*dpg.element_matrices(geom),
                        triangle_loads(geom, f),
                        np.arange(mesh.num_triangles))
    gram = lambda X: np.swapaxes(X, 1, 2) @ X
    return ((W_c, systems.v, gram(W_c)), (W, v, gram(W)), systems.cls)


def square_mesh(levels):
    from platedpg.mesh import uniform_refine
    mesh = builtin_square_problem().initial_mesh
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return mesh


def jittered_square():
    """A square mesh whose interior vertices are moved at random, so no
    two triangles are congruent."""
    mesh = square_mesh(3)
    coords = mesh.coords.copy()
    inner = ~mesh.vertex_on_boundary
    rng = np.random.default_rng(7)
    coords[inner] += rng.uniform(-0.02, 0.02, size=(inner.sum(), 2))
    return mesh_from_arrays(coords, mesh.tri_vertices)


def relabelled_square():
    """The square mesh with its vertices and triangles renumbered at
    random: congruent triangles in the same local vertex order then differ
    in edge orientation and edge signs."""
    mesh = square_mesh(3)
    rng = np.random.default_rng(3)
    new_id = rng.permutation(mesh.num_vertices)
    coords = np.empty_like(mesh.coords)
    coords[new_id] = mesh.coords
    tris = new_id[mesh.tri_vertices][rng.permutation(mesh.num_triangles)]
    return mesh_from_arrays(coords, tris)


@pytest.mark.parametrize("case", ["square", "relabelled_square",
                                  "graded_zshape", "jittered"])
def test_class_path_matches_per_element_path(case, request):
    f = lambda p: 1.0 + p[:, 0] ** 2
    if case == "square":
        mesh = square_mesh(3)
    elif case == "relabelled_square":
        mesh = relabelled_square()
    elif case == "graded_zshape":
        mesh = request.getfixturevalue("graded_zshape")[1]
    else:
        mesh = jittered_square()
    by_class, by_element, cls = class_and_element_paths(mesh, f)
    for a, b in zip(by_class, by_element):
        assert rel_per_element(a, b).max() <= 1e-13
    if case == "jittered":
        assert cls.max() + 1 == mesh.num_triangles
    else:
        assert cls.max() + 1 < mesh.num_triangles / 2


def test_translation_neither_merges_shapes_nor_costs_accuracy(
        graded_zshape):
    """Shifted by (1e3, -1e3), the coordinates carry rounding of about
    1e-13, which moves the per-element matrices themselves by some 1e-12
    relative.  The shifted mesh must fall into the same classes as the
    original, and the class path must stay as close to the per-element
    matrices of the original mesh as the per-element path on the shifted
    mesh does."""
    prob, mesh = graded_zshape[:2]
    shift = np.array([1e3, -1e3])
    moved = mesh_from_arrays(mesh.coords + shift, mesh.tri_vertices)
    f = lambda p: 1.0 + p[:, 0] ** 2
    _, at_origin, cls = class_and_element_paths(mesh, f)
    by_class, by_element, moved_cls = class_and_element_paths(
        moved, lambda p: f(p - shift))
    pairs = np.unique(np.column_stack([cls, moved_cls]), axis=0)
    assert len(pairs) == cls.max() + 1 == moved_cls.max() + 1
    for c, e, o in zip(by_class, by_element, at_origin):
        assert (rel_per_element(c, o).max()
                <= rel_per_element(e, o).max() + 1e-13)


def test_class_counts_on_nvb_meshes():
    """Uniform refinement of the square keeps 8 shapes; an adaptive
    Z-shape mesh has at least ten triangles per class.  A key that saw
    absolute position would give one class per triangle."""
    def classes(mesh):
        dm = build_dofmap(mesh, clamped_zero_bc(mesh))
        return len(dpg.build_element_systems(mesh, dm, None).W)

    square = square_mesh(5)
    assert square.num_triangles == 2048
    assert classes(square) == 8
    zshape = adaptive_zshape(2000)
    assert classes(zshape) <= zshape.num_triangles / 10


def _classes_and_corner_shapes(mesh, corner):
    """Element classes of the mesh, and the number of distinct corner
    shapes the error pass integrates about the vertex ``corner``.  The
    classes are found before the Grams are factored, which fails below
    h of about 7e-4, so the factorization is skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpg, "condense", lambda B, G, load, cls: (B, load))
        cls = dpg.build_element_systems(mesh, build_dofmap(mesh, BCSpec()),
                                        None).cls
    exact = ExactSolution(lambda p: (np.zeros(len(p)), None,
                                     np.zeros((len(p), 2, 2))),
                          Singularity(tuple(corner), 2.0))
    nT = mesh.num_triangles
    l2_errors(mesh, SimpleNamespace(u=np.zeros(nT), M=np.zeros((nT, 3))),
              exact)
    return cls, len(exact._corner_moments)


@settings(max_examples=20, deadline=None)
@given(zshape=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       rounds=st.integers(0, 5), k=st.integers(-20, 20),
       shift=st.tuples(st.integers(-2 ** 16, 2 ** 16),
                       st.integers(-2 ** 16, 2 ** 16)),
       j=st.integers(-8, 8))
def test_dyadic_shape_is_exact_and_blind_to_dyadic_similarity(
        zshape, seed, rounds, k, shift, j):
    """On a random NVB refinement of the square or the Z-shape, scaled by
    2**k and moved by a dyadic translation, both exact in floating point:
    ``dyadic_shape`` writes every triangle's vertex offsets exactly as
    ``2**e Q``, and neither the element classes nor the number of corner
    shapes about the moved corner (0, 0) change."""
    prob = builtin_zshape_problem() if zshape else builtin_square_problem()
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(prob.initial_mesh)
    for _ in range(rounds):
        n = mesh.num_triangles
        mesh = nvb_refine(mesh, rng.choice(n, n // 2, replace=False))
    t = np.ldexp(np.array(shift, dtype=float), k + j)
    scaled = np.ldexp(mesh.coords, k)
    coords = scaled + t
    shifts = np.broadcast_to(t, scaled.shape)
    assert all(Fraction(c) == Fraction(a) + Fraction(b) for c, a, b in
               zip(coords.ravel(), scaled.ravel(), shifts.ravel()))
    moved = Mesh(coords, mesh.tri_vertices, mesh.refinement_edge)
    for m in (mesh, moved):
        P = m.coords[m.tri_vertices]
        Q, e = dyadic_shape(P - P[:, :1])
        assert np.array_equal(np.ldexp(Q, e[:, None, None]), P - P[:, :1])
    cls, n_corner = _classes_and_corner_shapes(mesh, (0.0, 0.0))
    moved_cls, moved_corner = _classes_and_corner_shapes(moved, t)
    pairs = np.unique(np.column_stack([cls, moved_cls]), axis=0)
    assert len(pairs) == cls.max() + 1 == moved_cls.max() + 1
    assert moved_corner == n_corner >= 1


def test_gram_failure_names_a_triangle_of_the_class(monkeypatch):
    mesh = square_mesh(2)
    prob = builtin_square_problem()
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    cls = dpg.build_element_systems(mesh, dm, prob.f).cls
    bad = cls.max()
    real = dpg.element_matrices

    def breaking(geom):
        B, G = real(geom)
        G[bad, 23, 23] = -1.0
        return B, G

    monkeypatch.setattr(dpg, "element_matrices", breaking)
    with pytest.raises(SPDError, match=r"element Gram matrix (\d+) is not "
                       r"SPD: pivot 23 = ") as err:
        dpg.build_element_systems(mesh, dm, prob.f)
    t = int(re.search(r"matrix (\d+)", str(err.value)).group(1))
    assert t == np.flatnonzero(cls == bad)[0]     # the first of its class
    assert err.value.index == (t,)
    assert err.value.pivot == 23


# ---------------------------------------------------------------------------
# assembly and estimation
# ---------------------------------------------------------------------------

def test_assemble_zero_data_gives_zero_solution():
    mesh = unit_square_mesh()
    prob = ProblemSpec("zero", mesh, None, bc_builder=clamped_zero_bc)
    dm = build_dofmap(mesh, clamped_zero_bc(mesh))
    system = dpg.assemble(mesh, dm, prob)
    np.testing.assert_allclose(system.rhs, 0.0, atol=1e-15)
    x, _ = spd_solve(system.A, system.rhs)
    np.testing.assert_allclose(x, 0.0)
    est = dpg.estimate(system.systems, dm.recover_full(system.scale * x))
    np.testing.assert_allclose(est.per_element, 0.0, atol=1e-15)


def test_assemble_clamped_square_is_24x24_spd():
    mesh = unit_square_mesh()
    prob = ProblemSpec("clamped", mesh, lambda p: np.ones(len(p)),
                       bc_builder=clamped_zero_bc)
    dm = build_dofmap(mesh, clamped_zero_bc(mesh))
    system = dpg.assemble(mesh, dm, prob)
    assert system.A.shape == (24, 24)
    np.linalg.cholesky(system.A.toarray())
    A = system.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def test_assemble_symmetry_on_square_problem():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    A = system.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def diagonal_product_reference(dm, systems):
    """A and rhs of the condensed system formed with R built as a sparse
    matrix and explicit diagonal matrices, ``sym(D (R^T A_full R) D)`` and
    ``D R^T (b - A_full x_p)``, and the number of entries of ``D (R^T
    A_full R) D`` whose transposed position it does not hold."""
    W, idx, cls = systems.W, systems.scatter, systems.cls
    A_T = dpg._sym(np.swapaxes(W, 1, 2) @ W)[cls]
    b_T = np.einsum("tij,ti->tj", W[cls], systems.v)
    A_full = sparse_from_triplets(np.repeat(idx, dpg.N_TRIAL, axis=1).ravel(),
                                  np.tile(idx, dpg.N_TRIAL).ravel(),
                                  A_T.ravel(), dm.full_dim)
    b_full = np.bincount(idx.ravel(), weights=b_T.ravel(),
                         minlength=dm.full_dim)
    R = reduction_matrix(dm)
    A = (R.T @ A_full @ R).tocsr()
    rhs = np.asarray(R.T @ (b_full - A_full @ dm.fixed_full())).ravel()
    diag = A.diagonal()
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.maximum(diag, 1e-300)), 1.0)
    D = sp.diags(scale)
    A = (D @ A @ D).tocsr()
    held = (A != 0).astype(np.int8)
    return 0.5 * (A + A.T), scale * rhs, (held - held.T).nnz


@pytest.mark.parametrize("case", ["graded_zshape", "square_L3", "square_L4",
                                  "zshape_1000"])
def test_assemble_equals_diagonal_product_reference_bitwise(case, request):
    """In-place equilibration computes each entry as (a_ij d_i) d_j, as the
    product with diagonal matrices does, and the class blocks scattered
    straight into CSR sum their duplicates as the triplet path does: the
    same bits, and A is canonical CSR and exactly symmetric.  The Z-shapes
    carry inhomogeneous clamped data, the squares a load and simply
    supported BCs.  The square L4 pattern is symmetric before the
    symmetrization; the other three hold entries whose transpose the
    sparse product dropped as an exact zero, so the in-place average
    inserts them first."""
    if case == "graded_zshape":
        prob, mesh = request.getfixturevalue("graded_zshape")[:2]
    elif case == "zshape_1000":
        prob, mesh = builtin_zshape_problem(), request.getfixturevalue(case)
    else:
        prob, mesh = builtin_square_problem(), square_mesh(int(case[-1]))
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    A_ref, rhs_ref, n_one_sided = diagonal_product_reference(dm,
                                                             system.systems)
    assert (n_one_sided > 0) == (case != "square_L4")
    A = system.A
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(A_ref, name)), name
    assert np.array_equal(system.rhs, rhs_ref)
    assert np.abs(system.rhs).max() > 0.0
    assert A.format == "csr" and A.has_canonical_format
    assert (A - A.T).nnz == 0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       density=st.floats(0.05, 1.0))
def test_symmetrize_equals_half_sum_with_transpose_bitwise(seed, n, density):
    """The in-place average gives the bits and the stored entries of
    ``0.5 * (A + A.T)`` on canonical CSR: values spanning 16 decades,
    entries held on one side only, pairs that cancel to exactly 0.0
    (dropped), stored zeros, and subnormals whose half underflows (kept
    as a stored 0.0 or -0.0).  From n = 3 on, each of these is planted
    once."""
    rng = np.random.default_rng(seed)
    held = rng.random((n, n)) < density
    vals = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
    kind = rng.integers(0, 8, (n, n))
    tiny = rng.choice([-3, -1, 1, 2, 3], (n, n)) * 5e-324
    vals = np.where(kind == 1, tiny, np.where(kind == 2, 0.0, vals))
    cancel = np.triu(kind == 3, 1)
    held[cancel] = held.T[cancel] = True
    vals.T[cancel] = -vals[cancel]
    if n >= 3:
        held[0, 1], held[1, 0], vals[0, 1] = True, False, -5e-324
        held[1, 2] = held[2, 1] = True
        vals[2, 1] = -vals[1, 2]
    A = sp.csr_matrix((vals[held], np.nonzero(held)[1],
                       np.r_[0, np.cumsum(held.sum(axis=1))]), shape=(n, n))
    assert A.has_canonical_format
    ref = 0.5 * (A + A.T)
    dpg._symmetrize(A)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data.view(np.uint64), ref.data.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       nT=st.integers(1, 80), nC=st.integers(1, 4))
def test_class_block_csr_equals_triplet_path_bitwise(seed, n, nT, nC):
    """Random blocks spanning 16 decades, so that the order of the
    duplicate sums shows in the bits, scattered to few rows, so that rows
    hold far more than 16 duplicates; a scatter row may repeat an index."""
    rng = np.random.default_rng(seed)
    k = 5
    blocks = rng.normal(size=(nC, k, k)) * 10.0 ** rng.integers(
        -8, 8, size=(nC, k, k))
    cls = rng.integers(0, nC, nT)
    scatter = rng.integers(0, n, size=(nT, k))
    A = dpg._class_block_csr(blocks, cls, scatter, n)
    ref = sparse_from_triplets(np.repeat(scatter, k, axis=1).ravel(),
                               np.tile(scatter, k).ravel(),
                               blocks[cls].ravel(), n)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name
    assert A.has_canonical_format


def test_assemble_holds_no_per_triangle_copy_of_the_blocks(zshape_1000):
    """The traced peak of assembly stays below 3.1 times the nT 22 x 22
    float64 blocks that a per-triangle copy of the class blocks takes:
    2.97 on this mesh, reached in the in-place symmetrization, with the
    product ``R^T A_full`` at 2.77.  It was 3.09, reached in the row
    reduction of A_full, while R^T was applied by gathering rows and A
    transposed between the two reductions, 3.14, reached in the
    symmetrization, while that built A.T before it inserted the entries
    held on one side only into both, 3.26 with ``R^T A_full`` formed as
    a sparse product with R, 3.86 with the reduced rows gathered into new
    matrices and stacked while A_full or the first reduction was alive,
    4.1 while A_full stayed alive through the second reduction product
    and A + A.T was formed as new matrices, and 8.6 when A_T, its
    triplets and their COO and CSR matrices were all held at once."""
    prob, mesh = builtin_zshape_problem(), zshape_1000
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dpg.assemble(mesh, dm, prob)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * mesh.num_triangles * dpg.N_TRIAL ** 2 * 8


def test_chunked_estimate_equals_one_gathered_product(zshape_1000):
    prob, mesh = builtin_zshape_problem(), zshape_1000
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    systems = dpg.build_element_systems(mesh, dm, prob.f)
    x = np.random.default_rng(1).normal(size=dm.full_dim)
    r = systems.v - (systems.W[systems.cls]
                     @ x[systems.scatter][..., None])[..., 0]
    assert mesh.num_triangles % dpg.CHUNK and mesh.num_triangles > dpg.CHUNK
    assert np.array_equal(dpg.estimate(systems, x).per_element,
                          np.linalg.norm(r, axis=1))


def test_estimator_positive_with_load():
    prob = builtin_square_problem()
    mesh = prob.initial_mesh
    dm = build_dofmap(mesh, prob.bc_builder(mesh))
    system = dpg.assemble(mesh, dm, prob)
    x, _ = spd_solve(system.A, system.rhs)
    est = dpg.estimate(system.systems, dm.recover_full(system.scale * x))
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
    records = [level.record for level in experiment_levels(
        ExperimentConfig("square", "uniform", max_levels=4))]
    for seq in ([r.eta for r in records], [r.err_M for r in records]):
        for a, b in zip(seq, seq[1:]):
            assert b <= 1.01 * a


def test_corner_sweep_estimator_halves_like_the_singularity():
    """Corner sweep: from the Z-shape refined uniformly twice, each round
    bisects only the triangles with a vertex at the reentrant corner,
    which adds 5 triangles and 55 DOFs.  The exact solution is
    homogeneous of degree 1 + alpha about the corner and the corner patch
    repeats at half the size every two rounds, so the corner estimator
    (the root of the summed eta_T^2 of the corner triangles) shrinks by
    2^-alpha over two rounds.  Rounds 13 and beyond drift from that ratio
    as the global normal equations lose accuracy, so only rounds 8-12
    are checked; every round to 19 (h_min 4.9e-4) must still factor
    its element Grams, so none raises SPDError."""
    prob = builtin_zshape_problem()
    mesh = uniform_refine(uniform_refine(prob.initial_mesh))
    corner_etas = []
    for k in range(20):
        _, est, _, ndofs = solve_problem(prob, mesh)
        assert (mesh.num_triangles, ndofs) == (80 + 5 * k, 882 + 55 * k)
        at_corner = np.nonzero(np.all(
            mesh.coords[mesh.tri_vertices] == 0.0, axis=2).any(axis=1))[0]
        corner_etas.append(np.linalg.norm(est.per_element[at_corner]))
        mesh = nvb_refine(mesh, set(at_corner.tolist()))
    ratios = np.array(corner_etas[8:13]) / np.array(corner_etas[6:11])
    np.testing.assert_allclose(ratios, 2.0 ** -SINGULAR_ALPHA, rtol=0,
                               atol=2e-4)
