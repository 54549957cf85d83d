import math

import numpy as np
import pytest

from platedpg.errors import ConfigurationError
from platedpg.polyquad import (EDGE_NODES, EDGE_WEIGHTS, EXP_I, EXP_J,
                               ScalarBasis, tri_rule)
from trace_oracles import TensorBasis

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def monomial_integral_ref(i, j):
    """Exact integral of x^i y^j over the reference triangle."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def subdivision_oracle(fn, tri, depth=8):
    """Brute-force quadrature: recursive quadrisection with the degree-2
    edge-midpoint rule on each cell."""
    tris = [np.asarray(tri, dtype=float)]
    for _ in range(depth):
        nxt = []
        for p in tris:
            m01, m12, m02 = (0.5 * (p[0] + p[1]), 0.5 * (p[1] + p[2]),
                             0.5 * (p[0] + p[2]))
            nxt += [np.array([p[0], m01, m02]), np.array([m01, p[1], m12]),
                    np.array([m02, m12, p[2]]), np.array([m01, m12, m02])]
        tris = nxt
    cells = np.stack(tris)
    mids = 0.5 * (cells + np.roll(cells, -1, axis=1))   # edge midpoints
    d1 = cells[:, 1] - cells[:, 0]
    d2 = cells[:, 2] - cells[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    vals = fn(mids.reshape(-1, 2)).reshape(-1, 3)
    return float(np.sum(area / 3.0 * vals.sum(axis=1)))


def test_tri_rule_exactness_all_degrees():
    for deg in range(1, 13):
        rule = tri_rule(deg)
        pts, w = rule.map_to(REF)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                val = w @ (pts[:, 0] ** i * pts[:, 1] ** j)
                exact = monomial_integral_ref(i, j)
                assert abs(val - exact) <= 1e-13 * max(abs(exact), 1.0), \
                    (deg, i, j)


def test_tri_rule_exactness_on_mapped_triangle():
    tri = np.array([[0.2, -0.1], [1.4, 0.3], [0.5, 1.7]])
    rule = tri_rule(8)
    pts, w = rule.map_to(tri)
    oracle = subdivision_oracle(lambda p: p[:, 0] ** 5 * p[:, 1] ** 3, tri)
    assert abs(w @ (pts[:, 0] ** 5 * pts[:, 1] ** 3) - oracle) < 1e-10


def test_tri_rule_examples():
    pts, w = tri_rule(1).map_to(REF)
    assert abs(w.sum() - 0.5) < 1e-14
    pts, w = tri_rule(4).map_to(REF)
    assert abs(w @ (pts[:, 0] ** 2 * pts[:, 1]) - 1.0 / 60.0) < 1e-15
    pts, w = tri_rule(8).map_to(REF)
    oracle = subdivision_oracle(lambda p: (p[:, 0] + p[:, 1]) ** 8, REF)
    assert abs(oracle - 0.1) < 1e-10          # analytic value is 1/10
    assert abs(w @ ((pts[:, 0] + pts[:, 1]) ** 8) - oracle) < 1e-10


def test_tri_rule_degree_bounds():
    with pytest.raises(ConfigurationError):
        tri_rule(0)
    with pytest.raises(ConfigurationError):
        tri_rule(13)


def test_edge_rule():
    """The five edge nodes in (0, 1) integrate every monomial s^k on
    [0, 1] exactly for k <= 9, to 4e-16 of 1/(k + 1), and s^10 not."""
    assert EDGE_NODES.shape == EDGE_WEIGHTS.shape == (5,)
    assert np.all((EDGE_NODES > 0.0) & (EDGE_NODES < 1.0))
    error = [EDGE_WEIGHTS @ EDGE_NODES ** k - 1.0 / (k + 1) for k in range(11)]
    assert np.all(np.abs(error[:10]) < 4e-16)
    assert abs(error[10]) > 1e-7


def test_scalar_hessians_of_plain_monomials():
    # frame with centroid 0 and scale 1 makes basis functions plain x^i y^j
    basis = ScalarBasis((0.0, 0.0), 1.0)
    pts = np.array([[0.3, 0.4], [0.9, 0.1]])
    table = basis.eval(pts)
    idx = {(i, j): n for n, (i, j) in enumerate(zip(EXP_I, EXP_J))}
    h_x2 = table.hessians[:, idx[(2, 0)]]
    np.testing.assert_allclose(h_x2, [[[2, 0], [0, 0]]] * 2, atol=1e-15)
    h_xy = table.hessians[:, idx[(1, 1)]]
    np.testing.assert_allclose(h_xy, [[[0, 1], [1, 0]]] * 2, atol=1e-15)


def test_scaled_cubic_hessian():
    h = 0.7
    centroid = np.array([0.2, -0.3])
    basis = ScalarBasis(centroid, h)
    idx = int(np.nonzero((EXP_I == 3) & (EXP_J == 0))[0][0])
    pt = centroid + h * np.array([1.0, 0.0])
    table = basis.eval(pt[None, :])
    np.testing.assert_allclose(table.hessians[0, idx],
                               [[6.0 / h ** 2, 0.0], [0.0, 0.0]], atol=1e-12)


def test_scalar_gradients_match_finite_differences():
    basis = ScalarBasis((0.4, 0.6), 1.3)
    p = np.array([[0.25, 0.55]])
    eps = 1e-6
    table = basis.eval(p)
    for d, e in ((0, np.array([eps, 0.0])), (1, np.array([0.0, eps]))):
        fd = (basis.eval(p + e).values - basis.eval(p - e).values) / (2 * eps)
        np.testing.assert_allclose(table.gradients[:, :, d], fd, atol=1e-8)


def fit_p2_on_triangle(basis, fn, tri):
    """Coefficients of fn in the P2 monomials, the first six columns of
    the P3 basis, by least squares on dense quadrature points (exact for
    quadratic fn)."""
    pts, _ = tri_rule(10).map_to(tri)
    table = basis.eval(pts)
    coeffs, *_ = np.linalg.lstsq(table.values[:, :6], fn(pts), rcond=None)
    return coeffs


def test_tensor_divdiv_examples():
    basis = TensorBasis((0.0, 0.0), 1.0)
    pts = np.array([[0.3, 0.2], [0.1, 0.7]])
    table = basis.eval(pts)
    idx = {(i, j): n for n, (i, j) in enumerate(zip(EXP_I, EXP_J))}
    # Theta = [[x^2, 0], [0, y^2]] -> divdiv = 4
    dd = (table.divdiv[:, 3 * idx[(2, 0)] + 0]
          + table.divdiv[:, 3 * idx[(0, 2)] + 2])
    np.testing.assert_allclose(dd, 4.0, atol=1e-14)
    # Theta = [[0, xy], [xy, 0]] -> divdiv = 2
    dd = table.divdiv[:, 3 * idx[(1, 1)] + 1]
    np.testing.assert_allclose(dd, 2.0, atol=1e-14)


def test_tensor_divdiv_constant_for_p2():
    basis = TensorBasis((0.3, 0.4), 0.8)
    pts = np.random.default_rng(0).uniform(size=(7, 2))
    table = basis.eval(pts)
    spread = table.divdiv.max(axis=0) - table.divdiv.min(axis=0)
    np.testing.assert_allclose(spread, 0.0, atol=1e-12)


def test_biharmonic_consistency():
    # divdiv(Hessian v) equals the fourth-order operator applied to v
    tri = np.array([[0.1, 0.0], [1.2, 0.2], [0.3, 1.1]])
    centroid = tri.mean(axis=0)
    basis = TensorBasis(centroid, 1.1)

    def v_hess(p):
        # v = x^4 + x^2 y^2 - y^4 + x^3 - 2 y^3
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 12 * p[:, 0] ** 2 + 2 * p[:, 1] ** 2 + 6 * p[:, 0]
        out[:, 0, 1] = out[:, 1, 0] = 4 * p[:, 0] * p[:, 1]
        out[:, 1, 1] = 2 * p[:, 0] ** 2 - 12 * p[:, 1] ** 2 - 12 * p[:, 1]
        return out

    def biharmonic(p):
        # vxxxx + 2 vxxyy + vyyyy
        return 24.0 + 2 * 4.0 - 24.0 + 0 * p[:, 0]

    coeffs = np.stack([
        fit_p2_on_triangle(basis.scalar, lambda p: v_hess(p)[:, 0, 0], tri),
        fit_p2_on_triangle(basis.scalar, lambda p: v_hess(p)[:, 0, 1], tri),
        fit_p2_on_triangle(basis.scalar, lambda p: v_hess(p)[:, 1, 1], tri),
    ], axis=1).ravel()
    pts = np.array([[0.5, 0.4], [0.3, 0.3], [0.9, 0.25]])
    table = basis.eval(pts)
    np.testing.assert_allclose(table.divdiv @ coeffs, biharmonic(pts),
                               rtol=1e-11)


@pytest.mark.parametrize("seed", range(5))
def test_mass_matrices_spd_and_conditioned(seed):
    rng = np.random.default_rng(seed)
    # random shape-regular triangle: perturbed equilateral, random scale
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tri = (base + 0.15 * rng.uniform(-1, 1, size=(3, 2)))
    tri = tri * 10.0 ** rng.uniform(-3, 3)
    centroid = tri.mean(axis=0)
    diam = max(np.linalg.norm(tri[i] - tri[j])
               for i in range(3) for j in range(i))
    pts, w = tri_rule(8).map_to(tri)
    sb = ScalarBasis(centroid, diam).eval(pts)
    mass_s = np.einsum("q,qi,qj->ij", w, sb.values, sb.values)
    tb = TensorBasis(centroid, diam).eval(pts)
    mass_t = np.einsum("q,qiab,qjab->ij", w, tb.values, tb.values)
    for mass in (mass_s, mass_t):
        eig = np.linalg.eigvalsh(mass)
        assert eig.min() > 0
        assert eig.max() / eig.min() < 1e8


def test_stacked_bases_match_single_triangle_evaluation():
    rng = np.random.default_rng(3)
    centroids = rng.uniform(-1, 1, size=(4, 2))
    scales = 10.0 ** rng.uniform(-3, 1, size=4)
    pts = centroids[:, None, :] + scales[:, None, None] * rng.uniform(
        -0.5, 0.5, size=(4, 6, 2))
    for cls in (ScalarBasis, TensorBasis):
        stacked = cls(centroids, scales).eval(pts)
        for t in range(4):
            single = cls(centroids[t], scales[t]).eval(pts[t])
            for a, b in zip(stacked, single):
                np.testing.assert_array_equal(a[t], b)
