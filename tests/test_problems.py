import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import project_fields
from platedpg import problems
from platedpg.problems import (L2_CHUNK, SINGULAR_ALPHA, SINGULAR_C,
                               ZSHAPE_OPENING, ExactSolution,
                               builtin_square_problem, builtin_zshape_problem,
                               fourier_eval, l2_errors, odd_harmonics,
                               singular_eval, zshape_mesh)


# ---------------------------------------------------------------------------
# Fourier solution (simply supported square)
# ---------------------------------------------------------------------------

def test_fourier_vanishes_on_boundary(monkeypatch):
    s = np.linspace(0, 1, 11)
    for n_max in (3, 15):
        monkeypatch.setattr(problems, "FOURIER_N_MAX", n_max)
        u, _, _ = fourier_eval(np.column_stack([np.zeros_like(s), s]))
        np.testing.assert_allclose(u, 0.0, atol=1e-15)
        u, _, _ = fourier_eval(np.column_stack([s, np.zeros_like(s)]))
        np.testing.assert_allclose(u, 0.0, atol=1e-15)


def test_fourier_central_deflection():
    u, _, _ = fourier_eval([0.5, 0.5])
    assert abs(u[0] - 0.00406) < 1e-4


def test_fourier_biharmonic_residual():
    """Term-wise fourth derivatives of the truncated series applied at the
    center must reproduce the unit load up to the truncation tail.

    The tail is that of the alternating sine expansion of the constant
    load: at the center the partial sum equals (1 - 4 R_n / pi)^2 with the
    Leibniz remainder R_n, about 3.9e-2 for 16 retained modes per axis.
    """
    def residual(n_max, x, y):
        k = np.pi * (2 * np.arange(n_max + 1) + 1.0)
        a = k / np.pi
        amp = 16.0 / np.pi ** 6 / (np.multiply.outer(a, a)
                                   * np.add.outer(a ** 2, a ** 2) ** 2)
        sx = np.sin(np.outer([x], k))[0]
        sy = np.sin(np.outer([y], k))[0]
        lap2 = np.add.outer(k ** 2, k ** 2) ** 2
        return np.einsum("a,b,ab,ab->", sx, sy, amp, lap2) - 1.0

    def leibniz_tail(n_max):
        n = np.arange(n_max + 1)
        return np.pi / 4.0 - np.sum((-1.0) ** n / (2 * n + 1))

    for n_max in (5, 15, 40):
        r = residual(n_max, 0.5, 0.5)
        expected = (1.0 - 4.0 * leibniz_tail(n_max) / np.pi) ** 2 - 1.0
        assert abs(r - expected) < 1e-10
    assert abs(residual(15, 0.5, 0.5)) < abs(residual(5, 0.5, 0.5))
    assert abs(residual(40, 0.5, 0.5)) < abs(residual(15, 0.5, 0.5))


def test_fourier_moment_is_minus_hessian():
    pts = np.array([[0.3, 0.4], [0.7, 0.2], [0.5, 0.5]])
    _, _, M = fourier_eval(pts)
    eps = 1e-5
    for p, Mp in zip(pts, M):
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                e_i = np.zeros(2); e_i[i] = eps
                e_j = np.zeros(2); e_j[j] = eps
                up = lambda q: fourier_eval(q)[0][0]
                hess[i, j] = (up(p + e_i + e_j) - up(p + e_i - e_j)
                              - up(p - e_i + e_j) + up(p - e_i - e_j)) \
                    / (4 * eps * eps)
        np.testing.assert_allclose(Mp, -hess, atol=5e-5)


ODD_K = np.pi * (2 * np.arange(16) + 1.0)


@settings(max_examples=100, deadline=None)
@given(ts=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=64))
def test_odd_harmonics_match_direct_sines(ts):
    """The angle-addition recurrence against sin and cos of k t."""
    t = np.array(ts)
    S, C = odd_harmonics(t, 15)
    assert S.shape == C.shape == (16, len(t))
    np.testing.assert_allclose(S, np.sin(np.outer(ODD_K, t)), rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(C, np.cos(np.outer(ODD_K, t)), rtol=0,
                               atol=1e-13)


def _fourier_eval_direct(x, y):
    """The series with its 64 harmonics from sin and cos of np.outer:
    (u, ux, uy, M11, M12, M22)."""
    amp = 16.0 / np.pi ** 6 / np.multiply.outer(ODD_K / np.pi, ODD_K / np.pi)
    amp /= (np.add.outer((ODD_K / np.pi) ** 2, (ODD_K / np.pi) ** 2)) ** 2
    sx, cx = np.sin(np.outer(x, ODD_K)), np.cos(np.outer(x, ODD_K))
    sy, cy = np.sin(np.outer(y, ODD_K)), np.cos(np.outer(y, ODD_K))
    rows = lambda X, a, Y: np.einsum("qb,qb->q", X @ a, Y)
    kc, kr = ODD_K[:, None], ODD_K[None, :]
    return (rows(sx, amp, sy), rows(cx, kc * amp, sy), rows(sx, amp * kr, cy),
            rows(sx, kc ** 2 * amp, sy), -rows(cx, kc * amp * kr, cy),
            rows(sx, amp * kr ** 2, sy))


def test_fourier_eval_matches_direct_formula():
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-1.0, 2.0, (2, 3000))
    u, grad, M = fourier_eval(np.column_stack([x, y]))
    got = (u, grad[:, 0], grad[:, 1], M[:, 0, 0], M[:, 0, 1], M[:, 1, 1])
    for a, b in zip(got, _fourier_eval_direct(x, y)):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    np.testing.assert_array_equal(M[:, 0, 1], M[:, 1, 0])


# ---------------------------------------------------------------------------
# singular solution (reentrant corner)
# ---------------------------------------------------------------------------

def test_singular_constants():
    assert SINGULAR_ALPHA == 0.673583432147380
    assert SINGULAR_C == 1.234587795273723


def test_singular_exponent_relation():
    om = ZSHAPE_OPENING
    assert abs(np.sin(SINGULAR_ALPHA * om)
               + SINGULAR_ALPHA * np.sin(om)) <= 1e-12


def test_singular_clamped_edges():
    radii = np.linspace(0.05, 1.0, 20)
    # edge along the positive x-axis, interior side above: normal (0, 1)
    u, grad, _ = singular_eval(np.column_stack([radii, np.zeros_like(radii)]))
    assert np.abs(u).max() <= 1e-12
    assert np.abs(grad[:, 1]).max() <= 1e-12
    assert np.abs(grad[:, 0]).max() <= 1e-12   # slope along the edge too
    # edge along y = x (third quadrant): interior normal (-1, 1)/sqrt(2)
    xy = -radii / np.sqrt(2.0)
    u, grad, _ = singular_eval(np.column_stack([xy, xy]))
    assert np.abs(u).max() <= 1e-12
    normal = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(grad @ normal).max() <= 1e-12
    assert np.abs(grad @ np.array([1.0, 1.0]) / np.sqrt(2)).max() <= 1e-12


def test_singular_origin_values():
    u, grad, M = singular_eval([0.0, 0.0])
    assert u[0] == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_singular_matches_rotated_frame_implementation():
    """Duplicate evaluation in a rotated frame: rotate coordinates so the
    corner bisector becomes the positive x-axis, evaluate with the plain
    atan2 branch, rotate the gradient back.  Checks the boundary data fed
    to the clamped benchmark, including the vertex (1, 1)."""
    a, C = SINGULAR_ALPHA, SINGULAR_C
    phi0 = ZSHAPE_OPENING / 2.0
    R = np.array([[np.cos(-phi0), -np.sin(-phi0)],
                  [np.sin(-phi0), np.cos(-phi0)]])

    def rotated_eval(x, y):
        xr, yr = R @ np.array([x, y])
        r = np.hypot(xr, yr)
        psi = np.arctan2(yr, xr)
        g = np.cos((1 + a) * psi) + C * np.cos((a - 1) * psi)
        gp = -(1 + a) * np.sin((1 + a) * psi) - C * (a - 1) * np.sin(
            (a - 1) * psi)
        u = r ** (1 + a) * g
        ur = (1 + a) * r ** a * g
        upsi = r ** (1 + a) * gp
        cg, sg = np.cos(psi), np.sin(psi)
        grad_rot = np.array([cg * ur - sg * upsi / r,
                             sg * ur + cg * upsi / r])
        return u, R.T @ grad_rot

    pts = zshape_mesh().coords[zshape_mesh().boundary_vertices()]
    pts = np.vstack([pts, [[0.5, 0.25], [-0.7, -0.4], [1.0, 1.0]]])
    for x, y in pts:
        if x == 0.0 and y == 0.0:
            continue
        u_ref, g_ref = rotated_eval(x, y)
        u, grad, _ = singular_eval([x, y])
        assert abs(u[0] - u_ref) < 1e-13 * max(1.0, abs(u_ref))
        np.testing.assert_allclose(grad.reshape(2), g_ref, atol=1e-12)


def _singular_eval_reference(x, y):
    """singular_eval in its first form, for flat x and y: each angular
    factor evaluated where it is used and the moment factor as
    ``r ** (mu - 2)``."""
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    psi = phi - ZSHAPE_OPENING / 2.0
    a, C = SINGULAR_ALPHA, SINGULAR_C
    mu = 1.0 + a
    n1, n2 = 1.0 + a, a - 1.0
    g = np.cos(n1 * psi) + C * np.cos(n2 * psi)
    gp = -n1 * np.sin(n1 * psi) - C * n2 * np.sin(n2 * psi)
    gpp = -n1 ** 2 * np.cos(n1 * psi) - C * n2 ** 2 * np.cos(n2 * psi)
    interior = r > 0.0
    rs = np.where(interior, r, 1.0)
    cg, sg = np.cos(phi), np.sin(phi)
    u = np.where(interior, rs ** mu * g, 0.0)
    F1 = mu * cg * g - sg * gp
    F2 = mu * sg * g + cg * gp
    grad = np.where(interior[:, None],
                    rs[:, None] ** (mu - 1.0) * np.stack([F1, F2], axis=1),
                    0.0)
    dF1 = -mu * sg * g + (mu - 1.0) * cg * gp - sg * gpp
    dF2 = mu * cg * g + (mu - 1.0) * sg * gp + cg * gpp
    rfac = np.where(interior, rs ** (mu - 2.0), 0.0)
    M11 = -rfac * ((mu - 1.0) * cg * F1 - sg * dF1)
    M12 = -rfac * ((mu - 1.0) * sg * F1 + cg * dF1)
    M22 = -rfac * ((mu - 1.0) * sg * F2 + cg * dF2)
    return u, grad, np.stack([M11, M12, M12, M22], axis=1).reshape(-1, 2, 2)


_coord = st.floats(-1.0, 1.0)
# points on or next to the ray phi = 0 (= 2 pi), where the angle wraps
_near_ray = st.tuples(st.floats(0.0, 1.0), st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12, 5e-324, -5e-324]))


@settings(max_examples=100, deadline=None)
@given(pts=st.lists(st.tuples(_coord, _coord) | _near_ray, min_size=1,
                    max_size=40))
def test_singular_eval_keeps_the_bits_of_u_and_grad(pts):
    """u and grad are the clamped boundary data of the Z-shape: a change
    of one ulp there moves every estimator value.  They must keep the bits
    of the reference form; the moment may round differently."""
    p = np.array(pts + [(0.0, 0.0)])
    u, grad, M = singular_eval(p)
    u_ref, grad_ref, M_ref = _singular_eval_reference(p[:, 0], p[:, 1])
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(grad, grad_ref)
    assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()


def test_singular_gradient_matches_finite_differences():
    pts = np.array([[0.3, 0.4], [-0.5, 0.2], [-0.4, -0.3], [0.2, 0.9]])
    _, grad, _ = singular_eval(pts)
    eps = 1e-7
    for p, gp in zip(pts, grad):
        for d in range(2):
            e = np.zeros(2); e[d] = eps
            fd = (singular_eval(p + e)[0][0]
                  - singular_eval(p - e)[0][0]) / (2 * eps)
            assert abs(gp[d] - fd) < 1e-6


def test_singular_moment_is_minus_hessian():
    pts = np.array([[0.4, 0.3], [-0.6, 0.5], [-0.3, -0.2]])
    _, _, M = singular_eval(pts)
    eps = 1e-5
    for p, Mp in zip(pts, M):
        for i in range(2):
            for j in range(2):
                e_i = np.zeros(2); e_i[i] = eps
                e_j = np.zeros(2); e_j[j] = eps
                up = lambda q: singular_eval(q)[0][0]
                h = (up(p + e_i + e_j) - up(p + e_i - e_j)
                     - up(p - e_i + e_j) + up(p - e_i - e_j)) / (4 * eps ** 2)
                assert abs(Mp[i, j] + h) < 5e-5


def test_singular_biharmonic():
    """divdiv(Hessian u) vanishes; checked with a fourth-order finite
    difference Laplacian of the Hessian trace away from the corner."""
    pts = np.array([[0.4, 0.35], [-0.5, 0.4], [-0.45, -0.25]])
    h = 1e-2

    def lap(q):
        _, _, M = singular_eval(q)
        return -(M[0, 0, 0] + M[0, 1, 1])   # Hess trace

    for p in pts:
        r = np.hypot(*p)
        val = 0.0
        for d in np.array([[1.0, 0.0], [0.0, 1.0]]):
            val += (-lap(p + 2 * h * d) + 16 * lap(p + h * d)
                    - 30 * lap(p) + 16 * lap(p - h * d)
                    - lap(p - 2 * h * d)) / (12 * h ** 2)
        assert abs(val) <= 1e-6 * r ** (SINGULAR_ALPHA - 3.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e2), st.floats(0.0, ZSHAPE_OPENING),
       st.integers(-40, 40))
def test_singular_eval_is_homogeneous_under_dyadic_scaling(r, phi, k):
    """u(lam p) = lam^mu u(p) and M(lam p) = lam^(mu-2) M(p) for lam = 2^k,
    mu = 1 + alpha: the degree the Z-shape's exact solution declares, to 1e-14
    of the size of each field at that radius."""
    mu = builtin_zshape_problem().exact.singularity.degree
    assert mu == 1.0 + SINGULAR_ALPHA
    lam = 2.0 ** k
    x, y = r * np.cos(phi), r * np.sin(phi)
    u, _, M = singular_eval([x, y])
    u_s, _, M_s = singular_eval([lam * x, lam * y])
    np.testing.assert_allclose(u_s, lam ** mu * u, rtol=1e-14,
                               atol=1e-14 * (lam * r) ** mu)
    np.testing.assert_allclose(M_s, lam ** (mu - 2.0) * M, rtol=1e-14,
                               atol=1e-14 * (lam * r) ** (mu - 2.0))


# ---------------------------------------------------------------------------
# problems and errors
# ---------------------------------------------------------------------------

def test_zshape_geometry():
    mesh = zshape_mesh()
    lookup = {tuple(ev) for ev in mesh.edge_vertices.tolist()}
    origin = int(np.nonzero((mesh.coords == 0.0).all(axis=1))[0][0])
    x1 = int(np.nonzero((mesh.coords == [1.0, 0.0]).all(axis=1))[0][0])
    mm = int(np.nonzero((mesh.coords == [-1.0, -1.0]).all(axis=1))[0][0])
    assert (min(origin, x1), max(origin, x1)) in lookup
    assert (min(origin, mm), max(origin, mm)) in lookup
    assert mesh.vertex_on_boundary[origin]


def test_zshape_problem_spec():
    prob = builtin_zshape_problem()
    assert prob.exact.fields is singular_eval
    assert prob.f is None
    assert prob.exact.singularity.point == (0.0, 0.0)
    bc = prob.bc_builder(prob.initial_mesh)
    # every boundary vertex fully prescribed
    assert len(bc.vertex.index) == 3 * len(
        prob.initial_mesh.boundary_vertices())
    assert len(bc.edge.index) == 0
    # data vanishes on the two corner edges' vertices
    origin = int(np.nonzero((prob.initial_mesh.coords == 0.0)
                            .all(axis=1))[0][0])
    assert np.abs(bc.vertex.value[bc.vertex.index == origin]).max() <= 1e-12


def test_square_problem_spec():
    prob = builtin_square_problem()
    assert prob.exact is not None
    assert prob.exact.fields is fourier_eval
    np.testing.assert_allclose(prob.f(np.zeros((3, 2))), 1.0)
    bc = prob.bc_builder(prob.initial_mesh)
    assert len(bc.vertex.index) > 0 and len(bc.edge.index) > 0


def test_project_fields_means():
    mesh = zshape_mesh()
    u, M = project_fields(mesh, lambda p: np.full(len(p), 3.0),
                          lambda p: np.broadcast_to(np.diag([1.0, 2.0]),
                                                    (len(p), 2, 2)))
    np.testing.assert_allclose(u, 3.0, rtol=1e-14)
    np.testing.assert_allclose(M, np.tile([1.0, 0.0, 2.0], (5, 1)),
                               atol=1e-14)


class FieldStub:
    def __init__(self, u, M):
        self.u = u
        self.M = M


def test_l2_errors_exact_constants():
    mesh = zshape_mesh()
    exact = ExactSolution(lambda p: (
        np.full(len(p), 2.0), None,
        np.broadcast_to(np.diag([1.0, -1.0]), (len(p), 2, 2))))
    sol = FieldStub(np.full(5, 2.0), np.tile([1.0, 0.0, -1.0], (5, 1)))
    eu, em = l2_errors(mesh, sol, exact)
    assert eu < 1e-14 and em < 1e-14


def test_l2_errors_unit_mismatch():
    from platedpg.mesh import unit_square_mesh
    mesh = unit_square_mesh()
    exact = ExactSolution(lambda p: (np.ones(len(p)), None,
                                     np.zeros((len(p), 2, 2))))
    sol = FieldStub(np.zeros(2), np.zeros((2, 3)))
    eu, em = l2_errors(mesh, sol, exact)
    assert abs(eu - 1.0) < 1e-14
    assert em == 0.0


def test_l2_errors_singular_subdivision_improves(monkeypatch):
    """Near the corner the dyadic subdivision must capture the r^(a-1)
    moment singularity better than the plain rule."""
    mesh = zshape_mesh()
    sol = FieldStub(np.zeros(5), np.zeros((5, 3)))
    assert problems.L2_SUBDIVISIONS == 4

    def em(levels):       # a fresh solution: its corner cache is per depth
        monkeypatch.setattr(problems, "L2_SUBDIVISIONS", levels)
        return l2_errors(mesh, sol, builtin_zshape_problem().exact)[1]

    # reference with very deep subdivision
    em_ref, em4, em0 = em(8), em(4), em(0)
    assert abs(em4 - em_ref) < abs(em0 - em_ref)
    assert abs(em4 - em_ref) <= 1e-4 * em_ref


def _l2_errors_per_element(mesh, sol, exact, levels=4):
    """Reference: one triangle and one quadrisected cell at a time, with u
    and M evaluated by separate calls."""
    from platedpg.polyquad import ERROR_DEGREE, tri_rule
    rule = tri_rule(ERROR_DEGREE)
    singular_point = exact.singularity and exact.singularity.point
    eu2 = em2 = 0.0
    for t in range(mesh.num_triangles):
        tri = mesh.coords[mesh.tri_vertices[t]]
        cells = [tri]
        if singular_point is not None and np.any(
                np.linalg.norm(tri - singular_point, axis=1) < 1e-12):
            for _ in range(levels):
                cells = [np.array(c) for p in cells for c in (
                    (p[0], (p[0] + p[1]) / 2, (p[0] + p[2]) / 2),
                    ((p[0] + p[1]) / 2, p[1], (p[1] + p[2]) / 2),
                    ((p[0] + p[2]) / 2, (p[1] + p[2]) / 2, p[2]),
                    ((p[0] + p[1]) / 2, (p[1] + p[2]) / 2,
                     (p[0] + p[2]) / 2))]
        a, b, c = sol.M[t]
        M_t = np.array([[a, b], [b, c]])
        for cell in cells:
            e1, e2 = cell[1] - cell[0], cell[2] - cell[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            pts = rule.bary @ cell
            eu2 += 2 * area * rule.weights @ (
                exact.fields(pts)[0] - sol.u[t]) ** 2
            em2 += 2 * area * rule.weights @ np.sum(
                (exact.fields(pts)[2] - M_t) ** 2, axis=(1, 2))
    return np.sqrt(eu2), np.sqrt(em2)


def _corner_refined_zshape(times=3):
    from platedpg.mesh import nvb_refine
    mesh = zshape_mesh()
    for _ in range(times):
        at_corner = np.all(mesh.coords[mesh.tri_vertices] == 0.0, axis=2)
        mesh = nvb_refine(mesh, set(np.nonzero(at_corner.any(axis=1))[0]))
    return mesh


def test_l2_errors_match_per_element_reference():
    from platedpg.mesh import uniform_refine
    rng = np.random.default_rng(5)
    square = builtin_square_problem()
    mesh = uniform_refine(uniform_refine(square.initial_mesh))
    zshape = builtin_zshape_problem()
    zmesh = _corner_refined_zshape()
    at_corner = np.all(zmesh.coords[zmesh.tri_vertices] == 0.0, axis=2)
    n_corner = at_corner.any(axis=1).sum()
    assert n_corner >= 5
    # the corner cells alone fill several chunks of the error pass
    assert n_corner * 4 ** 4 >= 5 * L2_CHUNK
    for m, prob in ((mesh, square), (zmesh, zshape)):
        nT = m.num_triangles
        sol = FieldStub(rng.normal(size=nT), rng.normal(size=(nT, 3)))
        got = l2_errors(m, sol, prob.exact)
        ref = _l2_errors_per_element(m, sol, prob.exact)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_l2_errors_integrates_each_corner_shape_once():
    """The uniform refinement of a corner-refined Z-shape mesh has only
    corner triangles similar, by powers of two, to those of the mesh
    itself: its error pass evaluates the exact solution at the regular
    cells alone, and both passes match the per-element reference."""
    from platedpg.mesh import uniform_refine
    from platedpg.polyquad import ERROR_DEGREE, tri_rule
    rng = np.random.default_rng(11)
    prob = builtin_zshape_problem()
    evaluated = []

    def counting(points):
        evaluated.append(len(points))
        return prob.exact.fields(points)

    exact = ExactSolution(counting, prob.exact.singularity)
    coarse = _corner_refined_zshape()
    q = len(tri_rule(ERROR_DEGREE).weights)
    counts = []
    for mesh in (coarse, uniform_refine(coarse)):
        nT = mesh.num_triangles
        at_corner = np.all(mesh.coords[mesh.tri_vertices] == 0.0, axis=2)
        sol = FieldStub(rng.normal(size=nT), rng.normal(size=(nT, 3)))
        evaluated.clear()
        got = l2_errors(mesh, sol, exact)
        ref = _l2_errors_per_element(mesh, sol, prob.exact)
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        counts.append((sum(evaluated),
                       (nT - at_corner.any(axis=1).sum()) * q))
    (first, first_regular), (second, second_regular) = counts
    assert first > first_regular        # the coarse pass builds the shapes
    assert second == second_regular     # the fine pass reuses all of them
