import hashlib

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from conftest import (manufactured_M, manufactured_divM,
                      random_shape_regular_triangle, reference_triangle_mesh,
                      smooth_tensor, smooth_tensor_div, vertex_patch,
                      zero_fields)

from platedpg.errors import ConfigurationError
from platedpg.mesh import (edge_frame, mesh_from_arrays, nvb_refine,
                           uniform_refine, unit_square_mesh)
from platedpg.polyquad import EDGE_NODES, EDGE_WEIGHTS, p3_table, tri_rule
from platedpg.spaces import (BCSpec, Constraints, ElementGeometry,
                             _reduce_blocks, build_dofmap,
                             interpolate_uhat_bc, simply_supported_bc,
                             uhat_edge_traces)
from bc_oracles import BCConstraint, constraint_residuals, to_bcspec
from numbering_oracles import coo_reduction, reduce_blocks_per_block
from trace_oracles import (element_tensor_basis, extract_qhat,
                           extract_qhat_local, extract_uhat, local_qhat,
                           qhat_pair_local, uhat_pair_local,
                           uhat_trace_on_edge)

SKEW_TRI = mesh_from_arrays([(0.1, 0.2), (1.3, 0.1), (0.4, 1.2)], [(0, 1, 2)])


def fit_scalar(centroid, scale, fn, tri, ncols=10):
    """Least-squares coefficients of fn in the first ncols P3 monomials of
    the frame with ``centroid`` and ``scale``."""
    pts, _ = tri_rule(10).map_to(tri)
    table = p3_table(centroid, scale, pts)
    coeffs, *_ = np.linalg.lstsq(table.values[:, :ncols], fn(pts), rcond=None)
    return coeffs


def fit_tensor(tbasis, fn, tri):
    comps = [lambda p: fn(p)[:, 0, 0], lambda p: fn(p)[:, 0, 1],
             lambda p: fn(p)[:, 1, 1]]
    cols = [fit_scalar(tbasis.centroid, tbasis.scale, c, tri, ncols=6)
            for c in comps]
    return np.stack(cols, axis=1).ravel()


def poly_udofs(geom, v_fn, grad_fn):
    vals = v_fn(geom.P)
    grads = grad_fn(geom.P)
    return np.concatenate([[vals[c], grads[c, 0], grads[c, 1]]
                           for c in range(3)])


# ---------------------------------------------------------------------------
# Hermite edge traces
# ---------------------------------------------------------------------------

def edge_trace(geom, k, udofs, s):
    """Value and gradient traces of local uhat DOFs on edge k, contracted
    from the unit-DOF traces the element matrices use."""
    z, grad = uhat_edge_traces(geom, k, s)
    return z @ udofs, grad @ udofs


def quadratic(c):
    """A quadratic v with coefficients c (1, x, y, x^2, xy, y^2) and its
    gradient."""
    v = lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0]**2
                   + c[4] * p[:, 0] * p[:, 1] + c[5] * p[:, 1]**2)
    grad = lambda p: np.stack([c[1] + 2 * c[3] * p[:, 0] + c[4] * p[:, 1],
                               c[2] + c[4] * p[:, 0] + 2 * c[5] * p[:, 1]],
                              axis=1)
    return v, grad


def test_hermite_trace_reproduces_quadratics():
    geom = ElementGeometry(SKEW_TRI, 0)
    v, grad = quadratic([-1.0, 0.0, 2.0, 3.0, -1.0, 0.0])
    udofs = poly_udofs(geom, v, grad)
    s = np.linspace(0, 1, 9)
    for k in range(3):
        pts = geom.edge_points(k, s)
        z, g = edge_trace(geom, k, udofs, s)
        np.testing.assert_allclose(z, v(pts), atol=1e-12)
        np.testing.assert_allclose(g, grad(pts), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermite_trace_on_random_triangles(seed):
    """On a random non-degenerate triangle the edge traces reproduce a
    random quadratic from its nodal DOFs, and for random DOFs they agree
    with the oracle built from the endpoint data, on every edge and for
    one triangle as for a stack."""
    rng = np.random.default_rng(seed)
    P = random_shape_regular_triangle(rng)
    mesh = mesh_from_arrays(P, [(0, 1, 2)])
    geom, stacked = (ElementGeometry(mesh, t) for t in (0, np.array([0])))
    v, grad = quadratic(rng.standard_normal(6))
    udofs = poly_udofs(geom, v, grad)
    random_dofs = rng.standard_normal(9)
    s = rng.uniform(0, 1, 5)
    scale = 1.0 + np.abs(udofs).max()
    for k in range(3):
        pts = geom.edge_points(k, s)
        z, g = edge_trace(geom, k, udofs, s)
        np.testing.assert_allclose(z, v(pts), atol=1e-11 * scale)
        np.testing.assert_allclose(g, grad(pts), atol=1e-11 * scale
                                   / geom.diam)
        z, g = edge_trace(geom, k, random_dofs, s)
        z_or, g_or = uhat_trace_on_edge(geom, k, random_dofs, s)
        np.testing.assert_allclose(z, z_or, atol=1e-12 * max(1, geom.diam))
        np.testing.assert_allclose(g, g_or, atol=1e-12 / geom.diam)
        for one, stack in zip(uhat_edge_traces(geom, k, s),
                              uhat_edge_traces(stacked, k, s)):
            np.testing.assert_array_equal(stack[0], one)


def test_hermite_trace_is_side_independent():
    mesh = unit_square_mesh()
    v = lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1]
    grad = lambda p: np.stack([2 * p[:, 0] + p[:, 1], p[:, 0]], axis=1)
    s = np.linspace(0, 1, 7)
    traces = []
    for t in range(2):
        geom = ElementGeometry(mesh, t)
        udofs = poly_udofs(geom, v, grad)
        k = int(np.nonzero(~mesh.edge_on_boundary[mesh.tri_edges[t]])[0][0])
        traces.append(edge_trace(geom, k, udofs, s))
    np.testing.assert_allclose(traces[0][0], traces[1][0], atol=1e-14)
    np.testing.assert_allclose(traces[0][1], traces[1][1], atol=1e-14)


# ---------------------------------------------------------------------------
# integration-by-parts identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_uhat_pairing_integration_by_parts(seed):
    """For quadratic deflections the vertex DOFs represent the exact edge
    traces, so the skeleton duality must match the volume identity
    (divdiv Theta, v) - (Theta, Hess v) for every P2 tensor."""
    rng = np.random.default_rng(seed)
    geom = ElementGeometry(SKEW_TRI, 0)
    tb = element_tensor_basis(geom)
    c = rng.normal(size=6)
    v = lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1]
                   + c[3] * p[:, 0] ** 2 + c[4] * p[:, 0] * p[:, 1]
                   + c[5] * p[:, 1] ** 2)
    grad = lambda p: np.stack(
        [c[1] + 2 * c[3] * p[:, 0] + c[4] * p[:, 1],
         c[2] + c[4] * p[:, 0] + 2 * c[5] * p[:, 1]], axis=1)
    hess = np.array([[2 * c[3], c[4]], [c[4], 2 * c[5]]])
    udofs = poly_udofs(geom, v, grad)
    pts, w = tri_rule(8).map_to(geom.P)
    table = tb.eval(pts)
    for i in range(tb.dim):
        tc = np.zeros(tb.dim)
        tc[i] = 1.0
        lhs = uhat_pair_local(geom, udofs, tc)
        rhs = (w @ (table.divdiv[:, i] * v(pts))
               - np.einsum("q,qij,ij->", w, table.values[:, i], hess))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_uhat_pairing_cubic_correction():
    """Cubic deflections have quadratic normal slopes; the pairing uses
    their linear interpolant, and the deviation from the volume identity
    must equal exactly the normal-trace interpolation defect."""
    geom = ElementGeometry(SKEW_TRI, 0)
    tb = element_tensor_basis(geom)
    v = lambda p: p[:, 0] ** 3
    grad = lambda p: np.stack([3 * p[:, 0] ** 2, np.zeros(len(p))], axis=1)
    udofs = poly_udofs(geom, v, grad)
    pts, w = tri_rule(8).map_to(geom.P)
    table = tb.eval(pts)
    rng = np.random.default_rng(1)
    tc = rng.normal(size=tb.dim)
    lhs = uhat_pair_local(geom, udofs, tc)
    hessv = np.zeros((len(pts), 2, 2))
    hessv[:, 0, 0] = 6 * pts[:, 0]
    theta = np.einsum("qaij,a->qij", table.values, tc)
    rhs = w @ ((table.divdiv @ tc) * v(pts)) - np.einsum(
        "q,qij,qij->", w, theta, hessv)
    defect = 0.0
    for k in range(3):
        epts = geom.edge_points(k, EDGE_NODES)
        n_out = geom.sign[k] * geom.nrm[k]
        ntn = np.einsum("qij,i,j->q", np.einsum(
            "qaij,a->qij", tb.eval(epts).values, tc), n_out, n_out)
        exact_slope = grad(epts) @ n_out
        ends = grad(geom.edge_points(k, np.array([0.0, 1.0]))) @ n_out
        interp = (1 - EDGE_NODES) * ends[0] + EDGE_NODES * ends[1]
        defect += geom.length[k] * (EDGE_WEIGHTS
                                    @ (ntn * (exact_slope - interp)))
    assert abs((lhs - rhs) - defect) < 1e-12


def test_uhat_pair_examples():
    mesh = reference_triangle_mesh()
    geom = ElementGeometry(mesh, 0)
    tb = element_tensor_basis(geom)
    ident = fit_tensor(tb, lambda p: np.broadcast_to(np.eye(2),
                                                     (len(p), 2, 2)), geom.P)
    one = poly_udofs(geom, lambda p: np.ones(len(p)),
                     lambda p: np.zeros((len(p), 2)))
    assert abs(uhat_pair_local(geom, one, ident)) < 1e-13
    vx = poly_udofs(geom, lambda p: p[:, 0],
                    lambda p: np.stack([np.ones(len(p)),
                                        np.zeros(len(p))], axis=1))
    assert abs(uhat_pair_local(geom, vx, ident)) < 1e-13
    vq = poly_udofs(geom, lambda p: 0.5 * p[:, 0] ** 2,
                    lambda p: np.stack([p[:, 0], np.zeros(len(p))], axis=1))
    assert abs(uhat_pair_local(geom, vq, ident) - (-0.5)) < 1e-13


# ---------------------------------------------------------------------------
# qhat pairing and extraction
# ---------------------------------------------------------------------------

def test_qhat_pair_constant_test():
    geom = ElementGeometry(SKEW_TRI, 0)
    zc = np.zeros(10)
    zc[0] = 1.0               # the constant basis function
    alpha = np.array([0.3, -0.7, 1.1])
    beta = np.array([0.5, 0.2, -0.4])
    gamma = np.array([1.0, -2.0, 0.5])
    val = qhat_pair_local(geom, (alpha, beta, gamma), zc)
    assert abs(val - (alpha.sum() - gamma.sum())) < 1e-14


def test_qhat_pair_linear_test_hits_normals():
    geom = ElementGeometry(SKEW_TRI, 0)
    zc = fit_scalar(geom.centroid, geom.diam, lambda p: p[:, 0], geom.P)
    beta = np.array([0.5, 0.2, -0.4])
    val = qhat_pair_local(geom, (np.zeros(3), beta, np.zeros(3)), zc)
    expected = -np.sum(beta * geom.nrm[:, 0])
    assert abs(val - expected) < 1e-13


def test_constant_tensor_extraction_identity():
    """qhat DOFs of a constant tensor pair with any cubic exactly like
    the volume term -(Theta0, Hess z)."""
    Theta0 = np.array([[1.3, -0.4], [-0.4, 0.8]])
    M_fn = lambda p: np.broadcast_to(Theta0, (len(p), 2, 2))
    divM_fn = lambda p: np.zeros((len(p), 2))
    alpha, beta, gamma = extract_qhat(SKEW_TRI, M_fn, divM_fn)
    np.testing.assert_allclose(alpha, 0.0, atol=1e-14)
    ends = SKEW_TRI.coords[SKEW_TRI.edge_vertices.T]
    length, _, normal = edge_frame(*ends)
    expected_beta = [length[e] * normal[e] @ Theta0 @ normal[e]
                     for e in range(SKEW_TRI.num_edges)]
    np.testing.assert_allclose(beta, expected_beta, rtol=1e-14)
    geom = ElementGeometry(SKEW_TRI, 0)
    qd = local_qhat(SKEW_TRI, 0, alpha, beta, gamma)
    pts, w = tri_rule(8).map_to(geom.P)
    sv = p3_table(geom.centroid, geom.diam, pts)
    for i in range(10):
        zc = np.zeros(10)
        zc[i] = 1.0
        lhs = qhat_pair_local(geom, qd, zc)
        rhs = -np.einsum("q,ij,qij->", w, Theta0, sv.hessians[:, i])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_extraction_sign_coherence():
    mesh = uniform_refine(unit_square_mesh())
    alpha, beta, gamma = extract_qhat(mesh, smooth_tensor, smooth_tensor_div)
    for t in range(mesh.num_triangles):
        a_loc, b_loc, g_loc = extract_qhat_local(mesh, t, smooth_tensor,
                                                 smooth_tensor_div)
        s = mesh.edge_sign[t]
        eids = mesh.tri_edges[t]
        np.testing.assert_allclose(s * a_loc, alpha[eids], atol=1e-12)
        np.testing.assert_allclose(s * b_loc, beta[eids], atol=1e-12)
        np.testing.assert_allclose(g_loc, gamma[t], atol=1e-12)


def test_extraction_patch_sums_vanish():
    mesh = uniform_refine(uniform_refine(unit_square_mesh()))
    _, _, gamma = extract_qhat(mesh, manufactured_M, manufactured_divM)
    for v in np.flatnonzero(~mesh.vertex_on_boundary):
        total = 0.0
        for t in vertex_patch(mesh, v):
            c = int(np.nonzero(mesh.tri_vertices[t] == v)[0][0])
            total += gamma[t, c]
        assert abs(total) < 1e-13


def test_global_constant_tensor_pairing_vanishes_on_clamped_uhat():
    """Sum over elements of the uhat duality with a constant tensor is
    zero whenever the uhat DOFs vanish on the boundary."""
    mesh = uniform_refine(unit_square_mesh())
    rng = np.random.default_rng(5)
    udofs_global = rng.normal(size=(mesh.num_vertices, 3))
    udofs_global[mesh.boundary_vertices()] = 0.0
    Theta0 = np.array([[0.7, 0.2], [0.2, -1.1]])
    total = 0.0
    for t in range(mesh.num_triangles):
        geom = ElementGeometry(mesh, t)
        tb = element_tensor_basis(geom)
        tc = fit_tensor(tb, lambda p: np.broadcast_to(Theta0, (len(p), 2, 2)),
                        geom.P)
        total += uhat_pair_local(geom, udofs_global[mesh.tri_vertices[t]].ravel(), tc)
    assert abs(total) < 1e-12


# ---------------------------------------------------------------------------
# boundary conditions and the DOF map
# ---------------------------------------------------------------------------

def test_interpolate_uhat_bc_values():
    mesh = unit_square_mesh()
    bc = interpolate_uhat_bc(zero_fields, mesh)
    assert np.all(bc.vertex.value == 0.0) and bc.edge.index.size == 0
    bc = interpolate_uhat_bc(
        lambda p: (p[:, 0], np.stack([np.ones(len(p)), np.zeros(len(p))],
                                     axis=1), np.zeros((len(p), 2, 2))), mesh)
    vid = int(np.nonzero((mesh.coords == [1.0, 0.0]).all(axis=1))[0][0])
    at = bc.vertex.index == vid
    np.testing.assert_array_equal(bc.vertex.coeffs[at], np.eye(3))
    np.testing.assert_array_equal(bc.vertex.value[at], [1.0, 1.0, 0.0])


def test_dofmap_counts_clamped():
    mesh = unit_square_mesh()
    bc = interpolate_uhat_bc(zero_fields, mesh)
    dm = build_dofmap(mesh, bc)
    assert dm.n_uhat_free == 0
    assert dm.n_qhat_free == 16          # 5 + 5 + 6 - 0
    assert dm.free_dim == 24             # plus 2 + 6 field DOFs

    fine = uniform_refine(mesh)
    bc = interpolate_uhat_bc(zero_fields, fine)
    dm = build_dofmap(fine, bc)
    assert (fine.num_vertices, fine.num_edges) == (9, 16)
    assert dm.n_qhat_free == 16 + 16 + 24 - 1
    assert dm.n_uhat_free == 3 * fine.num_interior_vertices


def test_dofmap_counts_simply_supported():
    mesh = uniform_refine(unit_square_mesh())
    dm = build_dofmap(mesh, simply_supported_bc(mesh))
    # 4 corners fully clamped (3 each), 4 side midpoints give 2 each,
    # 1 interior vertex free
    n_boundary_cons = 4 * 3 + 4 * 2
    assert dm.n_uhat_free == 3 * mesh.num_vertices - n_boundary_cons
    n_bedges = len(mesh.boundary_edges())
    assert dm.n_qhat_free == (2 * mesh.num_edges + 3 * mesh.num_triangles
                              - mesh.num_interior_vertices - n_bedges)


def test_dofmap_unconstrained_count_formula():
    for mesh in (unit_square_mesh(), uniform_refine(unit_square_mesh())):
        dm = build_dofmap(mesh, BCSpec())
        assert dm.n_qhat_free == (2 * mesh.num_edges + 3 * mesh.num_triangles
                                  - mesh.num_interior_vertices)
        assert dm.n_uhat_free == 3 * mesh.num_vertices


def test_element_scatter_refuses_a_mesh_of_other_counts():
    """The DOF map does not hold its mesh: element_scatter takes it and
    refuses one whose triangle, vertex or edge count is not the map's,
    here a refined mesh and a 4-triangle strip (6 vertices, 9 edges)
    against the 4-triangle fan of the bisected square (5 and 8)."""
    fan = nvb_refine(unit_square_mesh(), [0, 1])
    strip = mesh_from_arrays(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
        [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)])
    counts = [(m.num_triangles, m.num_vertices, m.num_edges)
              for m in (fan, strip)]
    assert counts == [(4, 5, 8), (4, 6, 9)]
    dm = build_dofmap(fan, BCSpec())
    t = np.arange(fan.num_triangles)
    assert dm.element_scatter(fan, t).shape == (4, 22)
    for other in (strip, uniform_refine(fan)):
        with pytest.raises(ConfigurationError,
                           match="is not the DOF map's mesh"):
            dm.element_scatter(other, t)


@settings(max_examples=60, deadline=None)
@given(vertex_k=st.lists(st.integers(0, 3), min_size=1, max_size=8),
       edge_k=st.lists(st.integers(0, 2), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_reduction_matches_per_block_oracle(vertex_k, edge_k, seed):
    """Random full-rank vertex (width 3) and edge (width 2) blocks with
    every constraint count, each kind's rows in shuffled order: the
    stacked reduction is bit for bit the per-block one.  The stacked one
    lists the unconstrained blocks first, so both entry lists are
    compared in (row, column) order."""
    rng = np.random.default_rng(seed)
    nV, nE = len(vertex_k), len(edge_k)
    for kind, ks, rows in (
            ("vertex", vertex_k, 5 + np.arange(3 * nV).reshape(nV, 3)),
            ("edge", edge_k, 7 + np.arange(nE)[:, None] + np.array([0, nE]))):
        index = np.repeat(np.arange(len(ks)), ks)
        scale = 10.0 ** rng.uniform(-3, 3, len(ks))
        C = rng.standard_normal((len(index), rows.shape[1]))
        C *= scale[index, None]
        shuffle = rng.permutation(len(index))
        cons = Constraints(index[shuffle], C[shuffle],
                           rng.standard_normal(len(index)))
        (r, c, v), x_p, n_free = _reduce_blocks(rows, cons, kind, 11)
        (r0, c0, v0), x_p0, n_free0 = reduce_blocks_per_block(
            rows, cons, kind, 11)
        o, o0 = np.lexsort((c, r)), np.lexsort((c0, r0))
        for got, want in ((r[o], r0[o0]), (c[o], c0[o0]), (v[o], v0[o0]),
                          (x_p, x_p0)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert n_free == n_free0


def test_overconstrained_error_names_lowest_block():
    """Vertex 1 fails with 3 constraints and vertex 2 with 2: the error
    names vertex 1, as a walk over the blocks in id order would."""
    mesh = unit_square_mesh()
    bc = to_bcspec([BCConstraint("vertex", v, coeffs, value)
                    for v, coeffs, value in (
                        (1, (0.0, 1.0, 0.0), 0.0), (1, (0.0, 0.0, 1.0), 0.0),
                        (1, (0.0, 2.0, 0.0), 0.0), (2, (1.0, 0.0, 0.0), 0.0),
                        (2, (-1.0, 0.0, 0.0), 1.0),
                        (3, (1.0, 0.0, 0.0), 0.0))])
    with pytest.raises(ConfigurationError, match=(
            "over-constrained boundary block at vertex 1: "
            "3 constraints of rank 2")):
        build_dofmap(mesh, bc)


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _random_constraints(rng, ids, width, fraction):
    """Full-rank constraints, 1 to width of them, on a random ``fraction``
    of the blocks ``ids``, with coefficients scaled over six decades and
    listed in shuffled order."""
    blocks = ids[rng.random(len(ids)) < fraction]
    index = np.repeat(blocks, rng.integers(1, width + 1, len(blocks)))
    C = rng.standard_normal((len(index), width))
    C *= 10.0 ** rng.uniform(-3, 3, (len(index), 1))
    shuffle = rng.permutation(len(index))
    return Constraints(index[shuffle], C[shuffle],
                       rng.standard_normal(len(index)))


def _join(a, b):
    return Constraints(*(np.concatenate(pair) for pair in zip(a, b)))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["square", "zshape"]),
       rounds=st.integers(0, 4), fraction=st.floats(0.05, 0.6),
       bc=st.sampled_from(["none", "clamped", "supported"]),
       extra=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dofmap_matches_coo_construction(shape, rounds, fraction, bc, extra,
                                         seed):
    """On randomly refined meshes, with no, clamped or simply supported
    boundary conditions and random extra constraints on the blocks they
    leave free, R (indptr, indices, data and their dtypes), x_prescribed
    and the free counts are bit for bit those of R built from COO
    triplets."""
    from platedpg.mesh import nvb_refine
    from platedpg.problems import zshape_mesh
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(unit_square_mesh() if shape == "square"
                          else zshape_mesh())
    for _ in range(rounds):
        n = mesh.num_triangles
        mesh = nvb_refine(mesh, rng.choice(
            n, size=max(1, round(fraction * n)), replace=False))
    spec = {"none": BCSpec(),
            "clamped": interpolate_uhat_bc(zero_fields, mesh),
            "supported": simply_supported_bc(mesh)}[bc]
    if extra:
        vertex_ids, edge_ids = (
            np.flatnonzero(~mesh.vertex_on_boundary),
            np.flatnonzero(~mesh.edge_on_boundary))
        if bc == "none":
            vertex_ids = np.arange(mesh.num_vertices)
            edge_ids = np.arange(mesh.num_edges)
        spec = BCSpec(
            vertex=_join(spec.vertex,
                         _random_constraints(rng, vertex_ids, 3, fraction)),
            edge=_join(spec.edge,
                       _random_constraints(rng, edge_ids, 2, fraction)))
    dm = build_dofmap(mesh, spec)
    R, x_p, free_dim, n_uhat_free, n_qhat_free = coo_reduction(mesh, spec)
    for got, want in ((dm.R.indptr, R.indptr), (dm.R.indices, R.indices),
                      (dm.R.data, R.data), (dm.x_prescribed, x_p)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert dm.R.shape == R.shape
    assert (dm.free_dim, dm.n_uhat_free, dm.n_qhat_free) == (
        free_dim, n_uhat_free, n_qhat_free)


@pytest.mark.parametrize("case", ["zshape-clamped", "square-supported"])
def test_dofmap_pinned(case):
    """The reduction R and the prescribed values are pinned byte for byte
    on two meshes: the clamped Z-shape after the five seeded NVB rounds of
    ``test_nvb_triangle_and_vertex_order_pinned`` and the simply supported
    square refined uniformly three times."""
    if case == "zshape-clamped":
        from platedpg.mesh import nvb_refine
        from platedpg.problems import builtin_problem
        problem = builtin_problem("zshape")
        rng = np.random.default_rng(0)
        mesh = uniform_refine(problem.initial_mesh)
        for _ in range(5):
            n = mesh.num_triangles
            mesh = nvb_refine(mesh, rng.choice(n, size=round(0.2 * n),
                                               replace=False))
        dm = build_dofmap(mesh, problem.bc_builder(mesh))
    else:
        mesh = unit_square_mesh()
        for _ in range(3):
            mesh = uniform_refine(mesh)
        dm = build_dofmap(mesh, simply_supported_bc(mesh))
    digests = {name: _sha256(a) for name, a in (
        ("indptr", dm.R.indptr), ("indices", dm.R.indices),
        ("data", dm.R.data), ("x_prescribed", dm.x_prescribed))}
    assert digests == {
        "zshape-clamped": {
            "indptr": "6d3cd27a183aa185f074cc819b4628e6"
                      "d15f43e02e9b5073c317f35d782d609b",
            "indices": "7eb85acdd47ef9620ec67acc4253d59d"
                       "fe5f611e81035aea9d722eb4352ffaf3",
            "data": "d128f9554605a66bd772c57984c36e50"
                    "d488db8f46d2034c864f2528f6a874cc",
            "x_prescribed": "166f891fbc06d74885b89a69800c4840"
                            "0e17bdb11a413cda4253679a136423d7"},
        "square-supported": {
            "indptr": "af3d89ba99d92b307a13dc9086ca2f2f"
                      "f4d2063559b2ef9b657459cceecd6abd",
            "indices": "c609f293b065d64d1c6e72ddeb262e22"
                       "6e115ca3411662eadca9ba81fe5e5228",
            "data": "9268c1bf5ded04406882b09ec11caede"
                    "2ba5727f61a6128bc38837f00c974bd5",
            "x_prescribed": "efd48581206f117c01247d249962e11e"
                            "7e50f17c9ee14956373dc66e8a2da3d3"},
    }[case]


def test_overconstrained_vertex_rejected():
    mesh = unit_square_mesh()
    bc = to_bcspec([BCConstraint("vertex", 0, (1.0, 0.0, 0.0), 0.0),
                    BCConstraint("vertex", 0, (1.0, 0.0, 0.0), 1.0)])
    with pytest.raises(ConfigurationError):
        build_dofmap(mesh, bc)


@pytest.mark.parametrize("kind, index", [("vertex", 4), ("vertex", -1),
                                         ("edge", 5)])
def test_constraint_on_nonexistent_block_rejected(kind, index):
    mesh = unit_square_mesh()          # 4 vertices, 5 edges
    coeffs = (1.0, 0.0, 0.0) if kind == "vertex" else (0.0, 1.0)
    bc = to_bcspec([BCConstraint(kind, index, coeffs, 0.0)])
    with pytest.raises(ConfigurationError, match="nonexistent"):
        build_dofmap(mesh, bc)


@pytest.mark.parametrize("kind, index, coeffs, value, match", [
    ("vertex", [0], np.ones((1, 2)), [0.0], "not \\(k, 3\\)"),
    ("edge", [0], np.ones((1, 3)), [0.0], "not \\(k, 2\\)"),
    ("edge", [0, 1], np.ones((1, 2)), [0.0], "differ in length"),
    ("vertex", [0], np.ones((1, 3)), [0.0, 1.0], "differ in length"),
    ("vertex", np.array([0.0]), np.ones((1, 3)), [0.0], "integer"),
    ("edge", np.array([True]), np.ones((1, 2)), [0.0], "integer"),
    ("vertex", [0], [[np.nan, 1.0, 0.0]], [0.0], "finite"),
    ("edge", [0], [[0.0, np.inf]], [0.0], "finite"),
    ("vertex", [0], np.eye(3)[:1], [np.nan], "finite"),
], ids=["vertex-width", "edge-width", "index-length", "value-length",
        "float-index", "bool-index", "nan-coeffs", "inf-coeffs", "nan-value"])
def test_malformed_constraints_rejected(kind, index, coeffs, value, match):
    """Malformed constraint arrays raise a ConfigurationError naming their
    kind, not a numpy error from inside the reduction and not NaN in the
    prescribed values."""
    mesh = uniform_refine(unit_square_mesh())
    bc = BCSpec(**{kind: Constraints(np.asarray(index), np.asarray(coeffs),
                                     np.asarray(value))})
    with pytest.raises(ConfigurationError, match=f"{kind} constraint.*{match}"):
        build_dofmap(mesh, bc)


def test_reconstruction_satisfies_constraints():
    mesh = uniform_refine(uniform_refine(unit_square_mesh()))
    bc = simply_supported_bc(mesh)
    dm = build_dofmap(mesh, bc)
    rng = np.random.default_rng(11)
    x = dm.recover_full(rng.normal(size=dm.free_dim))
    # essential constraints hold exactly
    assert np.abs(constraint_residuals(bc, dm, x)).max() < 1e-12
    # gamma patch sums vanish exactly at interior vertices
    for v in np.flatnonzero(~mesh.vertex_on_boundary):
        total = 0.0
        for t in vertex_patch(mesh, v):
            c = int(np.nonzero(mesh.tri_vertices[t] == v)[0][0])
            total += x[dm.off_gamma + 3 * t + c]
        assert total == pytest.approx(0.0, abs=1e-12)


def test_free_count_matches_eliminations():
    mesh = uniform_refine(uniform_refine(unit_square_mesh()))
    bc = interpolate_uhat_bc(zero_fields, mesh)
    dm = build_dofmap(mesh, bc)
    n_essential = len(bc.vertex.index) + len(bc.edge.index)
    assert dm.free_dim == (dm.full_dim - n_essential
                           - mesh.num_interior_vertices)


def test_uhat_extraction_matches_nodal_values():
    mesh = uniform_refine(unit_square_mesh())
    dofs = extract_uhat(mesh, lambda p: p[:, 0] * p[:, 1],
                        lambda p: np.stack([p[:, 1], p[:, 0]], axis=1))
    np.testing.assert_allclose(dofs[:, 0],
                               mesh.coords[:, 0] * mesh.coords[:, 1])
    np.testing.assert_allclose(dofs[:, 1], mesh.coords[:, 1])
    np.testing.assert_allclose(dofs[:, 2], mesh.coords[:, 0])
