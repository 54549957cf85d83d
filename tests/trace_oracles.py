"""Verification oracles for the test space and the skeleton pairings:
the symmetric P2 tensor test functions with their divergence and divdiv,
Hermite edge traces of uhat, the qhat and uhat skeleton dualities of one
element, and the trace DOFs of smooth fields (nodal uhat, projected qhat
moments and corner jumps).  The solver never calls them; the tests check
the batched element matrices and the DOF conventions against them."""

from typing import NamedTuple

import numpy as np
from scipy.special import roots_legendre

from platedpg.dpg import uhat_pair_matrix
from platedpg.mesh import edge_frame
from platedpg.polyquad import EDGE_NODES, EDGE_WEIGHTS, ScalarBasis
from platedpg.spaces import ElementGeometry

# 6-point Gauss-Legendre rule on [0, 1] for the edge moments of smooth fields
_x6, _w6 = roots_legendre(6)
GAUSS6_NODES, GAUSS6_WEIGHTS = 0.5 * (_x6 + 1.0), 0.5 * _w6


class TensorTable(NamedTuple):
    values: np.ndarray       # (..., npts, ndim, 2, 2)
    div: np.ndarray          # (..., npts, ndim, 2)
    divdiv: np.ndarray       # (..., npts, ndim)


class TensorBasis:
    """Symmetric 2x2 tensor fields with P2 entries: each P2 monomial
    phi_a (the first six P3 columns) placed in the slots E11, E12 + E21,
    E22 at index 3 a + k, the tensor test functions of the element
    matrices before the rebase.  Values, row-wise divergence and divdiv
    are written out entry by entry."""

    dim = 18

    def __init__(self, centroid, scale):
        self.scalar = ScalarBasis(centroid, scale)

    def eval(self, points):
        vals, grads, hess = self.scalar.eval(points)
        vals, grads, hess = (vals[..., :6], grads[..., :6, :],
                             hess[..., :6, :, :])
        lead = vals.shape[:-1]
        values = np.zeros(vals.shape + (3, 2, 2))
        values[..., 0, 0, 0] = vals                         # E11
        values[..., 1, 0, 1] = vals                         # E12 + E21
        values[..., 1, 1, 0] = vals
        values[..., 2, 1, 1] = vals                         # E22
        div = np.zeros(vals.shape + (3, 2))
        div[..., 0, 0] = grads[..., 0]
        div[..., 1, 0] = grads[..., 1]
        div[..., 1, 1] = grads[..., 0]
        div[..., 2, 1] = grads[..., 1]
        divdiv = np.stack([hess[..., 0, 0], 2.0 * hess[..., 0, 1],
                           hess[..., 1, 1]], axis=-1)
        return TensorTable(values.reshape(lead + (self.dim, 2, 2)),
                           div.reshape(lead + (self.dim, 2)),
                           divdiv.reshape(lead + (self.dim,)))


def element_tensor_basis(geom):
    """The P2 tensor test functions of one element's frame."""
    return TensorBasis(geom.centroid, geom.diam)


def hermite_cubic(s):
    """Cubic Hermite shape functions on [0, 1] (value at 0, slope at 0,
    value at 1, slope at 1), factored form, and their derivatives."""
    s = np.asarray(s, dtype=float)
    h = [(1 + 2 * s) * (1 - s)**2, s * (1 - s)**2, s**2 * (3 - 2 * s),
         s**2 * (s - 1)]
    dh = [6 * s * (s - 1), (1 - s) * (1 - 3 * s), 6 * s * (1 - s),
          s * (3 * s - 2)]
    return np.stack(h, axis=-1), np.stack(dh, axis=-1)


def uhat_trace_on_edge(geom, k, udofs, s):
    """Hermite value trace and full gradient of a local uhat coefficient
    vector (per vertex: value, d/dx, d/dy) on edge k at parameters s,
    from the values and gradients at its canonical ends: the arc slopes
    ``L tau . grad`` feed the Hermite cubic, the normal derivatives are
    interpolated linearly."""
    vertex = np.asarray(udofs, dtype=float).reshape(3, 3)
    lo, hi = vertex[geom.lo_local[k]], vertex[geom.hi_local[k]]
    L, tau, nrm = geom.length[k], geom.tau[k], geom.nrm[k]
    ends = np.array([lo[0], L * tau @ lo[1:], hi[0], L * tau @ hi[1:]])
    h, dh = hermite_cubic(s)
    gn = (1.0 - s) * (nrm @ lo[1:]) + s * (nrm @ hi[1:])
    grad = np.outer(dh @ ends / L, tau) + np.outer(gn, nrm)
    return h @ ends, grad


def qhat_pair_local(geom, qdofs, zcoeffs):
    """Pair signed local qhat values against a local cubic test function.

    ``qdofs`` is ``(alpha, beta, gamma)`` where alpha/beta are the three
    edge moments already carrying the element-side sign and gamma the
    three corner jumps (counterclockwise vertex order).  ``zcoeffs`` holds
    the 10 coefficients of the test function in the element's scaled
    monomial P3 basis.  Edge integrals use the canonical edge normal.
    """
    alpha, beta, gamma = (np.asarray(q, dtype=float) for q in qdofs)
    basis = geom.scalar_basis()
    zc = np.asarray(zcoeffs, dtype=float)
    total = 0.0
    for k in range(3):
        pts = geom.edge_points(k, EDGE_NODES)
        vals, grads, _ = basis.eval(pts)
        z_mean = EDGE_WEIGHTS @ (vals @ zc)
        gn_mean = EDGE_WEIGHTS @ np.einsum("qid,i,d->q", grads, zc,
                                           geom.nrm[k])
        total += alpha[k] * z_mean - beta[k] * gn_mean
    corner_vals, _, _ = basis.eval(geom.P)
    total -= gamma @ (corner_vals @ zc)
    return float(total)


def uhat_pair_local(geom, udofs, theta_coeffs):
    """Skeleton duality, as the element matrices form it, of a local uhat
    coefficient vector (three (value, gradient) vertex triples) with a
    symmetric P2 tensor given by its coefficients in the element's tensor
    basis."""
    pts = np.stack([geom.edge_points(k, EDGE_NODES) for k in range(3)])
    phi, gphi, _ = geom.scalar_basis().eval(pts)
    mat = uhat_pair_matrix(geom, phi[..., :6], gphi[..., :6, :])
    return float(np.asarray(theta_coeffs, dtype=float)
                 @ mat @ np.asarray(udofs, dtype=float).ravel())


def extract_uhat(mesh, u_fn, grad_fn):
    """Nodal uhat DOFs (value and gradient at every vertex) of a smooth
    deflection field."""
    out = np.empty((mesh.num_vertices, 3))
    pts = mesh.coords
    out[:, 0] = np.asarray(u_fn(pts), dtype=float)
    out[:, 1:] = np.asarray(grad_fn(pts), dtype=float)
    return out


def _edge_trace_dofs(points_of, L, tau, nrm, M_fn, divM_fn):
    """(alpha, beta, correction endpoints) of one edge in a given frame.

    ``points_of(s)`` maps arc parameters in [0, 1] to coordinates along
    the traversal.  The effective-shear trace ``phi = n.div M +
    d_t(t.M n)`` is represented through its tangential antiderivative
    ``g``: alpha is the slope of the L2-projection of ``g`` onto affine
    functions, and the endpoint values of ``g - P1 g`` are returned so
    the caller can fold them into the corner jumps.  This projected form
    makes the moment replacement orthogonal to affine edge data, which is
    what gives the O(h) trace approximation order.  beta is the plain
    moment of ``n.M n``.
    """
    s, w = GAUSS6_NODES, GAUSS6_WEIGHTS
    pts = points_of(s)
    Mq = np.asarray(M_fn(pts), dtype=float)
    beta = L * (w @ np.einsum("qij,i,j->q", Mq, nrm, nrm))

    # g(s) = t.M n + integral of n.div M along the arc
    tMn = np.einsum("qij,i,j->q", Mq, tau, nrm)
    acc = np.empty_like(s)
    for i, si in enumerate(s):
        sub = np.asarray(divM_fn(points_of(si * s)), dtype=float)
        acc[i] = L * si * (w @ (sub @ nrm))
    gq = tMn + acc

    # affine projection a + b s on [0, 1]: moments against {1, s}
    m0 = w @ gq
    m1 = w @ (gq * s)
    b = 12.0 * m1 - 6.0 * m0
    a = m0 - 0.5 * b
    alpha = b

    ends = points_of(np.array([0.0, 1.0]))
    Mends = np.asarray(M_fn(ends), dtype=float)
    tMn_ends = np.einsum("qij,i,j->q", Mends, tau, nrm)
    g0 = tMn_ends[0]
    sub = np.asarray(divM_fn(points_of(s)), dtype=float)
    g1 = tMn_ends[1] + L * (w @ (sub @ nrm))
    corr = np.array([g0 - a, g1 - (a + b)])
    return alpha, beta, corr


def extract_qhat(mesh, M_fn, divM_fn):
    """Canonical qhat DOFs of a smooth symmetric tensor field.

    alpha_E is the projected moment of the effective shear
    ``n.div M + d_t(t.M n)`` (canonical tangent/normal), beta_E the edge
    moment of ``n.M n``, and gamma[t, c] the corner jump of ``t.M n``
    between the incoming and outgoing edges of corner c, corrected by the
    endpoint values of the projection remainder so that the represented
    trace stays consistent (the corrections telescope, so the patch sums
    at interior vertices still vanish).
    """
    nE = mesh.num_edges
    alpha = np.empty(nE)
    beta = np.empty(nE)
    corr = np.empty((nE, 2))               # g - P1 g at (v_lo, v_hi)
    for e in range(nE):
        a, b = mesh.coords[mesh.edge_vertices[e]]
        points_of = lambda s, a=a, b=b: a[None, :] + np.outer(s, b - a)
        alpha[e], beta[e], corr[e] = _edge_trace_dofs(
            points_of, *edge_frame(a, b), M_fn, divM_fn)

    gamma = np.empty((mesh.num_triangles, 3))
    for t in range(mesh.num_triangles):
        geom = ElementGeometry(mesh, t)
        gamma[t] = (corner_jumps(geom, M_fn)
                    - _endpoint_jumps(geom.lo_local, corr[mesh.tri_edges[t]]))
    return alpha, beta, gamma


def local_qhat(mesh, t, alpha, beta, gamma):
    """Signed local (alpha, beta, gamma) values of triangle t from the
    canonical global DOF arrays."""
    e = mesh.tri_edges[t]
    s = mesh.edge_sign[t]
    return s * alpha[e], s * beta[e], gamma[t]


def extract_qhat_local(mesh, t, M_fn, divM_fn):
    """Signed local qhat values of one element extracted from a smooth
    tensor field seen purely from that element's side.

    Uses the same projected-antiderivative construction as
    :func:`extract_qhat` but in the element frame (outward normal,
    counterclockwise traversal).  The alpha value is then already odd
    across an interior edge; the even ``n.M n`` moment gets the
    element-side sign attached to orient it with the canonical edge
    normal used by :func:`qhat_pair_local`.  Multiplying alpha and beta
    by the element-side sign recovers the canonical global DOFs from
    either side.
    """
    geom = ElementGeometry(mesh, t)
    alpha = np.empty(3)
    beta = np.empty(3)
    corr = np.empty((3, 2))               # remainder at (start, end)
    start_local = np.where(geom.sign > 0, geom.lo_local, geom.hi_local)
    end_local = np.where(geom.sign > 0, geom.hi_local, geom.lo_local)
    for k in range(3):
        s = geom.sign[k]
        a = geom.P[start_local[k]]
        b = geom.P[end_local[k]]
        points_of = lambda sig, a=a, b=b: a[None, :] + np.outer(sig, b - a)
        al, be, co = _edge_trace_dofs(points_of, geom.length[k],
                                      s * geom.tau[k], s * geom.nrm[k],
                                      M_fn, divM_fn)
        alpha[k] = al
        beta[k] = s * be
        corr[k] = co

    gamma = corner_jumps(geom, M_fn) - _endpoint_jumps(start_local, corr)
    return alpha, beta, gamma


def _incoming_minus_outgoing(at_corner):
    """Corner jumps ``f_in - f_out`` around one element boundary traversed
    counterclockwise.  ``at_corner[c, k]`` is the value at corner c of a
    quantity carried by local edge k; edge (c+1) % 3 arrives at corner c
    and edge (c+2) % 3 leaves it."""
    c = np.arange(3)
    return at_corner[c, (c + 1) % 3] - at_corner[c, (c + 2) % 3]


def _endpoint_jumps(first_local, ends):
    """Corner jumps of per-edge values ``ends[k]`` given at the first and
    second endpoint of local edge k; ``first_local[k]`` is the local
    vertex of the first endpoint.  The projection remainders are
    frame-independent, so either endpoint order reads the same values."""
    at_first = first_local == np.arange(3)[:, None]
    return _incoming_minus_outgoing(np.where(at_first, ends[:, 0], ends[:, 1]))


def corner_jumps(geom, M_fn):
    """Corner jumps of ``t.M n`` between the incoming and outgoing edges
    at each corner of one element boundary."""
    corner_M = np.asarray(M_fn(geom.P), dtype=float)
    t_ccw = geom.sign[:, None] * geom.tau
    n_out = geom.sign[:, None] * geom.nrm
    return _incoming_minus_outgoing(
        np.einsum("cij,ki,kj->ck", corner_M, t_ccw, n_out))
