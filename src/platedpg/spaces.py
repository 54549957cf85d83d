"""Degrees of freedom and skeleton pairings for the four trial blocks.

Trial unknowns and their storage layout in the full coefficient vector:

* ``u``    piecewise constants, one per triangle,
* ``M``    piecewise-constant symmetric tensors, three per triangle
  (M11, M12, M22),
* ``uhat`` deflection traces, three per mesh vertex (value, d/dx, d/dy);
  on each edge they induce a Hermite-cubic value trace and a linear
  normal-derivative trace,
* ``qhat`` moment/shear traces: per edge one moment ``alpha`` of the
  effective shear ``n.div(Theta) + d_t(t.Theta n)`` and one moment
  ``beta`` of ``n.Theta n`` (both stored as seen from the plus side,
  the triangle whose outward normal equals the canonical edge normal),
  plus one corner jump ``gamma`` per triangle corner, constrained to sum
  to zero around every interior vertex.

The patch-sum constraint is handled by elimination (the patch triangle
with the largest id carries the dependent gamma), which keeps the global
condensed system symmetric positive definite.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .mesh import Mesh, vertex_patch
from .polyquad import (EDGE_POINTS, SLOTS, ScalarBasis, TensorBasis,
                       edge_rule)


# ---------------------------------------------------------------------------
# element-local frame
# ---------------------------------------------------------------------------

class ElementGeometry:
    """Frame of triangle ``t``, shared by the pairing and assembly
    routines.  An index array ``t`` gives the frames of those triangles
    stacked: every attribute gains a leading element axis."""

    def __init__(self, mesh: Mesh, t):
        self.vids = mesh.tri_vertices[t]
        self.P = mesh.coords[self.vids]
        self.area = mesh.tri_area[t]
        self.centroid = mesh.tri_centroid[t]
        self.diam = mesh.tri_diam[t]
        self.eids = mesh.tri_edges[t]
        self.length = mesh.edge_length[self.eids]
        self.tau = mesh.edge_tangent[self.eids]       # canonical tangents
        self.nrm = mesh.edge_normal[self.eids]        # canonical normals
        self.sign = mesh.edge_sign[t].astype(float)   # s_{T,E}
        # canonical endpoints of local edge k as local vertex indices
        nxt, prv = (np.arange(3) + 1) % 3, (np.arange(3) + 2) % 3
        lo_vid = mesh.edge_vertices[self.eids, 0]
        self.lo_local = np.where(self.vids[..., nxt] == lo_vid, nxt, prv)
        self.hi_local = np.where(self.lo_local == nxt, prv, nxt)

    def edge_points(self, k, s):
        """Points (..., len(s), 2) on local edge k at canonical parameters
        s in [0, 1]."""
        a = np.take_along_axis(self.P, self.lo_local[..., k, None, None], -2)
        b = np.take_along_axis(self.P, self.hi_local[..., k, None, None], -2)
        return a + np.reshape(s, (-1, 1)) * (b - a)

    def scalar_basis(self, p):
        return ScalarBasis(p, self.centroid, self.diam)

    def tensor_basis(self, p):
        return TensorBasis(p, self.centroid, self.diam)


# ---------------------------------------------------------------------------
# Hermite edge traces
# ---------------------------------------------------------------------------

def _hermite(s):
    """Cubic Hermite shape functions and derivatives on [0, 1]."""
    s = np.asarray(s)
    h = np.stack([2 * s**3 - 3 * s**2 + 1,
                  s**3 - 2 * s**2 + s,
                  -2 * s**3 + 3 * s**2,
                  s**3 - s**2], axis=-1)
    dh = np.stack([6 * s**2 - 6 * s,
                   3 * s**2 - 4 * s + 1,
                   -6 * s**2 + 6 * s,
                   3 * s**2 - 2 * s], axis=-1)
    return h, dh


def uhat_edge_data(geom: ElementGeometry, k: int):
    """Maps from the 9 local uhat DOFs to the edge-trace data of local
    edge k.

    Returns a (..., 6, 9) matrix picking (z_lo, dz_lo, z_hi, dz_hi, gn_lo,
    gn_hi): endpoint values, endpoint tangential derivatives with respect
    to the arc parameter, and endpoint normal derivatives along the
    canonical normal.  Local uhat DOF order: per counterclockwise vertex
    (value, d/dx, d/dy).
    """
    lo = (np.arange(3) == geom.lo_local[..., k, None])[..., None]
    hi = (np.arange(3) == geom.hi_local[..., k, None])[..., None]
    Ltau = (geom.length[..., k, None] * geom.tau[..., k, :])[..., None, :]
    nrm = geom.nrm[..., k, None, :]
    D = np.zeros(lo.shape[:-2] + (6, 3, 3))     # (row, vertex, component)
    D[..., 0, :, :1] = lo
    D[..., 1, :, 1:] = lo * Ltau
    D[..., 2, :, :1] = hi
    D[..., 3, :, 1:] = hi * Ltau
    D[..., 4, :, 1:] = lo * nrm
    D[..., 5, :, 1:] = hi * nrm
    return D.reshape(D.shape[:-2] + (9,))


def uhat_trace_on_edge(geom, k, udofs, s):
    """Hermite value trace, full gradient and normal-derivative trace of a
    local uhat coefficient vector on edge k at parameters s."""
    D = uhat_edge_data(geom, k)
    data = D @ np.asarray(udofs, dtype=float).ravel()
    z_lo, d_lo, z_hi, d_hi, gn_lo, gn_hi = data
    h, dh = _hermite(s)
    z = h @ np.array([z_lo, d_lo, z_hi, d_hi])
    dz_ds = dh @ np.array([z_lo, d_lo, z_hi, d_hi])
    gn = (1.0 - s) * gn_lo + s * gn_hi
    grad = (np.outer(dz_ds / geom.length[k], geom.tau[k])
            + np.outer(gn, geom.nrm[k]))
    return z, grad, gn


# ---------------------------------------------------------------------------
# skeleton pairings
# ---------------------------------------------------------------------------

def qhat_pair_local(geom, qdofs, zcoeffs):
    """Pair signed local qhat values against a local cubic test function.

    ``qdofs`` is ``(alpha, beta, gamma)`` where alpha/beta are the three
    edge moments already carrying the element-side sign and gamma the
    three corner jumps (counterclockwise vertex order).  ``zcoeffs`` holds
    the 10 coefficients of the test function in the element's scaled
    monomial P3 basis.  Edge integrals use the canonical edge normal.
    """
    alpha, beta, gamma = (np.asarray(q, dtype=float) for q in qdofs)
    basis = geom.scalar_basis(3)
    rule = edge_rule(EDGE_POINTS)
    zc = np.asarray(zcoeffs, dtype=float)
    total = 0.0
    for k in range(3):
        pts = geom.edge_points(k, rule.points)
        vals, grads, _ = basis.eval(pts)
        z_mean = rule.weights @ (vals @ zc)
        gn_mean = rule.weights @ np.einsum("qid,i,d->q", grads, zc,
                                           geom.nrm[k])
        total += alpha[k] * z_mean - beta[k] * gn_mean
    corner_vals, _, _ = basis.eval(geom.P)
    total -= gamma @ (corner_vals @ zc)
    return float(total)


def uhat_pair_matrix(geom, tensor_basis):
    """Skeleton pairing of every tensor test function against every local
    uhat unit DOF; shape (..., tensor dim, 9).

    Entry (i, j) is the boundary duality of tensor basis function i with
    the edge traces induced by uhat unit DOF j: the integral over each
    edge of ``(n.div Theta) z - (Theta n) . grad z`` with the element's
    outward normal n.  For ``Theta = phi S`` (scalar phi, symmetric slot
    S) the integrand is ``(S n) . (z grad phi - phi grad z)``, so only the
    scalar basis is evaluated on the edges.
    """
    rule = edge_rule(EDGE_POINTS)
    s, w = rule.points, rule.weights
    h, dh = _hermite(s)
    zero2 = np.zeros((len(s), 2))
    # value, arc derivative and normal derivative of the edge trace as
    # combinations of the six edge data of uhat_edge_data
    pick_z = np.concatenate([h, zero2], axis=1)
    pick_dz = np.concatenate([dh, zero2], axis=1)
    pick_gn = np.concatenate([np.zeros((len(s), 4)),
                              np.stack([1.0 - s, s], axis=1)], axis=1)
    out = 0.0
    for k in range(3):
        D = uhat_edge_data(geom, k)
        zq = pick_z @ D                                         # (..., q, 9)
        gradq = ((pick_dz @ D)[..., None, :]
                 / geom.length[..., k, None, None, None]
                 * geom.tau[..., k, None, :, None]
                 + (pick_gn @ D)[..., None, :]
                 * geom.nrm[..., k, None, :, None])            # (..., q, 2, 9)
        phi, gphi, _ = tensor_basis.scalar.eval(geom.edge_points(k, s))
        X = (np.einsum("q,...qai,...qj->...aij", w, gphi, zq)
             - np.einsum("q,...qa,...qij->...aij", w, phi, gradq))
        n_out = geom.sign[..., k, None] * geom.nrm[..., k, :]
        Sn = np.einsum("kij,...j->...ki", SLOTS, n_out)
        pair = np.einsum("...ki,...aij->...akj", Sn, X)
        out = out + (geom.length[..., k, None, None, None] * pair).reshape(
            pair.shape[:-3] + (tensor_basis.dim, 9))
    return out


def uhat_pair_local(geom, udofs, theta_coeffs):
    """Skeleton duality of a local uhat coefficient vector (three
    (value, gradient) vertex triples) with a symmetric P2 tensor given by
    its coefficients in the element's tensor basis."""
    basis = geom.tensor_basis(2)
    mat = uhat_pair_matrix(geom, basis)
    return float(np.asarray(theta_coeffs, dtype=float)
                 @ mat @ np.asarray(udofs, dtype=float).ravel())


# ---------------------------------------------------------------------------
# DOF extraction from smooth fields
# ---------------------------------------------------------------------------

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
    rule = edge_rule(6)
    s = rule.points
    pts = points_of(s)
    Mq = np.asarray(M_fn(pts), dtype=float)
    beta = L * (rule.weights @ np.einsum("qij,i,j->q", Mq, nrm, nrm))

    # g(s) = t.M n + integral of n.div M along the arc
    tMn = np.einsum("qij,i,j->q", Mq, tau, nrm)
    acc = np.empty_like(s)
    for i, si in enumerate(s):
        sub = np.asarray(divM_fn(points_of(si * rule.points)), dtype=float)
        acc[i] = L * si * (rule.weights @ (sub @ nrm))
    gq = tMn + acc

    # affine projection a + b s on [0, 1]: moments against {1, s}
    m0 = rule.weights @ gq
    m1 = rule.weights @ (gq * s)
    b = 12.0 * m1 - 6.0 * m0
    a = m0 - 0.5 * b
    alpha = b

    ends = points_of(np.array([0.0, 1.0]))
    Mends = np.asarray(M_fn(ends), dtype=float)
    tMn_ends = np.einsum("qij,i,j->q", Mends, tau, nrm)
    g0 = tMn_ends[0]
    sub = np.asarray(divM_fn(points_of(rule.points)), dtype=float)
    g1 = tMn_ends[1] + L * (rule.weights @ (sub @ nrm))
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
            points_of, mesh.edge_length[e], mesh.edge_tangent[e],
            mesh.edge_normal[e], M_fn, divM_fn)

    gamma = np.empty((mesh.num_triangles, 3))
    for t in range(mesh.num_triangles):
        geom = ElementGeometry(mesh, t)
        gamma[t] = corner_jumps(geom, M_fn) - _correction_jumps(geom, corr)
    return alpha, beta, gamma


def _correction_jumps(geom, corr):
    """Corner jumps of the per-edge projection remainders, in the same
    incoming/outgoing convention as :func:`corner_jumps`.

    ``corr[e]`` holds the remainder at the canonical endpoints (v_lo,
    v_hi) of edge e; the remainder function is frame-independent, so each
    element reads the same values.
    """
    jumps = np.empty(3)
    for c in range(3):
        val = 0.0
        for kk, orient in (((c + 1) % 3, 1.0), ((c + 2) % 3, -1.0)):
            e = geom.eids[kk]
            at_lo = geom.lo_local[kk] == c
            val += orient * corr[e][0 if at_lo else 1]
        jumps[c] = val
    return jumps


def local_qhat(mesh, t, alpha, beta, gamma):
    """Signed local (alpha, beta, gamma) values of triangle t from the
    canonical global DOF arrays."""
    geom = ElementGeometry(mesh, t)
    s = geom.sign
    return s * alpha[geom.eids], s * beta[geom.eids], gamma[t]


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

    jumps = np.empty(3)
    for c in range(3):
        val = 0.0
        for kk, orient in (((c + 1) % 3, 1.0), ((c + 2) % 3, -1.0)):
            at_start = start_local[kk] == c
            val += orient * corr[kk][0 if at_start else 1]
        jumps[c] = val
    gamma = corner_jumps(geom, M_fn) - jumps
    return alpha, beta, gamma


def corner_jumps(geom, M_fn):
    """Corner jumps of ``t.M n`` between the incoming and outgoing edges
    at each corner of one element boundary."""
    corner_M = np.asarray(M_fn(geom.P), dtype=float)
    gamma = np.empty(3)
    for c in range(3):
        val = 0.0
        for kk, orient in (((c + 1) % 3, 1.0), ((c + 2) % 3, -1.0)):
            t_ccw = geom.sign[kk] * geom.tau[kk]
            n_out = geom.sign[kk] * geom.nrm[kk]
            val += orient * np.einsum("ij,i,j->", corner_M[c], t_ccw, n_out)
        gamma[c] = val
    return gamma


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BCConstraint:
    """One affine constraint on a vertex uhat block (3 coefficients over
    (value, d/dx, d/dy)) or an edge (alpha, beta) block (2 coefficients)."""
    kind: str                  # "vertex" or "edge"
    index: int
    coeffs: tuple
    value: float


@dataclass
class BCSpec:
    constraints: List[BCConstraint] = field(default_factory=list)

    def fix_vertex(self, v, coeffs, value):
        self.constraints.append(
            BCConstraint("vertex", int(v), tuple(float(c) for c in coeffs),
                         float(value)))

    def fix_edge(self, e, coeffs, value):
        self.constraints.append(
            BCConstraint("edge", int(e), tuple(float(c) for c in coeffs),
                         float(value)))

    def clamp_vertex(self, v, value, grad):
        self.fix_vertex(v, (1.0, 0.0, 0.0), value)
        self.fix_vertex(v, (0.0, 1.0, 0.0), grad[0])
        self.fix_vertex(v, (0.0, 0.0, 1.0), grad[1])


def interpolate_uhat_bc(exact_u, exact_grad_u, mesh):
    """Clamped-plate essential data: prescribe (u, grad u) at every
    boundary vertex by nodal interpolation."""
    bc = BCSpec()
    bpts = mesh.coords[mesh.boundary_vertices()]
    vals = np.asarray(exact_u(bpts), dtype=float)
    grads = np.asarray(exact_grad_u(bpts), dtype=float)
    for i, v in enumerate(mesh.boundary_vertices()):
        bc.clamp_vertex(int(v), vals[i], grads[i])
    return bc


def simply_supported_bc(mesh):
    """Essential constraints for ``u = 0`` and ``n.M n = 0`` on the whole
    boundary: vertex values and boundary-tangential slopes vanish, corners
    clamp the full gradient, and beta vanishes on boundary edges."""
    bc = BCSpec()
    btangents = {}
    for e in mesh.boundary_edges():
        bc.fix_edge(int(e), (0.0, 1.0), 0.0)
        for v in mesh.edge_vertices[e]:
            btangents.setdefault(int(v), []).append(mesh.edge_tangent[e])
    for v, tans in btangents.items():
        bc.fix_vertex(v, (1.0, 0.0, 0.0), 0.0)
        cross = abs(tans[0][0] * tans[1][1] - tans[0][1] * tans[1][0])
        if cross > 1e-12:
            # corner: two independent tangential directions pin the gradient
            bc.fix_vertex(v, (0.0, 1.0, 0.0), 0.0)
            bc.fix_vertex(v, (0.0, 0.0, 1.0), 0.0)
        else:
            t = tans[0]
            bc.fix_vertex(v, (0.0, t[0], t[1]), 0.0)
    return bc


# ---------------------------------------------------------------------------
# global DOF map
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Block layout of the full trial vector plus the affine reduction
    ``x_full = R x_free + x_prescribed`` that enforces essential boundary
    conditions and the interior-vertex patch-sum constraints."""
    mesh: Mesh
    off_u: int
    off_m: int
    off_uhat: int
    off_alpha: int
    off_beta: int
    off_gamma: int
    full_dim: int
    free_dim: int
    R: sp.csr_matrix
    x_prescribed: np.ndarray
    n_uhat_free: int
    n_qhat_free: int

    def iuhat(self, v, c):
        return self.off_uhat + 3 * v + c

    def ialpha(self, e):
        return self.off_alpha + e

    def ibeta(self, e):
        return self.off_beta + e

    def igamma(self, t, c):
        return self.off_gamma + 3 * t + c

    def element_scatter(self, t):
        """Full-vector indices of the 22 local trial DOFs of triangle t in
        the fixed local order: u, (M11, M12, M22), per-vertex uhat
        triples, per-edge (alpha, beta), per-vertex gamma.  An index array
        t gives one row per triangle."""
        t = np.asarray(t, dtype=np.int64)
        c = np.arange(3)
        uhat = self.off_uhat + 3 * self.mesh.tri_vertices[t][..., None] + c
        e = self.mesh.tri_edges[t]
        qhat = np.stack([self.off_alpha + e, self.off_beta + e], axis=-1)
        t = t[..., None]
        return np.concatenate([self.off_u + t, self.off_m + 3 * t + c,
                               uhat.reshape(t.shape[:-1] + (9,)),
                               qhat.reshape(t.shape[:-1] + (6,)),
                               self.off_gamma + 3 * t + c], axis=-1)

    def recover_full(self, x_free):
        return self.R @ x_free + self.x_prescribed


def _reduce_block(C, d, tag):
    """Particular solution and nullspace basis of a small constraint block
    C x = d; raises when the constraint functionals are dependent."""
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    n = C.shape[1]
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    tol = max(C.shape) * np.finfo(float).eps * max(s[0], 1.0)
    rank = int(np.count_nonzero(s > tol))
    if rank < C.shape[0]:
        raise ConfigurationError(
            f"over-constrained boundary block at {tag}: "
            f"{C.shape[0]} constraints of rank {rank}")
    x_p = Vt[:rank].T @ ((U.T @ d)[:rank] / s[:rank])
    null = Vt[rank:].T.copy() if rank < n else np.zeros((n, 0))
    return x_p, null


def build_dofmap(mesh, bc: Optional[BCSpec] = None) -> DofMap:
    """Number the four trial blocks and assemble the affine reduction for
    the essential constraints and the gamma patch sums."""
    bc = bc or BCSpec()
    nT, nN, nE = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    off_u = 0
    off_m = nT
    off_uhat = 4 * nT
    off_alpha = off_uhat + 3 * nN
    off_beta = off_alpha + nE
    off_gamma = off_beta + nE
    full_dim = off_gamma + 3 * nT

    vertex_cons = {}
    edge_cons = {}
    for c in bc.constraints:
        store = vertex_cons if c.kind == "vertex" else edge_cons
        store.setdefault(c.index, []).append(c)

    cols = [[] for _ in range(full_dim)]   # (free column, weight) pairs
    x_p = np.zeros(full_dim)
    free = 0

    def new_col():
        nonlocal free
        free += 1
        return free - 1

    for i in range(off_uhat):
        cols[i].append((new_col(), 1.0))

    n_uhat_free = 0
    for v in range(nN):
        base = off_uhat + 3 * v
        cons = vertex_cons.get(v)
        if not cons:
            for c in range(3):
                cols[base + c].append((new_col(), 1.0))
            n_uhat_free += 3
            continue
        C = np.array([c.coeffs for c in cons])
        d = np.array([c.value for c in cons])
        xp, null = _reduce_block(C, d, f"vertex {v}")
        x_p[base:base + 3] = xp
        for j in range(null.shape[1]):
            col = new_col()
            n_uhat_free += 1
            for c in range(3):
                if null[c, j] != 0.0:
                    cols[base + c].append((col, null[c, j]))

    n_qhat_free = 0
    for e in range(nE):
        cons = edge_cons.get(e)
        if not cons:
            cols[off_alpha + e].append((new_col(), 1.0))
            cols[off_beta + e].append((new_col(), 1.0))
            n_qhat_free += 2
            continue
        C = np.array([c.coeffs for c in cons])
        d = np.array([c.value for c in cons])
        xp, null = _reduce_block(C, d, f"edge {e}")
        x_p[off_alpha + e] = xp[0]
        x_p[off_beta + e] = xp[1]
        for j in range(null.shape[1]):
            col = new_col()
            n_qhat_free += 1
            if null[0, j] != 0.0:
                cols[off_alpha + e].append((col, null[0, j]))
            if null[1, j] != 0.0:
                cols[off_beta + e].append((col, null[1, j]))

    # gamma block: eliminate one corner unknown per interior vertex
    eliminated = {}
    for v in mesh.interior_vertices():
        patch = sorted(vertex_patch(mesh, v))
        rep = patch[-1]
        eliminated[(rep, int(v))] = [t for t in patch if t != rep]
    gamma_col = {}
    for t in range(nT):
        for c in range(3):
            v = int(mesh.tri_vertices[t, c])
            if (t, v) in eliminated:
                continue
            col = new_col()
            n_qhat_free += 1
            gamma_col[(t, v)] = col
            cols[off_gamma + 3 * t + c].append((col, 1.0))
    for (rep, v), others in eliminated.items():
        c = int(np.nonzero(mesh.tri_vertices[rep] == v)[0][0])
        for t in others:
            cols[off_gamma + 3 * rep + c].append((gamma_col[(t, v)], -1.0))

    rows, ccols, vals = [], [], []
    for i, entries in enumerate(cols):
        for col, w in entries:
            rows.append(i)
            ccols.append(col)
            vals.append(w)
    R = sp.csr_matrix((vals, (rows, ccols)), shape=(full_dim, free))

    return DofMap(mesh=mesh, off_u=off_u, off_m=off_m, off_uhat=off_uhat,
                  off_alpha=off_alpha, off_beta=off_beta, off_gamma=off_gamma,
                  full_dim=full_dim, free_dim=free, R=R, x_prescribed=x_p,
                  n_uhat_free=n_uhat_free, n_qhat_free=n_qhat_free)
