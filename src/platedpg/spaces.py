"""Degrees of freedom, edge traces and boundary conditions of the four
trial blocks.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .mesh import Mesh, edge_frame
from .polyquad import ASSEMBLY_RULE, p3_table


# slots of the N_TRIAL local trial unknowns of a triangle, in the columns
# of its matrix B and in DofMap.element_scatter: u | M11 M12 M22 | uhat
# (value, d/dx, d/dy per counterclockwise vertex) | (alpha, beta) per local
# edge | gamma per counterclockwise vertex
N_TRIAL = 22
U = 0
M = slice(1, 4)
UHAT = slice(4, 13)
ALPHA = slice(13, 19, 2)
BETA = slice(14, 19, 2)
GAMMA = slice(19, 22)


# ---------------------------------------------------------------------------
# element-local frame
# ---------------------------------------------------------------------------

class ElementGeometry:
    """Frame of triangle ``t``, shared by the pairing and assembly
    routines, built from its vertices and edge orientations alone.  An
    index array ``t`` gives the frames of those triangles stacked: every
    attribute gains a leading element axis."""

    def __init__(self, mesh: Mesh, t):
        self.P = np.take(mesh.coords, mesh.tri_vertices[t], axis=0)
        self.centroid = self.P.mean(axis=-2)
        self.sign = mesh.edge_sign[t].astype(float)   # s_{T,E}
        # canonical ends of local edge k as local vertices: k+1 -> k+2 if s > 0
        self.lo_local = (np.arange(3) + np.where(self.sign > 0, 1, 2)) % 3
        self.hi_local = (np.arange(3) + np.where(self.sign > 0, 2, 1)) % 3
        # their points, and the canonical length, tangent and normal
        self.lo, self.hi = (np.take_along_axis(self.P, end[..., None], -2)
                            for end in (self.lo_local, self.hi_local))
        self.length, self.tau, self.nrm = edge_frame(self.lo, self.hi)
        self.diam = self.length.max(axis=-1)

    def edge_points(self, k, s):
        """Points (..., len(s), 2) on local edge k at canonical parameters
        s in [0, 1]."""
        a, b = self.lo[..., k, None, :], self.hi[..., k, None, :]
        return a + np.reshape(s, (-1, 1)) * (b - a)

    @cached_property
    def volume_table(self):
        """Points and weights of the assembly rule and the P3 table there,
        evaluated once for the element matrices and the load."""
        qpts, w = ASSEMBLY_RULE.map_to(self.P)
        return qpts, w, p3_table(self.centroid, self.diam, qpts)


# ---------------------------------------------------------------------------
# Hermite edge traces
# ---------------------------------------------------------------------------

def uhat_edge_traces(geom: ElementGeometry, k: int, s):
    """Edge traces of the 9 local uhat unit DOFs (value, d/dx, d/dy per
    counterclockwise vertex) on local edge k at canonical parameters s:
    values (..., len(s), 9) and gradients (..., len(s), 2, 9).  At each
    canonical end the value DOF gets the Hermite value function, the
    gradient DOFs the Hermite slope function times ``L tau``; the
    gradient is the arc derivative along tau plus the normal derivative,
    interpolated linearly between the ends."""
    s = np.asarray(s)[:, None]
    L = geom.length[..., k, None, None]
    tau, nrm = geom.tau[..., k, None, :], geom.nrm[..., k, None, :]
    z, dz, gn = np.zeros((3,) + L.shape[:-2] + (len(s), 3, 3))
    for end, value, slope, d_value, d_slope, weight in (
            (geom.lo_local, 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s,
             6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, 1.0 - s),
            (geom.hi_local, -2 * s**3 + 3 * s**2, s**3 - s**2,
             -6 * s**2 + 6 * s, 3 * s**2 - 2 * s, s)):
        at = (np.arange(3) == end[..., k, None, None])[..., None]
        z[..., 0] += at[..., 0] * value
        dz[..., 0] += at[..., 0] * d_value
        z[..., 1:] += at * (slope * (L * tau))[..., None, :]
        dz[..., 1:] += at * (d_slope * (L * tau))[..., None, :]
        gn[..., 1:] += at * (weight * nrm)[..., None, :]
    z, dz, gn = (a.reshape(a.shape[:-2] + (9,)) for a in (z, dz, gn))
    return z, (dz[..., None, :] / L[..., None] * tau[..., None]
               + gn[..., None, :] * nrm[..., None])


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

class Constraints(NamedTuple):
    """Affine constraints ``coeffs[i] . x_b = value[i]`` on the DOF block
    ``b = index[i]`` of one kind: a vertex uhat triple (value, d/dx, d/dy)
    or an edge (alpha, beta) pair.  A block's constraints apply in the
    order given."""
    index: np.ndarray          # (k,) int64
    coeffs: np.ndarray         # (k, width)
    value: np.ndarray          # (k,)


def _no_constraints(width):
    return Constraints(np.zeros(0, dtype=np.int64), np.zeros((0, width)),
                       np.zeros(0))


@dataclass
class BCSpec:
    vertex: Constraints = field(default_factory=lambda: _no_constraints(3))
    edge: Constraints = field(default_factory=lambda: _no_constraints(2))


def interpolate_uhat_bc(fields, mesh):
    """Clamped-plate essential data: (u, grad u) at every boundary vertex
    from one call of ``fields(points) -> (u, grad, M)``, an exact
    solution's :attr:`~platedpg.problems.ExactSolution.fields`."""
    bverts = mesh.boundary_vertices()
    u, grad, _ = fields(mesh.coords[bverts])
    return BCSpec(vertex=Constraints(
        np.repeat(bverts, 3), np.tile(np.eye(3), (len(bverts), 1)),
        np.column_stack([u, grad]).ravel()))


def simply_supported_bc(mesh):
    """Essential constraints for ``u = 0`` and ``n.M n = 0`` on the whole
    boundary: vertex values and boundary-tangential slopes vanish, corners
    clamp the full gradient, and beta vanishes on boundary edges.

    A boundary vertex's tangents are those of its two lowest-numbered
    boundary edges; a straight-side vertex constrains its slope along the
    lowest-numbered one."""
    bedges = mesh.boundary_edges()
    ends = mesh.edge_vertices[bedges]
    tau = edge_frame(*mesh.coords[ends.T])[1]
    order = np.argsort(ends.ravel(), kind="stable")   # by vertex, then edge
    bverts, first = np.unique(ends.ravel()[order], return_index=True)
    t0, t1 = tau[order[first] // 2], tau[order[first + 1] // 2]
    # corner: two independent tangential directions pin the gradient
    corner = np.abs(t0[:, 0] * t1[:, 1] - t0[:, 1] * t1[:, 0]) > 1e-12
    rows = np.zeros((len(bverts), 3, 3))      # value, slope(s) per vertex
    rows[:, 0, 0] = 1.0
    rows[:, 1, 1:] = np.where(corner[:, None], [1.0, 0.0], t0)
    rows[:, 2, 2] = 1.0
    used = np.ones((len(bverts), 3), dtype=bool)
    used[:, 2] = corner
    return BCSpec(
        vertex=Constraints(np.repeat(bverts, 3).reshape(-1, 3)[used],
                           rows[used], np.zeros(np.count_nonzero(used))),
        edge=Constraints(bedges, np.tile([0.0, 1.0], (len(bedges), 1)),
                         np.zeros(len(bedges))))


# ---------------------------------------------------------------------------
# global DOF map
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Numbering of one mesh, which it does not hold: the block offsets
    of the full trial vector and the reduction ``x_full = R x_free +
    x_prescribed`` for the essential BCs and the gamma patch sums."""
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

    def element_scatter(self, mesh, t):
        """Full-vector indices of the trial DOFs of triangle t of the mesh
        this map numbers, in the slots :data:`U`, :data:`M`, :data:`UHAT`,
        :data:`ALPHA`, :data:`BETA` and :data:`GAMMA`; one row per id of an
        index array t.  Other mesh counts raise :class:`ConfigurationError`."""
        counts = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
        if counts != (self.off_m, (self.off_alpha - self.off_uhat) // 3,
                      self.off_beta - self.off_alpha):
            raise ConfigurationError(
                f"(#T, #N, #E) = {counts} is not the DOF map's mesh")
        t = np.asarray(t, dtype=np.int64)
        c, e = np.arange(3), mesh.tri_edges[t]
        out = np.empty(t.shape + (N_TRIAL,), dtype=np.int64)
        out[..., U] = t
        out[..., M] = self.off_m + 3 * t[..., None] + c
        uhat = self.off_uhat + 3 * mesh.tri_vertices[t][..., None] + c
        out[..., UHAT] = uhat.reshape(t.shape + (9,))
        out[..., ALPHA] = self.off_alpha + e
        out[..., BETA] = self.off_beta + e
        out[..., GAMMA] = self.off_gamma + 3 * t[..., None] + c
        return out

    def recover_full(self, x_free):
        return self.R @ x_free + self.x_prescribed


def _reduce_blocks(x_p, constraints, kind):
    """Reduction of one family of small DOF blocks (vertex uhat triples or
    edge (alpha, beta) pairs) under the :class:`Constraints` of that kind,
    writing their prescribed values into ``x_p`` (blocks, width).

    Every block has a basis of its free columns, the identity unless its
    constraints (grouped by block, in the order given) replace it by
    their nullspace.  The blocks with k constraints are reduced by one
    stacked SVD, whose LAPACK call per block is the one a single SVD
    makes.  Returns each block's number of free columns (int8) and a
    list of the ids and bases (blocks, width, width - k) of the blocks
    with k constraints, one item per k.  Dependent constraints raise for
    the lowest such block id.
    """
    n, width = x_p.shape
    index, C, d = (np.asarray(a) for a in constraints)
    if index.dtype.kind not in "iu":     # not float or bool
        raise ConfigurationError(f"{kind} constraint index is not integer")
    if C.ndim != 2 or C.shape[1] != width:
        raise ConfigurationError(f"{kind} constraint coeffs have shape "
                                 f"{C.shape}, not (k, {width})")
    if not index.ndim == d.ndim == 1 or not len(index) == len(C) == len(d):
        raise ConfigurationError(f"{kind} constraint index, coeffs and "
                                 f"value differ in length")
    if not (np.isfinite(C).all() and np.isfinite(d).all()):
        raise ConfigurationError(f"{kind} constraints are not finite")
    bad = index[(index < 0) | (index >= n)]
    if bad.size:
        raise ConfigurationError(
            f"{kind} constraint on a nonexistent {kind}: {bad.tolist()}")
    order = np.argsort(index, kind="stable")
    blocks, starts, counts = np.unique(index[order], return_index=True,
                                       return_counts=True)

    n_free = np.full(n, width, dtype=np.int8)
    over, nulls = [], []
    for k in np.unique(counts).tolist():
        b = blocks[counts == k]
        at = order[starts[counts == k, None] + np.arange(k)]
        U, s, Vt = np.linalg.svd(C[at], full_matrices=True)
        tol = max(k, width) * np.finfo(float).eps * np.maximum(s[:, 0], 1.0)
        rank = np.count_nonzero(s > tol[:, None], axis=1)
        if np.any(rank < k):
            i = np.argmax(rank < k)
            over.append((int(b[i]), k, int(rank[i])))
            continue
        y = (np.swapaxes(U, 1, 2) @ d[at, None])[:, :, 0] / s[:, :k]
        x_p[b] = (np.swapaxes(Vt[:, :k], 1, 2) @ y[:, :, None])[:, :, 0]
        nulls.append((b, np.swapaxes(Vt[:, k:], 1, 2)))
        n_free[b] = width - k
    if over:
        b, k, rank = min(over)
        raise ConfigurationError(
            f"over-constrained boundary block at {kind} {b}: "
            f"{k} constraints of rank {rank}")
    return n_free, nulls


def build_dofmap(mesh, bc: BCSpec) -> DofMap:
    """Number the four trial blocks and build the affine reduction for
    the essential constraints and the gamma patch sums.

    Free columns follow the full layout block by block: u and M, the
    vertex uhat blocks, the edge (alpha, beta) blocks, then the gamma
    corners that are not eliminated.  R is written straight into
    canonical CSR, each row at its offset, and x_prescribed through
    views.  Index arrays are in R's index dtype and freed once used: at
    the peak, beside the outputs, three index arrays of about one entry
    per corner are live.
    """
    nT, nN, nE = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    off_m = nT
    off_uhat = 4 * nT
    off_alpha = off_uhat + 3 * nN
    off_beta = off_alpha + nE
    off_gamma = off_beta + nE
    full_dim = off_gamma + 3 * nT
    x_p = np.zeros(full_dim)

    def blocks(a):      # the vertex and edge blocks of a full-length array
        return (a[off_uhat:off_alpha].reshape(nN, 3),
                a[off_alpha:off_gamma].reshape(2, nE).T)
    reduced = [_reduce_blocks(x, cons, kind) for x, cons, kind in zip(
        blocks(x_p), (bc.vertex, bc.edge), ("vertex", "edge"))]
    n_uhat_free, n_edge_free = (int(n_free.sum()) for n_free, _ in reduced)

    # gamma: the patch triangle with the largest id carries the dependent
    # corner at every interior vertex, minus the sum of the other corners
    corners = mesh.tri_vertices.ravel()
    n_corner, size = corners.size, np.bincount(corners, minlength=nN)
    interior = ~mesh.vertex_on_boundary
    n_others = size[interior] - 1
    col0 = off_uhat + n_uhat_free + n_edge_free
    free_dim = col0 + n_corner - n_others.size

    # one entry a row, but n_others in a dependent corner row and the
    # basis nonzeros in a constrained block row
    nnz = full_dim + int(n_others.sum()) - n_others.size + sum(
        np.count_nonzero(null) - null.shape[0] * null.shape[1]
        for _, nulls in reduced for _, null in nulls)
    itype = np.int32 if max(nnz, full_dim) < 2**31 else np.int64  # scipy's
    # sorted keys (vertex, corner) list a vertex's corners 3t + c in column
    # order, the dependent one last; the others' columns are read before R
    corner = corners * n_corner + np.arange(n_corner)
    corner.sort()
    corner %= n_corner
    dependent = corner[np.cumsum(size)[interior] - 1]
    free = np.ones(n_corner, dtype=bool)
    free[dependent] = False
    col = np.cumsum(free, dtype=itype) + (col0 - 1)
    other_col = col[corner[np.repeat(interior, size) & free[corner]]]
    del corner, free

    indptr = np.zeros(full_dim + 1, dtype=itype)
    counts = indptr[1:]
    counts[:] = 1
    for rows, (_, nulls) in zip(blocks(counts), reduced):
        for b, null in nulls:
            rows[b] = np.count_nonzero(null, axis=2)
    counts[off_gamma:][dependent] = n_others
    np.cumsum(indptr, out=indptr)
    indices = np.empty(nnz, dtype=itype)
    data = np.ones(nnz)
    indices[:off_uhat] = indptr[:off_uhat]      # u and M: row r is column r
    # a corner row's first entry is its own column; an interior vertex's
    # k-th other corner (2+ of them) then lands at its dependent row start + k
    corner_at = indptr[off_gamma:-1]
    indices[corner_at] = col
    del col
    at = np.repeat((corner_at[dependent] - np.cumsum(n_others) + n_others)
                   .astype(itype), n_others)
    at += np.arange(at.size, dtype=itype)
    indices[at] = other_col
    data[at] = -1.0
    del at, other_col
    for rows, (n_free, nulls), c0 in zip(blocks(indptr[:-1]), reduced,
                                         (off_uhat, off_uhat + n_uhat_free)):
        start = np.cumsum(n_free, dtype=itype) - n_free + c0
        eye = n_free == rows.shape[1]
        for i in range(rows.shape[1]):
            indices[rows[:, i][eye]] = start[eye] + i
        for b, null in nulls:
            t, i, j = np.nonzero(null)
            at = rows[b[t], i] + (np.cumsum(null != 0, axis=2) - 1)[t, i, j]
            indices[at] = start[b[t]] + j
            data[at] = null[t, i, j]
    R = sp.csr_matrix((data, indices, indptr), shape=(full_dim, free_dim))

    return DofMap(off_m, off_uhat, off_alpha, off_beta, off_gamma, full_dim,
                  free_dim, R, x_p, n_uhat_free, n_edge_free + free_dim - col0)
