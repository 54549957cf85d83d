"""Reference constructions of the mesh's edge numbering and of the DOF
map's reduction R, written the straightforward way: ``np.unique`` over
vertex pairs for the topology, one SVD per constrained block, and R as
COO triplets converted by scipy.  The library builds the same arrays
with less memory; the tests compare them bit for bit."""

import numpy as np
import scipy.sparse as sp

from platedpg.errors import ConfigurationError


def unique_topology(tris, n_vert):
    """Edge numbering of triangles ``tris`` (nT, 3) over ``n_vert``
    vertices by one ``np.unique`` over the vertex pairs: edges in the
    order they are first met, with their one or two triangles."""
    ends = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, first, inverse, count = np.unique(
        lo * n_vert + hi, return_index=True, return_inverse=True,
        return_counts=True)
    last = np.zeros_like(first)
    np.maximum.at(last, inverse, np.arange(inverse.size))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    first, last, count = first[order], last[order], count[order]
    edge_vertices = np.stack([lo[first], hi[first]], axis=1)
    return dict(
        tri_edges=rank[inverse].reshape(len(tris), 3),
        edge_vertices=edge_vertices,
        edge_triangles=np.stack(
            [first // 3, np.where(count == 2, last // 3, -1)], axis=1),
        edge_on_boundary=count == 1,
        vertex_on_boundary=np.bincount(edge_vertices[count == 1].ravel(),
                                       minlength=n_vert) > 0)


def reduce_block(C, d, tag):
    """One SVD per constraint block: the block's prescribed values and
    the basis of its nullspace."""
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


def reduce_blocks_per_block(rows, constraints, kind, col0):
    """The reduction of one family of DOF blocks, in ascending block id,
    one :func:`reduce_block` each: COO entries of R in (block, row,
    column) order, prescribed values and number of free columns."""
    n, width = rows.shape
    index, C, d = constraints
    order = np.argsort(index, kind="stable")
    blocks, starts = np.unique(index[order], return_index=True)
    basis = np.tile(np.eye(width), (n, 1, 1))
    n_free = np.full(n, width)
    x_p = np.zeros((n, width))
    for b, Cb, db in zip(blocks.tolist(), np.split(C[order], starts[1:]),
                         np.split(d[order], starts[1:])):
        x_p[b], null = reduce_block(Cb, db, f"{kind} {b}")
        basis[b] = 0.0
        basis[b, :, :null.shape[1]] = null
        n_free[b] = null.shape[1]
    start = col0 + np.cumsum(n_free) - n_free
    b, i, j = np.nonzero(basis)
    return (rows[b, i], start[b] + j, basis[b, i, j]), x_p, int(n_free.sum())


def coo_reduction(mesh, bc):
    """R, x_prescribed, free_dim, n_uhat_free and n_qhat_free of
    ``build_dofmap(mesh, bc)``, with R built from concatenated int64
    COO triplets and converted to CSR by scipy."""
    nT, nN, nE = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    off_uhat = 4 * nT
    off_alpha = off_uhat + 3 * nN
    off_gamma = off_alpha + 2 * nE
    full_dim = off_gamma + 3 * nT
    x_p = np.zeros(full_dim)

    u_m = np.arange(off_uhat)
    uhat_rows = off_uhat + np.arange(3 * nN).reshape(nN, 3)
    uhat, x_p[uhat_rows], n_uhat_free = reduce_blocks_per_block(
        uhat_rows, bc.vertex, "vertex", off_uhat)
    edge_rows = off_alpha + np.arange(nE)[:, None] + np.array([0, nE])
    edge, x_p[edge_rows], n_edge_free = reduce_blocks_per_block(
        edge_rows, bc.edge, "edge", off_uhat + n_uhat_free)

    tris = mesh.tri_vertices
    owner = np.full(nN, -1)
    np.maximum.at(owner, tris, np.arange(nT)[:, None])
    at_interior = ~mesh.vertex_on_boundary[tris]
    dependent = at_interior & (owner[tris] == np.arange(nT)[:, None])
    free = ~dependent
    n_gamma_free = int(np.count_nonzero(free))
    col0 = off_uhat + n_uhat_free + n_edge_free
    col = (col0 + np.cumsum(free) - 1).reshape(nT, 3)
    corner = off_gamma + np.arange(3 * nT).reshape(nT, 3)
    dependent_row = np.empty(nN, dtype=np.int64)
    dependent_row[tris[dependent]] = corner[dependent]
    others = free & at_interior

    entries = [(u_m, u_m, np.ones(off_uhat)), uhat, edge,
               (corner[free], col[free], np.ones(n_gamma_free)),
               (dependent_row[tris[others]], col[others],
                np.full(np.count_nonzero(others), -1.0))]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    free_dim = col0 + n_gamma_free
    R = sp.csr_matrix((vals, (rows, cols)), shape=(full_dim, free_dim))
    return R, x_p, free_dim, n_uhat_free, n_edge_free + n_gamma_free
