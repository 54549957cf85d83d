"""Reference constructions of the mesh's edge numbering, of newest-vertex
bisection and of the DOF map's reduction R, written the straightforward
way: ``np.unique`` over vertex pairs for the topology, the closure with
one ``split`` call per bisected triangle, and R as COO triplets
converted by scipy.  The library builds the same arrays faster and with
less memory, and holds R only as its numbering; the tests compare them
bit for bit."""

from array import array

import numpy as np
import scipy.sparse as sp

from platedpg.errors import MeshStructureError
from platedpg.mesh import Mesh


def unique_topology(tris, n_vert):
    """Edge numbering of triangles ``tris`` (nT, 3) over ``n_vert``
    vertices by one ``np.unique`` over int64 vertex pairs: edges in the
    order they are first met, with their one or two triangles, as int32
    ids like the mesh's."""
    ends = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2).astype(np.int64)
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
        tri_edges=rank[inverse].reshape(len(tris), 3).astype(np.int32),
        edge_vertices=edge_vertices.astype(np.int32),
        edge_triangles=np.stack(
            [first // 3, np.where(count == 2, last // 3, -1)],
            axis=1).astype(np.int32),
        edge_on_boundary=count == 1,
        vertex_on_boundary=np.bincount(edge_vertices[count == 1].ravel(),
                                       minlength=n_vert) > 0)


def coo_reduction(mesh, bc):
    """R, x_prescribed, free_dim, n_uhat_free and n_qhat_free of
    ``build_dofmap(mesh, bc)``: one +1 per free u, M, uhat and (alpha,
    beta) DOF, uhat vertex by vertex and (alpha, beta) edge by edge, the
    gamma corners by owner elimination, and R built from concatenated
    int64 COO triplets and converted to CSR by scipy."""
    nT, nN, nE = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    off_uhat = 4 * nT
    off_alpha = off_uhat + 3 * nN
    off_gamma = off_alpha + 2 * nE
    full_dim = off_gamma + 3 * nT
    x_p = np.zeros(full_dim)
    fixed = np.zeros(full_dim, dtype=bool)
    vertex_rows = off_uhat + np.arange(3 * nN)
    edge_rows = (off_alpha + np.arange(nE)[:, None] + np.array([0, nE])).ravel()
    for rows, (index, value) in ((vertex_rows, bc.vertex),
                                 (edge_rows, bc.edge)):
        fixed[rows[index]] = True
        x_p[rows[index]] = value
    vertex_rows = vertex_rows[~fixed[vertex_rows]]
    edge_rows = edge_rows[~fixed[edge_rows]]
    n_uhat_free, n_edge_free = len(vertex_rows), len(edge_rows)
    trace_rows = np.concatenate([vertex_rows, edge_rows])

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

    u_m = np.arange(off_uhat)
    entries = [(u_m, u_m, np.ones(off_uhat)),
               (trace_rows, off_uhat + np.arange(len(trace_rows)),
                np.ones(len(trace_rows))),
               (corner[free], col[free], np.ones(n_gamma_free)),
               (dependent_row[tris[others]], col[others],
                np.full(np.count_nonzero(others), -1.0))]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    free_dim = col0 + n_gamma_free
    R = sp.csr_matrix((vals, (rows, cols)), shape=(full_dim, free_dim))
    return R, x_p, free_dim, n_uhat_free, n_edge_free + n_gamma_free


def reduction_matrix(dofmap):
    """The R that a :class:`~platedpg.spaces.DofMap` stands for, built
    from COO triplets and converted to CSR by scipy: +1 at row ``own[j]``
    of each free column j, -1 at row ``dep[k]`` of the k-th free gamma
    column where ``dep[k] >= 0``."""
    head = dofmap.free_dim - len(dofmap.dep)
    at = np.flatnonzero(dofmap.dep >= 0)
    rows = np.concatenate([dofmap.own, dofmap.dep[at]])
    cols = np.concatenate([np.arange(dofmap.free_dim), head + at])
    vals = np.concatenate([np.ones(dofmap.free_dim), np.full(len(at), -1.0)])
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(dofmap.full_dim, dofmap.free_dim))


def nvb_refine(mesh, marked):
    """Bisect every marked triangle at least once, with recursive
    newest-vertex-bisection closure keeping the mesh conforming.  The
    closure walks the mesh's own edges: a split appends two children and
    three edges (two halves, the bisector) and re-points the old ones."""
    marked = np.unique(np.asarray(
        marked if isinstance(marked, np.ndarray) else list(marked)))
    if marked.size == 0:
        return mesh
    if (marked.dtype.kind not in "iu" or marked[0] < 0  # not float or bool
            or marked[-1] >= mesh.num_triangles):
        raise MeshStructureError("marked set contains invalid triangle ids")

    # flat int64 slot arrays, three per triangle, turned so that slot 0
    # holds the newest vertex p0 and the refinement edge p1p2 opposite it
    n0, ref0 = mesh.num_triangles, mesh.refinement_edge[:, None]
    turn = (ref0 + np.arange(3)) % 3
    turned = (np.take_along_axis(mesh.tri_vertices, turn, 1),
              np.take_along_axis(mesh.tri_edges, turn, 1),
              *mesh.edge_triangles.T)
    verts, edges, side0, side1 = (array("q", a.astype(np.int64).tobytes())
                                  for a in turned)
    alive = bytearray(b"\1") * n0
    ends = array("q")                   # the bisected edge of each new vertex

    def split(t, m, h1, h2):
        """Children [m, p0, p1] and [m, p2, p0] in slot order; h1 and h2
        are the halves of the refinement edge at p1 and at p2."""
        p0, p1, p2 = verts[3 * t:3 * t + 3]
        e2, e1 = edges[3 * t + 1], edges[3 * t + 2]          # p2p0, p0p1
        c, d = len(alive), len(side0)
        verts.extend((m, p0, p1, m, p2, p0))
        edges.extend((e1, h1, d, e2, d, h2))
        side0.append(c)
        side1.append(c + 1)
        alive[t] = False
        alive.extend((True, True))
        (side0 if side0[e1] == t else side1)[e1] = c
        (side0 if side0[h1] == -1 else side1)[h1] = c
        (side0 if side0[e2] == t else side1)[e2] = c + 1
        (side0 if side0[h2] == -1 else side1)[h2] = c + 1

    budget = 200 * (n0 + marked.size)
    for t0 in marked.tolist():
        stack = [t0]
        while stack:
            budget -= 1
            if budget <= 0:
                raise MeshStructureError("NVB closure failed to terminate")
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            e = edges[3 * t]
            nb = side1[e] if side0[e] == t else side0[e]
            if nb >= 0 and edges[3 * nb] != e:
                stack.append(nb)
                continue
            m = mesh.num_vertices + len(ends) // 2
            ends += verts[3 * t + 1:3 * t + 3]
            h = len(side0)
            side0.extend((-1, -1))
            side1.extend((-1, -1))
            split(t, m, h, h + 1)
            if nb >= 0:
                split(nb, m, h + 1, h)
            stack.pop()

    # only edges of the given mesh are bisected: a child's refinement edge
    # is one of its parent's edges, and a grandchild has no edge of the
    # given mesh, so no refinement edge on the stack leads to it
    coords = np.concatenate([mesh.coords, 0.5 * mesh.coords[
        np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)].sum(axis=1)])
    # undo the turn: the given triangles keep their layout, and children
    # come out as [p1, m, p0] with ref 1 and [m, p2, p0] with ref 0
    slots = np.frombuffer(verts, dtype=np.int64).reshape(-1, 3)
    kids = slots[n0:].reshape(-1, 2, 3)
    kids[:, 0] = kids[:, 0, [2, 0, 1]]
    tris = np.concatenate([np.take_along_axis(
        slots[:n0], (np.arange(3) - ref0) % 3, 1), kids.reshape(-1, 3)])
    ref = np.concatenate([ref0[:, 0], np.tile([1, 0], len(kids))])
    keep = np.flatnonzero(np.frombuffer(alive, dtype=np.bool_))
    return Mesh(coords, tris[keep], ref[keep])
