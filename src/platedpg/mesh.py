"""Conforming triangular meshes with newest-vertex-bisection refinement.

Meshes are immutable after construction; refinement returns a new mesh.
Orientation conventions used throughout the package:

* triangle vertices are stored counterclockwise,
* local edge ``k`` of a triangle is the edge opposite local vertex ``k``,
* every global edge stores its endpoints as ``(v_lo, v_hi)`` with
  ``v_lo < v_hi``; its canonical tangent points from ``v_lo`` to ``v_hi``
  and its canonical normal is the tangent rotated by -90 degrees
  (:func:`edge_frame`).
"""

import numpy as np

from .errors import MeshStructureError


def edge_frame(a, b):
    """(length, tangent, normal) of the segments from points a to b
    (..., 2): the unit tangent points from a to b and the normal is the
    tangent rotated by -90 degrees.  With ``a, b`` the ends ``v_lo, v_hi``
    of a global edge this is the edge's canonical frame."""
    d = b - a
    length = np.linalg.norm(d, axis=-1)
    tangent = d / length[..., None]
    return length, tangent, np.stack([tangent[..., 1], -tangent[..., 0]],
                                     axis=-1)


class Mesh:
    """Conforming triangulation of a simply connected polygon.

    ``Mesh(coords, tri_vertices, refinement_edge)`` is the one checked
    constructor; :func:`mesh_from_arrays` and :func:`nvb_refine` build
    through it.  It raises :class:`MeshStructureError` unless the
    coordinates are finite with shape (n, 2), the triples are integer
    (not float or bool) vertex ids in range with shape (m, 3), and the
    refinement edges are integers 0, 1 or 2 with shape (m,); and for a
    repeated vertex in a triangle, an edge of three triangles, unused
    vertices, an Euler characteristic other than 1, pinched vertices or
    a triangle that is not counterclockwise (nonpositive signed area).
    Ids are stored as int32, refinement edges and edge signs as int8, so
    n + m above 2**31 (a valid mesh has n + m - 1 edges) raises it too.
    """

    def __init__(self, coords, tri_vertices, refinement_edge):
        self.coords, self.tri_vertices = _checked_vertices(coords,
                                                           tri_vertices)
        ref = np.asarray(refinement_edge)
        if (ref.dtype.kind not in "iu" or ref.shape != (self.num_triangles,)
                or ref.min(initial=0) < 0 or ref.max(initial=0) > 2):
            raise MeshStructureError("refinement edges in {0, 1, 2}, one per "
                                     "triangle, expected")
        self.refinement_edge = np.ascontiguousarray(ref, dtype=np.int8)
        self._build_geometry()
        self._build_topology()
        bad = np.nonzero(self.tri_area <= 0.0)[0]
        if bad.size:
            raise MeshStructureError(
                f"triangles with nonpositive signed area: {bad.tolist()}")

    # -- construction helpers -------------------------------------------

    def _build_topology(self):
        """Edges in the order they are first met (triangle by triangle,
        local edge k), their vertices, triangles and signs, boundary flags.
        One sort of the slots by vertex-pair key, in any order within a
        pair, groups each edge's slots: the smallest of each group, in
        slot order, are the edges, the largest give second triangles.
        Keys, slot order, sums and per-edge arrays are int32 while keys
        fit, freed once used; at the peak the outputs and six per-edge
        arrays are live."""
        coords, tris = self.coords, self.tri_vertices
        n_vert, n_tri = len(coords), len(tris)
        itype = np.int32 if n_vert**2 < 2**31 else np.int64
        # local edge k joins local vertices k+1 and k+2, its slot 3t + k
        a, b = (np.roll(tris, -k, 1).astype(itype).ravel() for k in (1, 2))
        degenerate = np.unique(np.flatnonzero(a == b) // 3)
        if degenerate.size:
            raise MeshStructureError("degenerate triangles (repeated vertex): "
                                     f"{degenerate.tolist()}")

        # s[t, k] = +1 when triangle t traverses local edge k from v_lo to
        # v_hi (its outward normal there equals the canonical edge normal)
        self.edge_sign = (np.int8(2) * (a < b) - 1).reshape(-1, 3)
        key = np.minimum(a, b) * n_vert + np.maximum(a, b)
        del a, b
        order = np.argsort(key).astype(itype)
        starts = np.flatnonzero(np.diff(key[order], prepend=itype(-1)))
        starts = starts.astype(itype)
        size = np.diff(starts, append=itype(key.size))
        edge = np.minimum.reduceat(order, starts)       # each group's first
        is_first = np.zeros(key.size, dtype=bool)       # slot, then its id
        is_first[edge] = True
        edge = np.cumsum(is_first, dtype=itype)[edge] - 1
        self.tri_edges = np.empty((n_tri, 3), dtype=np.int32)
        self.tri_edges.ravel()[order] = np.repeat(edge, size)
        first = np.flatnonzero(is_first).astype(itype)
        last, count = np.empty_like(edge), np.empty_like(edge)
        last[edge] = np.maximum.reduceat(order, starts)
        count[edge] = size
        del is_first, order, starts, size, edge
        self.edge_vertices = np.stack(np.divmod(key[first], n_vert), 1,
                                      dtype=np.int32)
        del key
        if np.any(count > 2):
            e = int(np.argmax(count > 2))
            raise MeshStructureError(
                f"edge {tuple(self.edge_vertices[e].tolist())} shared by more "
                "than two triangles: "
                f"{np.nonzero((self.tri_edges == e).any(axis=1))[0].tolist()}")
        n_edge = count.size
        # the one or two triangles on each edge, -1 off the boundary
        self.edge_triangles = np.stack([first // 3, np.where(
            count == 2, last // 3, -1)], 1, dtype=np.int32)

        self.edge_on_boundary = count == 1
        n_bedges = np.bincount(self.edge_vertices[count == 1].ravel(),
                               minlength=n_vert)
        self.vertex_on_boundary = n_bedges > 0

        unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=n_vert)
                                == 0)
        if unused.size:
            raise MeshStructureError(f"unused vertices: {unused.tolist()}")
        if n_vert - n_edge + n_tri != 1:
            raise MeshStructureError(
                "triangulation is not a simply connected polygon "
                f"(Euler characteristic {n_vert - n_edge + n_tri} != 1)")
        if np.any(n_bedges > 2):
            v = int(np.argmax(n_bedges > 2))
            raise MeshStructureError(
                f"pinched vertex {v}: on {n_bedges[v]} boundary edges")

    def _build_geometry(self):
        """Signed areas, built before the topology and checked after it; a
        triangle's frame is made from its vertices where used (edge_frame)."""
        p = np.take(self.coords, self.tri_vertices, axis=0)     # (nT, 3, 2)
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        self.tri_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    # -- counts and element access --------------------------------------

    @property
    def num_vertices(self):
        return self.coords.shape[0]

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    @property
    def num_triangles(self):
        return self.tri_vertices.shape[0]

    @property
    def num_interior_vertices(self):
        return int(np.count_nonzero(~self.vertex_on_boundary))

    def boundary_vertices(self):
        return np.nonzero(self.vertex_on_boundary)[0]

    def boundary_edges(self):
        return np.nonzero(self.edge_on_boundary)[0]

    def __repr__(self):
        return (f"Mesh(#N={self.num_vertices}, #E={self.num_edges}, "
                f"#T={self.num_triangles})")


def dyadic_shape(D):
    """(Q, e) with ``D = 2**e * Q`` exactly for stacked vertex offsets D
    (..., 3, 2); e is the frexp exponent of the largest ``|D_i|``.  Equal Q
    means similar by a power of two, equal (Q, e) means equal D."""
    e = np.frexp(np.linalg.norm(D, axis=-1).max(axis=-1))[1]
    return np.ldexp(D, -e[..., None, None]), e


def _checked_vertices(coords, tri_vertices):
    """Coordinates and triples as contiguous float and int32 arrays,
    checked as :class:`Mesh` states."""
    coords, tris = np.asarray(coords, dtype=float), np.asarray(tri_vertices)
    if tris.dtype.kind not in "iu":     # not float or bool
        raise MeshStructureError("triangle vertex ids must be integers")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshStructureError("vertex coordinates must have shape (n, 2)")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshStructureError("triangle triples must have shape (m, 3)")
    if len(coords) + len(tris) > 2**31:     # #E = #N + #T - 1 ids in int32
        raise MeshStructureError("too many vertices and triangles for int32")
    if not np.all(np.isfinite(coords)):
        raise MeshStructureError("non-finite vertex coordinates")
    if tris.size and (tris.min() < 0 or tris.max() >= len(coords)):
        raise MeshStructureError("triangle references an invalid vertex id")
    return np.ascontiguousarray(coords), np.ascontiguousarray(tris, np.int32)


def mesh_from_arrays(vertex_coords, triangle_vertex_triples):
    """Build a mesh from vertex coordinates and counterclockwise
    vertex-index triples, checked as :class:`Mesh` states: a clockwise
    triangle is refused and named.  Each triangle's initial refinement
    edge is its longest edge, with ties broken by the smallest
    opposite-vertex id.
    """
    coords, tris = _checked_vertices(vertex_coords, triangle_vertex_triples)
    # squared length of local edge k, which joins local vertices k+1, k+2
    p = np.take(coords, tris, axis=0)
    len2 = np.sum((p[:, [1, 2, 0]] - p[:, [2, 0, 1]]) ** 2, axis=2)
    longest = len2 == len2.max(axis=1, keepdims=True)
    ref = np.argmin(np.where(longest, tris, np.iinfo(tris.dtype).max), axis=1)
    return Mesh(coords, tris, ref)


def nvb_refine(mesh, marked):
    """Bisect every marked triangle at least once, with recursive
    newest-vertex-bisection closure keeping the mesh conforming.

    A triangle t, turned so that slot 0 holds its newest vertex p0 and its
    refinement edge e = p1p2, ends a chain when its neighbour Y across e
    is missing or has e as refinement edge too (a pair, bisected together
    from the member of smaller cover); otherwise Y is bisected first.
    Only edges of the given mesh are bisected, so the chains are static.
    Sorted by cover (the smallest marked id whose chain passes t) and
    depth (t's steps to its chain end), the bisections come in the order
    of a depth-first closure over the marked ids, which numbers the new
    vertices and the children: [m, p0, p1] and [m, p2, p0] of t, then
    those of Y or of Y's child on e.  A marked chain that runs into a
    cycle raises :class:`MeshStructureError`.
    """
    marked = np.unique(np.asarray(
        marked if isinstance(marked, np.ndarray) else list(marked)))
    if marked.size == 0:
        return mesh
    if (marked.dtype.kind not in "iu" or marked[0] < 0  # not float or bool
            or marked[-1] >= mesh.num_triangles):
        raise MeshStructureError("marked set contains invalid triangle ids")

    n0, n_vert, ref0 = (mesh.num_triangles, mesh.num_vertices,
                        mesh.refinement_edge)
    verts = np.take_along_axis(mesh.tri_vertices,
                               (ref0[:, None] + np.arange(3)) % 3, 1)
    e = mesh.tri_edges[np.arange(n0), ref0]
    # the neighbour across e, -1 on the boundary: t is one of the edge's
    # one or two triangles
    y = mesh.edge_triangles[e].sum(axis=1) - np.arange(n0)
    pair = (y >= 0) & (e[y] == e)
    after = np.where(pair, -1, y)       # the next triangle on t's chain

    # walk the marked chains together, one step a pass: a walker stops
    # where a smaller id has been, so each triangle keeps its cover and
    # that walker's step there; a chain without a cycle ends within n0
    cover = np.full(n0, n0, dtype=np.int32)
    step = np.empty(n0, dtype=np.int32)
    walk = ids = marked.astype(np.int32)
    for s in range(n0):
        np.minimum.at(cover, walk, ids)
        lead = cover[walk] == ids
        walk, ids = walk[lead], ids[lead]
        step[walk] = s
        go = after[walk] >= 0
        walk, ids = after[walk[go]], ids[go]
        if not walk.size:
            break
    else:
        raise MeshStructureError("NVB closure failed to terminate")

    # bisection j splits t[j], a pair once, from its member of smaller
    # cover; within a cover, a later step is a smaller depth (int64 keys)
    t = np.flatnonzero(cover < n0)
    t = t[~pair[t] | (cover[t] < cover[y[t]])]
    t = t[np.argsort(cover[t].astype(np.int64) * n0 - step[t])]
    y, partner = y[t], pair[t]
    j_of = np.empty(n0, dtype=np.int32)     # the bisection that splits a
    j_of[t] = np.arange(t.size)             # given triangle
    j_of[y[partner]] = np.flatnonzero(partner)
    del cover, step, pair, after

    # t's first child; its neighbour's slots are Y's own for a pair, else
    # those of Y's child on e, [mY, Y0, Y1] when e is Y's p0p1 and
    # [mY, Y2, Y0] when it is p2p0, and that child is split in turn
    has_nb = y >= 0
    first = n0 + 2 * (np.cumsum(1 + has_nb) - 1 - has_nb)
    nb = verts[np.maximum(y, 0)]
    inner = np.flatnonzero(has_nb & ~partner)
    yi = y[inner]
    ji = j_of[yi]
    on_p2p0 = mesh.tri_edges[yi, (ref0[yi] + 1) % 3] == e[t[inner]]
    nb[inner] = np.take_along_axis(
        np.column_stack([n_vert + ji, verts[yi]]),
        np.where(on_p2p0[:, None], [0, 3, 1], [0, 1, 2]), 1)
    nb_dead = first[ji] + 2 * (t[ji] != yi) + on_p2p0
    del j_of, e

    # children [m, p0, p1], [m, p2, p0] of t and then of its neighbour,
    # written as [p1, m, p0] (refinement edge 1) and [m, p2, p0] (edge 0)
    split = np.empty((t.size, 2, 4), dtype=np.int32)   # m and the slots
    split[:, :, 0] = n_vert + np.arange(t.size)[:, None]
    split[:, 0, 1:], split[:, 1, 1:] = verts[t], nb
    del verts, nb
    coords = np.concatenate([mesh.coords, 0.5 * np.take(
        mesh.coords, split[:, 0, 2:], axis=0).sum(axis=1)])
    split = split[np.column_stack([np.ones_like(has_nb), has_nb])]
    kids = split[:, [[2, 0, 1], [0, 3, 1]]].reshape(-1, 3)
    keep = np.ones(n0 + len(kids), dtype=bool)
    keep[t] = keep[y[partner]] = keep[nb_dead] = False
    tris = np.concatenate([mesh.tri_vertices, kids])[keep]
    ref = np.concatenate([ref0, np.tile(np.int8([1, 0]), len(split))])[keep]
    del split, kids, keep
    return Mesh(coords, tris, ref)


def uniform_refine(mesh):
    """Two all-marked bisection passes: each triangle is split into four
    sons of a quarter of its area."""
    once = nvb_refine(mesh, range(mesh.num_triangles))
    return nvb_refine(once, range(once.num_triangles))


def mesh_to_text(mesh):
    """Plain-text dump: counts header, one vertex per line
    ``x y boundary_flag``, one triangle per line
    ``v0 v1 v2 refinement_edge``."""
    lines = [f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_triangles}"]
    lines += [f"{x:.17g} {y:.17g} {int(flag)}" for (x, y), flag in zip(
        mesh.coords.tolist(), mesh.vertex_on_boundary.tolist())]
    lines += [f"{a} {b} {c} {ref}" for (a, b, c), ref in zip(
        mesh.tri_vertices.tolist(), mesh.refinement_edge.tolist())]
    return "\n".join(lines) + "\n"


def unit_square_mesh():
    """The two-triangle unit square used by the smooth benchmark."""
    return mesh_from_arrays(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1, 2), (0, 2, 3)])

