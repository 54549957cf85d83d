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

from array import array

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
    """

    def __init__(self, coords, tri_vertices, refinement_edge):
        self.coords, self.tri_vertices = _checked_vertices(coords,
                                                           tri_vertices)
        ref = np.asarray(refinement_edge)
        if (ref.dtype.kind not in "iu" or ref.shape != (self.num_triangles,)
                or ref.min(initial=0) < 0 or ref.max(initial=0) > 2):
            raise MeshStructureError("refinement edges in {0, 1, 2}, one per "
                                     "triangle, expected")
        self.refinement_edge = np.ascontiguousarray(ref, dtype=np.int64)
        self._build_topology()
        self._build_geometry()

    # -- construction helpers -------------------------------------------

    def _build_topology(self):
        coords, tris = self.coords, self.tri_vertices
        n_vert, n_tri = len(coords), len(tris)
        degenerate = np.flatnonzero((tris == np.roll(tris, 1, 1)).any(axis=1))
        if degenerate.size:
            raise MeshStructureError("degenerate triangles (repeated vertex): "
                                     f"{degenerate.tolist()}")

        # local edge k joins local vertices k+1 and k+2; edges are numbered
        # in the order they are first met, triangle by triangle, local edge
        # k.  One stable sort of the slots by vertex pair puts each edge's
        # slots together in slot order; the first slots of the groups, in
        # slot order, are the edges.
        ends = np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]]).reshape(-1, 2)
        key = ends[:, 0] * n_vert + ends[:, 1]
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        size = np.diff(starts, append=key.size)
        is_first = np.zeros(key.size, dtype=bool)
        is_first[order[starts]] = True
        edge = (np.cumsum(is_first) - 1)[order[starts]]   # each group's
        self.tri_edges = np.empty((n_tri, 3), dtype=np.int64)
        np.put(self.tri_edges, order, np.repeat(edge, size))
        first = np.flatnonzero(is_first)
        last, count = np.empty_like(first), np.empty_like(first)
        last[edge] = order[starts + size - 1]
        count[edge] = size
        self.edge_vertices = ends[first]
        if np.any(count > 2):
            e = int(np.argmax(count > 2))
            raise MeshStructureError(
                f"edge {tuple(self.edge_vertices[e].tolist())} shared by more "
                "than two triangles: "
                f"{np.nonzero((self.tri_edges == e).any(axis=1))[0].tolist()}")
        n_edge = count.size
        # the one or two triangles on each edge, -1 off the boundary
        self.edge_triangles = np.stack(
            [first // 3, np.where(count == 2, last // 3, -1)], axis=1)

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
        """Signed areas, checked positive, and edge signs; a triangle's
        frame is made from its vertices where it is used (edge_frame)."""
        p = self.coords[self.tri_vertices]             # (nT, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.tri_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bad = np.nonzero(self.tri_area <= 0.0)[0]
        if bad.size:
            raise MeshStructureError(
                f"triangles with nonpositive signed area: {bad.tolist()}")
        # s[t, k] = +1 when triangle t traverses local edge k from v_lo to
        # v_hi (its outward normal there equals the canonical edge normal)
        first = self.tri_vertices[:, [1, 2, 0]]
        lo = self.edge_vertices[self.tri_edges, 0]     # (nT, 3)
        self.edge_sign = np.where(first == lo, 1, -1).astype(np.int8)

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
    """Coordinates and triples as contiguous float and int64 arrays,
    checked as :class:`Mesh` states."""
    coords = np.ascontiguousarray(coords, dtype=float)
    tris = np.asarray(tri_vertices)
    if tris.dtype.kind not in "iu":     # not float or bool
        raise MeshStructureError("triangle vertex ids must be integers")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshStructureError("vertex coordinates must have shape (n, 2)")
    if not np.all(np.isfinite(coords)):
        raise MeshStructureError("non-finite vertex coordinates")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshStructureError("triangle triples must have shape (m, 3)")
    if tris.size and (tris.min() < 0 or tris.max() >= len(coords)):
        raise MeshStructureError("triangle references an invalid vertex id")
    return coords, np.ascontiguousarray(tris, dtype=np.int64)


def mesh_from_arrays(vertex_coords, triangle_vertex_triples):
    """Build a mesh from vertex coordinates and counterclockwise
    vertex-index triples, checked as :class:`Mesh` states: a clockwise
    triangle is refused and named.  Each triangle's initial refinement
    edge is its longest edge, with ties broken by the smallest
    opposite-vertex id.
    """
    coords, tris = _checked_vertices(vertex_coords, triangle_vertex_triples)
    # squared length of local edge k, which joins local vertices k+1, k+2
    p = coords[tris]
    len2 = np.sum((p[:, [1, 2, 0]] - p[:, [2, 0, 1]]) ** 2, axis=2)
    longest = len2 == len2.max(axis=1, keepdims=True)
    ref = np.argmin(np.where(longest, tris, np.iinfo(np.int64).max), axis=1)
    return Mesh(coords, tris, ref)


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
    verts, edges, side0, side1 = (array("q", a.tobytes()) for a in (
        np.take_along_axis(mesh.tri_vertices, turn, 1),
        np.take_along_axis(mesh.tri_edges, turn, 1),
        *mesh.edge_triangles.T))
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

