"""Conforming triangular meshes with newest-vertex-bisection refinement.

Meshes are immutable after construction; refinement returns a new mesh.
Orientation conventions used throughout the package:

* triangle vertices are stored counterclockwise,
* local edge ``k`` of a triangle is the edge opposite local vertex ``k``,
* every global edge stores its endpoints as ``(v_lo, v_hi)`` with
  ``v_lo < v_hi``; its canonical tangent points from ``v_lo`` to ``v_hi``
  and its canonical normal is the tangent rotated by -90 degrees.
"""

import logging

import numpy as np

from .errors import MeshStructureError

logger = logging.getLogger(__name__)


def _rot_minus90(v):
    """Rotate 2-vectors by -90 degrees: (x, y) -> (y, -x)."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


class Mesh:
    """Conforming triangulation of a simply connected polygon.

    Construct through :func:`mesh_from_arrays`; the raw constructor assumes
    already-validated counterclockwise triangles and explicit refinement
    edges (the refinement code path).
    """

    def __init__(self, coords, tri_vertices, refinement_edge, generation):
        self.coords = np.ascontiguousarray(coords, dtype=float)
        self.tri_vertices = np.ascontiguousarray(tri_vertices, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)
        self.generation = np.ascontiguousarray(generation, dtype=np.int64)
        self._build_topology()
        self._build_geometry()

    # -- construction helpers -------------------------------------------

    def _build_topology(self):
        coords, tris = self.coords, self.tri_vertices
        n_vert = coords.shape[0]
        n_tri = tris.shape[0]
        if not np.all(np.isfinite(coords)):
            raise MeshStructureError("non-finite vertex coordinates")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= n_vert:
            raise MeshStructureError("triangle references an invalid vertex id")
        if np.any(tris[:, 0] == tris[:, 1]) or np.any(tris[:, 1] == tris[:, 2]) \
                or np.any(tris[:, 0] == tris[:, 2]):
            bad = [int(t) for t in range(n_tri)
                   if len(set(tris[t])) < 3]
            raise MeshStructureError(f"degenerate triangles (repeated vertex): {bad}")

        edge_lookup = {}
        edge_vertices = []
        edge_adjacent = []
        tri_edges = np.empty((n_tri, 3), dtype=np.int64)
        for t in range(n_tri):
            v = tris[t]
            for k in range(3):
                a, b = int(v[(k + 1) % 3]), int(v[(k + 2) % 3])
                key = (a, b) if a < b else (b, a)
                e = edge_lookup.get(key)
                if e is None:
                    e = len(edge_vertices)
                    edge_lookup[key] = e
                    edge_vertices.append(key)
                    edge_adjacent.append([t])
                else:
                    edge_adjacent[e].append(t)
                    if len(edge_adjacent[e]) > 2:
                        raise MeshStructureError(
                            f"edge {key} shared by more than two triangles: "
                            f"{edge_adjacent[e]}")
                tri_edges[t, k] = e

        self.edge_lookup = edge_lookup
        self.edge_vertices = np.array(edge_vertices, dtype=np.int64)
        self.tri_edges = tri_edges
        self.edge_adjacent = [tuple(a) for a in edge_adjacent]
        n_edge = len(edge_vertices)

        self.edge_on_boundary = np.array(
            [len(a) == 1 for a in edge_adjacent], dtype=bool)
        self.vertex_on_boundary = np.zeros(n_vert, dtype=bool)
        for e in np.nonzero(self.edge_on_boundary)[0]:
            self.vertex_on_boundary[self.edge_vertices[e]] = True

        used = np.zeros(n_vert, dtype=bool)
        used[tris] = True
        if not used.all():
            raise MeshStructureError(
                f"unused vertices: {np.nonzero(~used)[0].tolist()}")
        if n_vert - n_edge + n_tri != 1:
            raise MeshStructureError(
                "triangulation is not a simply connected polygon "
                f"(Euler characteristic {n_vert - n_edge + n_tri} != 1)")

        # triangles around each vertex
        patches = [[] for _ in range(n_vert)]
        for t in range(n_tri):
            for v in tris[t]:
                patches[v].append(t)
        self._vertex_tris = [tuple(p) for p in patches]

    def _build_geometry(self):
        coords, tris = self.coords, self.tri_vertices
        p = coords[tris]                               # (nT, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            bad = np.nonzero(signed <= 0.0)[0].tolist()
            raise MeshStructureError(
                f"triangles with nonpositive signed area: {bad}")
        self.tri_area = signed
        self.tri_centroid = p.mean(axis=1)
        side = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)  # (nT, 3)
        self.tri_diam = side.max(axis=1)
        self.shape_bound = float(np.max(self.tri_diam ** 2 / self.tri_area))

        ev = coords[self.edge_vertices]                # (nE, 2, 2)
        vec = ev[:, 1] - ev[:, 0]
        self.edge_length = np.linalg.norm(vec, axis=1)
        self.edge_tangent = vec / self.edge_length[:, None]
        self.edge_normal = _rot_minus90(self.edge_tangent)

        # s[t, k] = +1 when triangle t traverses local edge k from v_lo to
        # v_hi (its outward normal there equals the canonical edge normal)
        lo = self.edge_vertices[self.tri_edges, 0]     # (nT, 3)
        first = np.stack([tris[:, 1], tris[:, 2], tris[:, 0]], axis=1)
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

    def interior_vertices(self):
        return np.nonzero(~self.vertex_on_boundary)[0]

    def boundary_vertices(self):
        return np.nonzero(self.vertex_on_boundary)[0]

    def boundary_edges(self):
        return np.nonzero(self.edge_on_boundary)[0]

    def __repr__(self):
        return (f"Mesh(#N={self.num_vertices}, #E={self.num_edges}, "
                f"#T={self.num_triangles})")


def _seed_refinement_edges(coords, tris):
    """Initial refinement edge: longest edge, ties broken by the smallest
    opposite-vertex id."""
    p = coords[tris]
    # local edge k connects local vertices k+1, k+2
    len2 = np.stack([np.sum((p[:, (k + 1) % 3] - p[:, (k + 2) % 3]) ** 2, axis=1)
                     for k in range(3)], axis=1)
    ref = np.empty(tris.shape[0], dtype=np.int64)
    for t in range(tris.shape[0]):
        best = max(range(3), key=lambda k: (len2[t, k], -int(tris[t, k])))
        ref[t] = best
    return ref


def mesh_from_arrays(vertex_coords, triangle_vertex_triples):
    """Build a mesh from vertex coordinates and vertex-index triples.

    Clockwise triples are reoriented silently (with a log notice).  Each
    triangle's initial refinement edge is its longest edge, with ties
    broken by the smallest opposite-vertex id.
    """
    coords = np.ascontiguousarray(vertex_coords, dtype=float)
    tris = np.ascontiguousarray(triangle_vertex_triples, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshStructureError("vertex_coords must have shape (n, 2)")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshStructureError("triangle triples must have shape (m, 3)")
    if tris.size and (tris.min() < 0 or tris.max() >= coords.shape[0]):
        raise MeshStructureError("triangle references an invalid vertex id")

    p = coords[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flipped = np.nonzero(signed < 0.0)[0]
    if flipped.size:
        logger.info("reorienting %d clockwise triangle(s): %s",
                    flipped.size, flipped.tolist())
        tris = tris.copy()
        tris[flipped, 1], tris[flipped, 2] = tris[flipped, 2], tris[flipped, 1]

    ref = _seed_refinement_edges(coords, tris)
    gen = np.zeros(tris.shape[0], dtype=np.int64)
    return Mesh(coords, tris, ref, gen)


def nvb_refine(mesh, marked):
    """Bisect every marked triangle at least once, with recursive
    newest-vertex-bisection closure keeping the mesh conforming."""
    marked = set(int(t) for t in marked)
    if not marked:
        return mesh
    if not marked <= set(range(mesh.num_triangles)):
        raise MeshStructureError("marked set contains invalid triangle ids")

    verts = [tuple(c) for c in mesh.coords]
    tris = [list(v) for v in mesh.tri_vertices]
    ref = list(mesh.refinement_edge)
    gen = list(mesh.generation)
    alive = [True] * len(tris)
    edge_tris = {}
    for t, tv in enumerate(tris):
        for k in range(3):
            a, b = tv[(k + 1) % 3], tv[(k + 2) % 3]
            edge_tris.setdefault((min(a, b), max(a, b)), set()).add(t)
    midpoint = {}

    def ref_key(t):
        i = ref[t]
        a, b = tris[t][(i + 1) % 3], tris[t][(i + 2) % 3]
        return (min(a, b), max(a, b))

    def split(t, m):
        i = ref[t]
        p0, p1, p2 = tris[t][i], tris[t][(i + 1) % 3], tris[t][(i + 2) % 3]
        alive[t] = False
        for k in range(3):
            a, b = tris[t][(k + 1) % 3], tris[t][(k + 2) % 3]
            edge_tris[(min(a, b), max(a, b))].discard(t)
        for child, child_ref in (([p1, m, p0], 1), ([m, p2, p0], 0)):
            c = len(tris)
            tris.append(child)
            ref.append(child_ref)
            gen.append(gen[t] + 1)
            alive.append(True)
            for k in range(3):
                a, b = child[(k + 1) % 3], child[(k + 2) % 3]
                edge_tris.setdefault((min(a, b), max(a, b)), set()).add(c)

    budget = 200 * (len(tris) + len(marked))
    for t0 in sorted(marked):
        if not alive[t0]:
            continue
        stack = [t0]
        while stack:
            budget -= 1
            if budget <= 0:
                raise MeshStructureError("NVB closure failed to terminate")
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            key = ref_key(t)
            others = [s for s in edge_tris[key] if s != t and alive[s]]
            nb = others[0] if others else None
            if nb is not None and ref_key(nb) != key:
                stack.append(nb)
                continue
            m = midpoint.get(key)
            if m is None:
                m = len(verts)
                midpoint[key] = m
                pa, pb = verts[key[0]], verts[key[1]]
                verts.append((0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])))
            split(t, m)
            if nb is not None:
                split(nb, m)
            stack.pop()

    keep = [t for t in range(len(tris)) if alive[t]]
    coords = np.array(verts, dtype=float)
    return Mesh(coords,
                np.array([tris[t] for t in keep], dtype=np.int64),
                np.array([ref[t] for t in keep], dtype=np.int64),
                np.array([gen[t] for t in keep], dtype=np.int64))


def uniform_refine(mesh):
    """Two all-marked bisection passes: each triangle is split into four
    sons of a quarter of its area."""
    once = nvb_refine(mesh, range(mesh.num_triangles))
    return nvb_refine(once, range(once.num_triangles))


def vertex_patch(mesh, vertex):
    """Ids of all triangles whose closure contains the given vertex."""
    return set(mesh._vertex_tris[int(vertex)])


def mesh_to_text(mesh):
    """Plain-text dump: counts header, one vertex per line
    ``x y boundary_flag``, one triangle per line
    ``v0 v1 v2 refinement_edge``."""
    lines = [f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_triangles}"]
    for i in range(mesh.num_vertices):
        x, y = mesh.coords[i]
        flag = int(mesh.vertex_on_boundary[i])
        lines.append(f"{x:.17g} {y:.17g} {flag}")
    for t in range(mesh.num_triangles):
        v = mesh.tri_vertices[t]
        lines.append(f"{v[0]} {v[1]} {v[2]} {mesh.refinement_edge[t]}")
    return "\n".join(lines) + "\n"


def mesh_from_text(text):
    """Rebuild a mesh from :func:`mesh_to_text` output.

    Generations are not part of the format and restart at zero.
    """
    rows = [r for r in text.strip().splitlines() if r.strip()]
    n_vert, n_edge, n_tri = (int(x) for x in rows[0].split())
    coords = np.array([[float(x) for x in r.split()[:2]]
                       for r in rows[1:1 + n_vert]])
    body = [r.split() for r in rows[1 + n_vert:1 + n_vert + n_tri]]
    tris = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in body])
    ref = np.array([int(r[3]) for r in body])
    mesh = Mesh(coords, tris, ref, np.zeros(n_tri, dtype=np.int64))
    if mesh.num_edges != n_edge:
        raise MeshStructureError(
            f"edge count mismatch in mesh dump: header says {n_edge}, "
            f"rebuilt mesh has {mesh.num_edges}")
    return mesh


def unit_square_mesh():
    """The two-triangle unit square used by the smooth benchmark."""
    return mesh_from_arrays(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1, 2), (0, 2, 3)])


def reference_triangle_mesh():
    return mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
