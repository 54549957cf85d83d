import hashlib

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from conftest import reference_triangle_mesh, shape_ratio, vertex_patch
from numbering_oracles import unique_topology

from platedpg.errors import MeshStructureError
from platedpg.mesh import (Mesh, edge_frame, mesh_from_arrays, mesh_to_text,
                           nvb_refine, uniform_refine, unit_square_mesh)
from platedpg.problems import zshape_mesh
from platedpg.spaces import ElementGeometry


def test_unit_square_counts():
    m = unit_square_mesh()
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (4, 5, 2)
    assert np.count_nonzero(~m.edge_on_boundary) == 1


def test_reference_triangle_counts():
    m = reference_triangle_mesh()
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (3, 3, 1)
    assert m.edge_on_boundary.all()


def test_zshape_euler():
    m = zshape_mesh()
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.num_triangles == 5
    np.testing.assert_allclose(m.tri_area, 0.5)


def test_clockwise_input_is_refused():
    """Triples must be counterclockwise; a clockwise one is not flipped
    but refused, and named."""
    with pytest.raises(MeshStructureError, match=(
            r"triangles with nonpositive signed area: \[1\]$")):
        mesh_from_arrays([(0, 0), (1, 0), (1, 1), (0, 1)],
                         [(0, 1, 2), (0, 3, 2)])


@pytest.mark.filterwarnings("error")
def test_invalid_vertex_reference():
    """A triangle on a vertex id that does not exist, or on a vertex with
    a non-finite coordinate, is refused with the typed error.  The
    coordinates are checked before the edge lengths are computed: with
    vertex 0 at infinity that computation subtracts inf from inf, and its
    RuntimeWarning would come first."""
    with pytest.raises(MeshStructureError):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(MeshStructureError, match="non-finite"):
            mesh_from_arrays([(bad, 0), (1, 0), (0, 1)], [(0, 1, 2)])


@pytest.mark.parametrize("tris", [[(0, 1, 2.7)], np.array([[0.0, 1.0, 2.0]]),
                                  np.array([[True, False, True]])],
                         ids=["float-tuple", "float-array", "bool-array"])
def test_non_integer_vertex_ids_rejected(tris):
    with pytest.raises(MeshStructureError, match="integers"):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], tris)


@pytest.mark.parametrize("tris", [[(0, 1, 2)], np.array([[0, 1, 2]]),
                                  np.array([[0, 1, 2]], dtype=np.uint8)],
                         ids=["int-tuple", "int64-array", "uint8-array"])
def test_integer_vertex_ids_accepted(tris):
    m = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], tris)
    np.testing.assert_array_equal(m.tri_vertices, [[0, 1, 2]])


def test_edge_shared_three_times_rejected():
    coords = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)]
    tris = [(0, 1, 2), (1, 3, 2), (0, 1, 4), (0, 1, 3)]
    with pytest.raises(MeshStructureError, match=(
            r"edge \(0, 1\) shared by more than two triangles: \[0, 2, 3\]")):
        mesh_from_arrays(coords, tris)


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
HALVES = [(0, 1, 2), (0, 2, 3)]
BAD_REF = r"refinement edges in \{0, 1, 2\}, one per triangle, expected"
BAD_COORDS = r"^vertex coordinates must have shape \(n, 2\)$"


@pytest.mark.parametrize("coords, tris, ref, match", [
    (SQUARE, HALVES, [0, 7], BAD_REF),
    (SQUARE, HALVES, [0, 3], BAD_REF),
    (SQUARE, HALVES, [0, -1], BAD_REF),
    (SQUARE, HALVES, [0], BAD_REF),
    (SQUARE, HALVES, [0, 1, 2], BAD_REF),
    (SQUARE, HALVES, [[0, 1]], BAD_REF),
    (SQUARE, HALVES, [0.9, 1.5], BAD_REF),
    (SQUARE, HALVES, [True, False], BAD_REF),
    (SQUARE, [(0, 1, 2.7), (0, 2, 3)], [0, 1], "integers"),
    (SQUARE, [(0, 1, 2, 3), (0, 2, 3, 1)], [0, 1], r"shape \(m, 3\)"),
    (SQUARE, [(0, 1), (0, 2)], [0, 1], r"shape \(m, 3\)"),
    (np.pad(SQUARE, ((0, 0), (0, 1))), HALVES, [0, 1], BAD_COORDS),
    (np.ravel(SQUARE), HALVES, [0, 1], BAD_COORDS),
], ids=["edge-7", "edge-3", "edge-minus-1", "edge-short", "edge-long",
        "edge-2d", "edge-float", "edge-bool", "vertex-id-float",
        "triples-width-4", "triples-width-2", "coords-width-3",
        "coords-flat"])
def test_raw_constructor_rejects_malformed_refinement_data(coords, tris, ref,
                                                           match):
    """The raw constructor checks every array it is given, by the checks
    ``mesh_from_arrays`` makes, with the same messages.  The malformed
    arrays here used to construct, refine as another edge or vertex
    (float ids and edges were truncated), fail inside ``nvb_refine`` or
    the topology with an IndexError, lose a triangle in the dump, or be
    named as unused vertices."""
    with pytest.raises(MeshStructureError, match=match):
        Mesh(coords, tris, ref)
    if match != BAD_REF:
        with pytest.raises(MeshStructureError, match=match):
            mesh_from_arrays(coords, tris)


@settings(max_examples=40, deadline=None)
@given(initial=st.sampled_from([unit_square_mesh, zshape_mesh]),
       rounds=st.integers(0, 4), shuffle=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_topology_matches_unique_construction(initial, rounds, shuffle, seed):
    """On randomly refined meshes, with the triangles in their own order
    or shuffled, the edge numbering, the edges' vertices and triangles and
    the boundary flags are bit for bit those of one ``np.unique`` over the
    vertex pairs."""
    rng = np.random.default_rng(seed)
    m = initial()
    for _ in range(rounds):
        n = m.num_triangles
        m = nvb_refine(m, rng.choice(n, size=max(1, n // 4), replace=False))
    if shuffle:
        p = rng.permutation(m.num_triangles)
        m = Mesh(m.coords, m.tri_vertices[p], m.refinement_edge[p])
    for name, want in unique_topology(m.tri_vertices,
                                      m.num_vertices).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_pinched_vertex_rejected():
    """Two triangles that share only a vertex pass the Euler check; the
    vertex on four boundary edges is named."""
    with pytest.raises(MeshStructureError, match="pinched vertex 0"):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
                         [(0, 1, 2), (0, 3, 4)])


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshStructureError):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])


def test_edge_orientation_conventions():
    m = uniform_refine(unit_square_mesh())
    lo, hi = m.edge_vertices[:, 0], m.edge_vertices[:, 1]
    assert (lo < hi).all()
    length, tangent, normal = edge_frame(m.coords[lo], m.coords[hi])
    np.testing.assert_allclose(length[:, None] * tangent,
                               m.coords[hi] - m.coords[lo], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(tangent, axis=1), 1.0,
                               atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0,
                               atol=1e-14)
    rot = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    np.testing.assert_allclose(normal, rot, atol=1e-15)


def test_interior_edge_has_one_plus_side():
    m = uniform_refine(unit_square_mesh())
    for e in range(m.num_edges):
        if m.edge_on_boundary[e]:
            continue
        signs = [int(m.edge_sign[t, k])
                 for t, k in zip(*np.nonzero(m.tri_edges == e))]
        assert sorted(signs) == [-1, 1]


def test_nvb_single_triangle():
    m = nvb_refine(reference_triangle_mesh(), {0})
    assert m.num_triangles == 2
    # new vertex at midpoint of the longest edge (the hypotenuse)
    assert any(np.allclose(c, (0.5, 0.5)) for c in m.coords)


def test_nvb_closure_on_neighbor():
    m = nvb_refine(unit_square_mesh(), {0})
    assert m.num_triangles == 4
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_uniform_refine_counts_and_areas():
    sq = uniform_refine(unit_square_mesh())
    assert sq.num_triangles == 8
    np.testing.assert_allclose(sq.tri_area, 1.0 / 8.0)
    ref = uniform_refine(reference_triangle_mesh())
    assert ref.num_triangles == 4
    np.testing.assert_allclose(ref.tri_area, 1.0 / 8.0)
    assert uniform_refine(sq).num_triangles == 32


def test_refinement_preserves_total_area():
    rng = np.random.default_rng(3)
    m = unit_square_mesh()
    for _ in range(6):
        marked = set(rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 3),
                                replace=False).tolist())
        m = nvb_refine(m, marked)
        np.testing.assert_allclose(m.tri_area.sum(), 1.0, rtol=1e-13)


def _has_hanging_vertex(mesh):
    for e in range(mesh.num_edges):
        a, b = mesh.coords[mesh.edge_vertices[e]]
        for v in range(mesh.num_vertices):
            if v in mesh.edge_vertices[e]:
                continue
            p = mesh.coords[v]
            t = np.dot(p - a, b - a) / np.dot(b - a, b - a)
            if 1e-12 < t < 1 - 1e-12:
                foot = a + t * (b - a)
                if np.linalg.norm(p - foot) < 1e-12:
                    return True
    return False


def test_random_adaptive_refinement_invariants():
    rng = np.random.default_rng(7)
    m = unit_square_mesh()
    bound0 = shape_ratio(m)
    for _ in range(10):
        marked = set(rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 4),
                                replace=False).tolist())
        m = nvb_refine(m, marked)
        assert m.num_vertices - m.num_edges + m.num_triangles == 1
        assert shape_ratio(m) <= 10.0 * bound0
    assert not _has_hanging_vertex(m)


def test_interior_patch_is_closed_fan():
    m = uniform_refine(unit_square_mesh())
    for v in np.flatnonzero(~m.vertex_on_boundary):
        patch = vertex_patch(m, v)
        # every edge at v is shared by exactly two patch triangles
        edges_at_v = [e for e in range(m.num_edges)
                      if v in m.edge_vertices[e]]
        for e in edges_at_v:
            adj = set(np.nonzero((m.tri_edges == e).any(axis=1))[0].tolist())
            assert len(adj & patch) == 2


def test_dump_header_counts():
    m = unit_square_mesh()
    header = mesh_to_text(m).splitlines()[0]
    assert header == "4 5 2"


@settings(max_examples=30, deadline=None)
@given(initial=st.sampled_from([unit_square_mesh, zshape_mesh]),
       rounds=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_dump_writes_every_vertex_and_triangle_exactly(initial, rounds, seed):
    """The dump of an NVB mesh, refined from a randomly turned, scaled and
    shifted initial mesh (so that coordinates need all 17 digits), holds
    the counts, every coordinate bit for bit with its boundary flag, and
    every triangle with its refinement edge."""
    rng = np.random.default_rng(seed)
    m = initial()
    angle = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    turned = m.coords @ np.array([[c, s], [-s, c]]) * rng.uniform(0.1, 10.0)
    m = mesh_from_arrays(turned + rng.uniform(-5, 5, 2), m.tri_vertices)
    for _ in range(rounds):
        n = m.num_triangles
        m = nvb_refine(m, rng.choice(n, size=rng.integers(1, n + 1),
                                     replace=False))
    lines = mesh_to_text(m).splitlines()
    n_vert, n_tri = m.num_vertices, m.num_triangles
    assert len(lines) == 1 + n_vert + n_tri
    assert [int(x) for x in lines[0].split()] == [n_vert, m.num_edges, n_tri]
    vertices = [line.split() for line in lines[1:1 + n_vert]]
    assert all(len(v) == 3 for v in vertices)
    coords = np.array([[float(x), float(y)] for x, y, _ in vertices])
    np.testing.assert_array_equal(coords.view(np.int64),
                                  m.coords.view(np.int64))
    np.testing.assert_array_equal([int(f) for _, _, f in vertices],
                                  m.vertex_on_boundary.astype(int))
    triangles = [[int(x) for x in line.split()]
                 for line in lines[1 + n_vert:]]
    np.testing.assert_array_equal(
        triangles, np.column_stack([m.tri_vertices, m.refinement_edge]))


def test_refinement_edge_seeding_longest_edge():
    m = unit_square_mesh()
    for t in range(2):
        k = m.refinement_edge[t]
        lengths = ElementGeometry(m, t).length
        assert lengths[k] == lengths.max()
    # local edges 0 and 1 tie as the longest: the one opposite the smaller
    # vertex id wins, whatever its local position
    coords = [(0.0, 0.0), (2.0, 0.0), (1.0, 3.0)]
    assert mesh_from_arrays(coords, [(0, 1, 2)]).refinement_edge[0] == 0
    assert mesh_from_arrays(coords, [(1, 2, 0)]).refinement_edge[0] == 2


def test_nvb_closure_cycle_raises_typed_error():
    """Refinement edges that chase each other around a vertex never close;
    the closure budget turns that into a MeshStructureError."""
    ring = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    coords = np.array([(0.0, 0.0)] + ring)
    tris = np.array([(0, 1 + i, 1 + (i + 1) % 4) for i in range(4)])
    # local edge 1 of triangle i is the spoke it shares with triangle i+1
    mesh = Mesh(coords, tris, np.ones(4, dtype=np.int64))
    with pytest.raises(MeshStructureError, match="terminate"):
        nvb_refine(mesh, [0])


def test_nvb_accepts_any_iterable_of_ids_and_rejects_invalid_ones():
    m = unit_square_mesh()
    expected = nvb_refine(m, [1, 0])
    for marked in ({0, 1}, range(2), np.array([1, 0, 1]), (0, 1)):
        got = nvb_refine(m, marked)
        np.testing.assert_array_equal(got.tri_vertices, expected.tri_vertices)
        np.testing.assert_array_equal(got.coords, expected.coords)
    for empty in (set(), range(0), np.array([], dtype=np.int64), []):
        assert nvb_refine(m, empty) is m
    for bad in ({-1}, [m.num_triangles], np.array([0, -1]), range(3)):
        with pytest.raises(MeshStructureError, match="invalid triangle ids"):
            nvb_refine(m, bad)


@pytest.mark.parametrize("bad", [[0.5], np.array([1.5, 0.0]), [1.0],
                                 [False, True], np.array([True, True])])
def test_nvb_refuses_non_integer_and_boolean_ids(bad):
    """A float id would be truncated and a boolean mask read as the ids 0
    and 1; both are refused like an id out of range."""
    with pytest.raises(MeshStructureError, match="invalid triangle ids"):
        nvb_refine(unit_square_mesh(), bad)


@pytest.mark.parametrize("uniform, rounds, counts, pinned", [
    (1, 5, (136, 82), {
        "coords": "197b8a4bc3901ebda670d8dc3b492142"
                  "b8e5107d72141f0847f44a9660f75be9",
        "tri_vertices": "c73ef7ce5639fc2dad2280ba8abac9a2"
                        "40fb155dcb6dc5ec648a12c39ecbac4a",
        "refinement_edge": "464a9acfb01d5cb7d09a33a4cf9cc497"
                           "02435c9b2a69ff933a11501e5fc232fd"}),
    (3, 8, (7396, 3781), {
        "coords": "878e5de95577f1033e85fee5dce0fc7b"
                  "f4c682a5357df87b37dba3e8e34546eb",
        "tri_vertices": "3f6090823cf564cf61bdfe0f30fdc26e"
                        "4b05ed132ed19906dd58051ed97e262d",
        "refinement_edge": "aa26c5d18773200e26a7dc6f6f690fa6"
                           "0fdcaa1c1dd50a63ee9a8fc5eb27fd91"}),
], ids=["5-rounds", "8-rounds-deep"])
def test_nvb_triangle_and_vertex_order_pinned(uniform, rounds, counts,
                                              pinned):
    """Seeded rounds of 20 % random marking from a uniformly refined
    Z-shape give a mesh whose bytes are pinned: the benchmark marks random
    triangle ids, so reordering children or new vertices changes its
    meshes.  The deeper case grows to thousands of triangles, where
    closure chains run long."""
    rng = np.random.default_rng(0)
    m = zshape_mesh()
    for _ in range(uniform):
        m = uniform_refine(m)
    for _ in range(rounds):
        n = m.num_triangles
        m = nvb_refine(m, rng.choice(n, size=round(0.2 * n), replace=False))
    assert (m.num_triangles, m.num_vertices) == counts
    digests = {name: hashlib.sha256(getattr(m, name).tobytes()).hexdigest()
               for name in ("coords", "tri_vertices", "refinement_edge")}
    assert digests == pinned
