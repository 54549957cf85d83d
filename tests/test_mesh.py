import numpy as np
import pytest

from platedpg.errors import MeshStructureError
from platedpg.mesh import (mesh_from_arrays, mesh_from_text,
                           mesh_to_text, nvb_refine, reference_triangle_mesh,
                           uniform_refine, unit_square_mesh, vertex_patch)


def test_unit_square_counts():
    m = unit_square_mesh()
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (4, 5, 2)
    assert np.count_nonzero(~m.edge_on_boundary) == 1


def test_reference_triangle_counts():
    m = reference_triangle_mesh()
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (3, 3, 1)
    assert m.edge_on_boundary.all()


def test_zshape_euler():
    from platedpg.problems import zshape_mesh
    m = zshape_mesh()
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.num_triangles == 5
    np.testing.assert_allclose(m.tri_area, 0.5)


def test_clockwise_input_is_reoriented():
    m = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    assert m.tri_area[0] > 0


def test_invalid_vertex_reference():
    with pytest.raises(MeshStructureError):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])


def test_edge_shared_three_times_rejected():
    coords = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)]
    tris = [(0, 1, 2), (1, 3, 2), (0, 1, 4), (0, 1, 3)]
    with pytest.raises(MeshStructureError):
        mesh_from_arrays(coords, tris)


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshStructureError):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])


def test_edge_orientation_conventions():
    m = uniform_refine(unit_square_mesh())
    lo, hi = m.edge_vertices[:, 0], m.edge_vertices[:, 1]
    assert (lo < hi).all()
    np.testing.assert_allclose(np.linalg.norm(m.edge_tangent, axis=1), 1.0,
                               atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(m.edge_normal, axis=1), 1.0,
                               atol=1e-14)
    rot = np.stack([m.edge_tangent[:, 1], -m.edge_tangent[:, 0]], axis=1)
    np.testing.assert_allclose(m.edge_normal, rot, atol=1e-15)


def test_interior_edge_has_one_plus_side():
    m = uniform_refine(unit_square_mesh())
    for e in range(m.num_edges):
        if m.edge_on_boundary[e]:
            continue
        signs = []
        for t in m.edge_adjacent[e]:
            k = int(np.nonzero(m.tri_edges[t] == e)[0][0])
            signs.append(int(m.edge_sign[t, k]))
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


def test_generation_increments():
    m = unit_square_mesh()
    m2 = nvb_refine(m, {0})
    assert m2.generation.max() == 1
    m3 = uniform_refine(m2)
    assert m3.generation.max() == 3


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
    bound0 = m.shape_bound
    for _ in range(10):
        marked = set(rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 4),
                                replace=False).tolist())
        m = nvb_refine(m, marked)
        assert m.num_vertices - m.num_edges + m.num_triangles == 1
        assert m.shape_bound <= 10.0 * bound0
    assert not _has_hanging_vertex(m)


def test_vertex_patch():
    m = unit_square_mesh()
    assert vertex_patch(m, 0) == {0, 1}
    assert vertex_patch(m, 1) == {0}
    m2 = uniform_refine(m)
    for v in range(m2.num_vertices):
        brute = {t for t in range(m2.num_triangles)
                 if v in m2.tri_vertices[t]}
        assert vertex_patch(m2, v) == brute


def test_interior_patch_is_closed_fan():
    m = uniform_refine(unit_square_mesh())
    for v in m.interior_vertices():
        patch = vertex_patch(m, v)
        # every edge at v is shared by exactly two patch triangles
        edges_at_v = [e for e in range(m.num_edges)
                      if v in m.edge_vertices[e]]
        for e in edges_at_v:
            adj = set(m.edge_adjacent[e])
            assert len(adj & patch) == 2


def test_text_dump_roundtrip():
    m = nvb_refine(uniform_refine(unit_square_mesh()), {0, 3})
    text = mesh_to_text(m)
    m2 = mesh_from_text(text)
    np.testing.assert_array_equal(m.tri_vertices, m2.tri_vertices)
    np.testing.assert_array_equal(m.refinement_edge, m2.refinement_edge)
    np.testing.assert_array_equal(m.coords, m2.coords)
    np.testing.assert_array_equal(m.vertex_on_boundary, m2.vertex_on_boundary)
    assert mesh_to_text(m2) == text


def test_dump_header_counts():
    m = unit_square_mesh()
    header = mesh_to_text(m).splitlines()[0]
    assert header == "4 5 2"


def test_refinement_edge_seeding_longest_edge():
    m = unit_square_mesh()
    for t in range(2):
        k = m.refinement_edge[t]
        lengths = m.edge_length[m.tri_edges[t]]
        assert lengths[k] == lengths.max()


def test_nvb_closure_cycle_raises_typed_error():
    """Refinement edges that chase each other around a vertex never close;
    the closure budget turns that into a MeshStructureError."""
    from platedpg.mesh import Mesh
    ring = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    coords = np.array([(0.0, 0.0)] + ring)
    tris = np.array([(0, 1 + i, 1 + (i + 1) % 4) for i in range(4)])
    # local edge 1 of triangle i is the spoke it shares with triangle i+1
    mesh = Mesh(coords, tris, np.ones(4, dtype=np.int64),
                np.zeros(4, dtype=np.int64))
    with pytest.raises(MeshStructureError, match="terminate"):
        nvb_refine(mesh, [0])
