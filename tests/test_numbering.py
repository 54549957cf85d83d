"""Property tests of the edge numbering and the DOF reduction on random
newest-vertex-bisection meshes of the unit square and the Z-shape."""

from hypothesis import given, settings, strategies as st
import numpy as np

from platedpg.mesh import nvb_refine, unit_square_mesh, vertex_patch
from platedpg.problems import zshape_mesh
from platedpg.spaces import (build_dofmap, interpolate_uhat_bc,
                             simply_supported_bc)


@st.composite
def refined_meshes(draw):
    """A square or Z-shape mesh after up to four rounds of random marking."""
    mesh = draw(st.sampled_from([unit_square_mesh, zshape_mesh]))()
    for _ in range(draw(st.integers(0, 4))):
        n = mesh.num_triangles
        marked = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=max(1, n // 3)))
        mesh = nvb_refine(mesh, marked)
    return mesh


def clamped_bc(mesh):
    return interpolate_uhat_bc(lambda p: p[:, 0] - 2.0 * p[:, 1],
                               lambda p: np.tile([0.5, -1.5], (len(p), 1)),
                               mesh)


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_edges_numbered_in_first_encounter_order(mesh):
    _, first = np.unique(mesh.tri_edges.ravel(), return_index=True)
    assert np.all(np.diff(first) > 0)


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_edge_vertices_are_sorted_ends_of_every_reference(mesh):
    tris = mesh.tri_vertices
    for k in range(3):
        ends = np.sort(tris[:, [(k + 1) % 3, (k + 2) % 3]], axis=1)
        np.testing.assert_array_equal(
            mesh.edge_vertices[mesh.tri_edges[:, k]], ends)


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_boundary_edges_are_those_referenced_once(mesh):
    refs = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges)
    assert set(refs.tolist()) <= {1, 2}
    np.testing.assert_array_equal(mesh.edge_on_boundary, refs == 1)
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[mesh.edge_vertices[refs == 1]] = True
    np.testing.assert_array_equal(mesh.vertex_on_boundary, on_boundary)


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_vertex_patch_matches_brute_force(mesh):
    for v in range(mesh.num_vertices):
        brute = {t for t in range(mesh.num_triangles)
                 if v in mesh.tri_vertices[t]}
        assert vertex_patch(mesh, v) == brute


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_clamped_free_dimension(mesh):
    dm = build_dofmap(mesh, clamped_bc(mesh))
    assert dm.free_dim == (7 * mesh.num_triangles
                           + 2 * mesh.num_interior_vertices
                           + 2 * mesh.num_edges)
    assert dm.free_dim == 4 * mesh.num_triangles + dm.n_uhat_free \
        + dm.n_qhat_free


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes(), clamped=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_recovered_vector_meets_all_constraints(mesh, clamped, seed):
    bc = clamped_bc(mesh) if clamped else simply_supported_bc(mesh)
    dm = build_dofmap(mesh, bc)
    x = dm.recover_full(np.random.default_rng(seed).normal(size=dm.free_dim))
    tol = 1e-12 * max(1.0, np.abs(x).max())
    for c in bc.constraints:
        if c.kind == "vertex":
            block = x[dm.iuhat(c.index, 0) + np.arange(3)]
        else:
            block = x[[dm.ialpha(c.index), dm.ibeta(c.index)]]
        assert abs(np.dot(c.coeffs, block) - c.value) <= tol
    gamma = x[dm.off_gamma:].reshape(-1, 3)
    sums = np.zeros(mesh.num_vertices)
    np.add.at(sums, mesh.tri_vertices, gamma)
    assert np.abs(sums[mesh.interior_vertices()]).max(initial=0.0) <= tol
