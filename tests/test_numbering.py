"""Property tests of the edge numbering, of newest-vertex bisection, of
the boundary-condition builders and of the DOF reduction on random
newest-vertex-bisection meshes of the unit square and the Z-shape."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from platedpg.mesh import (edge_frame, mesh_from_arrays, nvb_refine,
                           unit_square_mesh)
from platedpg.problems import builtin_zshape_problem, zshape_mesh
from platedpg.spaces import (ElementGeometry, build_dofmap,
                             interpolate_uhat_bc, simply_supported_bc)
import bc_oracles
from conftest import shape_ratio


@st.composite
def refined_meshes(draw, initials=(unit_square_mesh, zshape_mesh)):
    """A square or Z-shape mesh (one of ``initials``) after up to four
    rounds of random marking."""
    mesh = draw(st.sampled_from(initials))()
    for _ in range(draw(st.integers(0, 4))):
        n = mesh.num_triangles
        marked = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=max(1, n // 3)))
        mesh = nvb_refine(mesh, marked)
    return mesh


@st.composite
def refinement_steps(draw):
    """(initial mesh, mesh, marked ids, refined mesh): a square or Z-shape
    mesh after up to three rounds of random marking, then one more."""
    initial = draw(st.sampled_from([unit_square_mesh, zshape_mesh]))()
    mesh = initial
    for _ in range(draw(st.integers(0, 3))):
        marked = draw(st.lists(st.integers(0, mesh.num_triangles - 1),
                               min_size=1))
        mesh = nvb_refine(mesh, marked)
    marked = draw(st.lists(st.integers(0, mesh.num_triangles - 1),
                           min_size=1))
    return initial, mesh, marked, nvb_refine(mesh, marked)


def clamped_bc(mesh):
    return interpolate_uhat_bc(
        lambda p: (p[:, 0] - 2.0 * p[:, 1], np.tile([0.5, -1.5], (len(p), 1)),
                   np.zeros((len(p), 2, 2))), mesh)


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
def test_edge_triangles_match_brute_force(mesh):
    for e in range(mesh.num_edges):
        on = np.nonzero((mesh.tri_edges == e).any(axis=1))[0].tolist()
        assert mesh.edge_triangles[e].tolist() == (on + [-1])[:2]


@settings(max_examples=30, deadline=None)
@given(step=refinement_steps())
def test_marked_triangles_are_bisected(step):
    _, mesh, marked, refined = step
    before = {tuple(sorted(v)) for v in mesh.tri_vertices[marked].tolist()}
    after = {tuple(sorted(v)) for v in refined.tri_vertices.tolist()}
    assert not before & after
    # every new vertex halves an edge of the mesh it was refined from
    ends = mesh.coords[mesh.edge_vertices]
    midpoints = {tuple(p) for p in (0.5 * ends.sum(axis=1)).tolist()}
    assert {tuple(p) for p in refined.coords[mesh.num_vertices:].tolist()} \
        <= midpoints
    np.testing.assert_array_equal(refined.coords[:mesh.num_vertices],
                                  mesh.coords)


@settings(max_examples=30, deadline=None)
@given(step=refinement_steps())
def test_generation_counts_bisections_from_parent(step):
    """Each triangle lies in one triangle of the mesh it was refined from,
    its parent; the generation grows by the number of halvings between
    them, and is the parent's when the triangle is kept."""
    _, mesh, _, refined = step
    # barycentric coordinates of every new centroid in every old triangle
    p = mesh.coords[mesh.tri_vertices]                     # (nT, 3, 2)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    centroid = refined.coords[refined.tri_vertices].mean(axis=1)
    rel = centroid[:, None, :] - p[None, :, 0]
    lam = np.linalg.solve(jac[None], rel[..., None])[..., 0]
    inside = (lam.min(axis=2) > 1e-9) & (lam.sum(axis=2) < 1.0 - 1e-9)
    assert np.all(inside.sum(axis=1) == 1)
    parent = np.argmax(inside, axis=1)
    halvings = np.log2(mesh.tri_area[parent] / refined.tri_area)
    np.testing.assert_allclose(halvings, np.round(halvings), atol=1e-9)
    step_up = refined.generation - mesh.generation[parent]
    np.testing.assert_array_equal(step_up, np.round(halvings))
    assert np.all(step_up >= 0)
    kept = np.all(np.sort(refined.tri_vertices, axis=1)
                  == np.sort(mesh.tri_vertices[parent], axis=1), axis=1)
    np.testing.assert_array_equal(kept, step_up == 0)


@settings(max_examples=30, deadline=None)
@given(step=refinement_steps())
def test_area_and_shape_regularity_preserved(step):
    """Newest-vertex bisection of these right isosceles triangles creates
    only right isosceles triangles, so the shape bound never moves."""
    initial, _, _, refined = step
    total = initial.tri_area.sum()
    assert abs(refined.tri_area.sum() - total) <= 1e-13 * total
    assert shape_ratio(refined) == pytest.approx(shape_ratio(initial),
                                                 rel=1e-12)


def skewed_zshape_mesh():
    """The Z-shape under a shear and a non-dyadic scale, so that lengths,
    tangents and centroids round as on a general mesh."""
    m = zshape_mesh()
    return mesh_from_arrays(m.coords @ [[1.1, 0.2], [0.3, 0.9]] / 3.0,
                            m.tri_vertices)


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes((unit_square_mesh, zshape_mesh,
                            skewed_zshape_mesh)))
def test_element_frame_is_the_canonical_edge_frame(mesh):
    """The frame ElementGeometry builds from a triangle's vertices and
    edge signs is, bit for bit, edge_frame of the global edge at each
    local edge, stacked over all triangles and for one at a time; its
    centroid and diameter are the vertex mean and the longest side."""
    P = mesh.coords[mesh.tri_vertices]
    frame = edge_frame(*mesh.coords[mesh.edge_vertices.T])
    want = [part[mesh.tri_edges] for part in frame] + [
        P.mean(axis=1),
        np.linalg.norm(P - np.roll(P, -1, axis=1), axis=2).max(axis=1)]
    names = ("length", "tau", "nrm", "centroid", "diam")
    stacked = ElementGeometry(mesh, np.arange(mesh.num_triangles))
    for name, w in zip(names, want):
        np.testing.assert_array_equal(getattr(stacked, name), w)
    for t in range(mesh.num_triangles):
        single = ElementGeometry(mesh, t)
        for name, w in zip(names, want):
            np.testing.assert_array_equal(getattr(single, name), w[t])


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_clamped_free_dimension(mesh):
    dm = build_dofmap(mesh, clamped_bc(mesh))
    assert dm.free_dim == (7 * mesh.num_triangles
                           + 2 * mesh.num_interior_vertices
                           + 2 * mesh.num_edges)
    assert dm.free_dim == 4 * mesh.num_triangles + dm.n_uhat_free \
        + dm.n_qhat_free


@st.composite
def refined_squares(draw):
    """The unit square after up to four rounds of random marking."""
    mesh = unit_square_mesh()
    for _ in range(draw(st.integers(0, 4))):
        marked = draw(st.lists(st.integers(0, mesh.num_triangles - 1),
                               min_size=1))
        mesh = nvb_refine(mesh, marked)
    return mesh


@settings(max_examples=30, deadline=None)
@given(mesh=refined_squares())
def test_simply_supported_free_dimension(mesh):
    """A boundary vertex keeps its normal slope unless it is a corner,
    and a boundary edge loses beta."""
    boundary_vertices = int(mesh.vertex_on_boundary.sum())
    corners = int(np.all(np.isin(mesh.coords, (0.0, 1.0)), axis=1).sum())
    boundary_edges = int(mesh.edge_on_boundary.sum())
    dm = build_dofmap(mesh, simply_supported_bc(mesh))
    base = (7 * mesh.num_triangles + 2 * mesh.num_interior_vertices
            + 2 * mesh.num_edges)
    assert corners == 4
    assert dm.free_dim == (base + boundary_vertices - corners
                           - boundary_edges)
    assert dm.free_dim == base - 4


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes(), clamped=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_recovered_vector_meets_all_constraints(mesh, clamped, seed):
    bc = clamped_bc(mesh) if clamped else simply_supported_bc(mesh)
    dm = build_dofmap(mesh, bc)
    x = dm.recover_full(np.random.default_rng(seed).normal(size=dm.free_dim))
    tol = 1e-12 * max(1.0, np.abs(x).max())
    residuals = bc_oracles.constraint_residuals(bc, dm, x)
    assert np.abs(residuals).max(initial=0.0) <= tol
    gamma = x[dm.off_gamma:].reshape(-1, 3)
    sums = np.zeros(mesh.num_vertices)
    np.add.at(sums, mesh.tri_vertices, gamma)
    interior = np.flatnonzero(~mesh.vertex_on_boundary)
    assert np.abs(sums[interior]).max(initial=0.0) <= tol


def _assert_same_reduction(mesh, bc, oracle_bc):
    got, want = build_dofmap(mesh, bc), build_dofmap(mesh, oracle_bc)
    for a, b in ((got.R.indptr, want.R.indptr),
                 (got.R.indices, want.R.indices), (got.R.data, want.R.data),
                 (got.x_prescribed, want.x_prescribed)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes())
def test_simply_supported_bc_matches_object_oracle(mesh):
    """Straight-side vertices, square corners and the reentrant corner:
    the array builder gives the per-constraint builder's R and
    x_prescribed byte for byte."""
    _assert_same_reduction(mesh, simply_supported_bc(mesh),
                           bc_oracles.simply_supported_bc(mesh))


@settings(max_examples=30, deadline=None)
@given(mesh=refined_meshes(initials=(zshape_mesh,)))
def test_clamped_bc_matches_object_oracle(mesh):
    """The Z-shape's own clamped data, interpolated from the singular
    solution: R and x_prescribed byte for byte."""
    problem = builtin_zshape_problem()
    oracle = bc_oracles.interpolate_uhat_bc(problem.exact.fields, mesh)
    _assert_same_reduction(mesh, problem.bc_builder(mesh), oracle)
