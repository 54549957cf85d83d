"""Memory guards for the REFINE half of the adaptive loop: newest-vertex
bisection, the mesh constructor and the DOF map allocate close to what
they return.

The mesh is the Z-shape refined uniformly four times (1,280 triangles),
then by seeded rounds of 20 % random marking, as in the benchmark's
``mesh-refine`` workload; the seventh round gives 19,437 triangles.
tracemalloc counts the numpy buffers and Python objects a call
allocates, so the bounds do not depend on the process's other memory."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from platedpg.mesh import Mesh, nvb_refine, uniform_refine
from platedpg.problems import builtin_problem
from platedpg.spaces import build_dofmap

MESH_ARRAYS = ("coords", "tri_vertices", "refinement_edge", "tri_edges",
               "edge_vertices", "edge_triangles", "edge_on_boundary",
               "vertex_on_boundary", "tri_area", "edge_sign")


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes, also
    when tracemalloc already runs (``python -X tracemalloc``)."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def last_round():
    """The clamped Z-shape problem, the mesh before the seventh round and
    the triangles that round marks."""
    problem = builtin_problem("zshape")
    mesh = problem.initial_mesh
    for _ in range(4):
        mesh = uniform_refine(mesh)
    rng = np.random.default_rng(0)
    for _ in range(6):
        n = mesh.num_triangles
        mesh = nvb_refine(mesh, rng.choice(n, size=round(0.2 * n),
                                           replace=False))
    n = mesh.num_triangles
    return problem, mesh, rng.choice(n, size=round(0.2 * n), replace=False)


def test_nvb_refine_peak_bounded_by_the_new_mesh(last_round):
    """The closure works on arrays of one entry per given triangle or per
    bisection, and the new mesh's constructor holds little beside its
    arrays, so the peak stays within 1.5 times the new mesh's arrays
    (1.39 times here; with the constructor's int64 slot keys, order and
    sums kept to its end it was 2.26, with the closure as a loop over
    int64 slot arrays 3.51, with the pairs kept beside their keys 3.77,
    with Python-int lists and ``np.unique`` 6.05)."""
    _, mesh, marked = last_round
    new, peak = traced_peak(nvb_refine, mesh, marked)
    assert new.num_triangles == 19437
    size = sum(getattr(new, name).nbytes for name in MESH_ARRAYS)
    assert peak <= 1.5 * size, peak / size


def test_mesh_constructor_peak_bounded_by_its_arrays(last_round):
    """``Mesh(coords, tri_vertices, refinement_edge)`` alone, given
    arrays it need not copy: the signed areas are built before the
    topology, and the topology's slot keys, order and sums are int32 and
    freed once used, so the peak stays within 1.15 times the mesh's
    arrays (1.00 times here; with the areas built last and int64 slot
    arrays kept to the end it was 1.87)."""
    _, mesh, marked = last_round
    new = nvb_refine(mesh, marked)
    built, peak = traced_peak(Mesh, new.coords, new.tri_vertices,
                              new.refinement_edge)
    size = sum(getattr(built, name).nbytes for name in MESH_ARRAYS)
    assert peak <= 1.15 * size, peak / size


def test_build_dofmap_peak_bounded_by_its_output(last_round):
    """R is written straight into CSR, row by row at its offsets, and
    x_prescribed through views, with int32 index arrays freed once used,
    so the peak stays within 1.25 times R's three arrays plus
    x_prescribed (1.15 times here; with int64 block rows and index arrays
    kept to the end it was 1.73, through sorted block triplets 1.79,
    through COO triplets 3.76)."""
    problem, mesh, marked = last_round
    mesh = nvb_refine(mesh, marked)
    bc = problem.bc_builder(mesh)
    dm, peak = traced_peak(build_dofmap, mesh, bc)
    size = (dm.R.indptr.nbytes + dm.R.indices.nbytes + dm.R.data.nbytes
            + dm.x_prescribed.nbytes)
    assert peak <= 1.25 * size, peak / size


def test_dofmap_does_not_keep_its_mesh_alive():
    """A DOF map holds the numbering, not the mesh, so the previous mesh
    of an adaptive loop is freed before the next DOF map is built."""
    problem = builtin_problem("zshape")
    mesh = uniform_refine(problem.initial_mesh)
    dm = build_dofmap(mesh, problem.bc_builder(mesh))
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None
    assert dm.R.shape == (dm.full_dim, dm.free_dim)
