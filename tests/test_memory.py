"""Memory guards for the REFINE half of the adaptive loop: newest-vertex
bisection and the DOF map allocate close to what they return.

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

from platedpg.mesh import nvb_refine, uniform_refine
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


def test_nvb_refine_peak_within_five_times_the_new_mesh(last_round):
    """The closure works on int64 slot arrays and the edges are numbered
    by one sort, so the peak stays within 5 times the new mesh's arrays
    (3.8 times here; with Python-int lists and ``np.unique`` it was
    6.05)."""
    _, mesh, marked = last_round
    new, peak = traced_peak(nvb_refine, mesh, marked)
    assert new.num_triangles == 19437
    size = sum(getattr(new, name).nbytes for name in MESH_ARRAYS)
    assert peak <= 5.0 * size, peak / size


def test_build_dofmap_peak_within_two_and_a_half_times_its_output(
        last_round):
    """R is written straight into CSR, so the peak stays within 2.5 times
    R's three arrays plus x_prescribed (1.8 times here; through COO
    triplets it was 3.76)."""
    problem, mesh, marked = last_round
    mesh = nvb_refine(mesh, marked)
    bc = problem.bc_builder(mesh)
    dm, peak = traced_peak(build_dofmap, mesh, bc)
    size = (dm.R.indptr.nbytes + dm.R.indices.nbytes + dm.R.data.nbytes
            + dm.x_prescribed.nbytes)
    assert peak <= 2.5 * size, peak / size


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
