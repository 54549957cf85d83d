"""Memory guards for the REFINE half of the adaptive loop: newest-vertex
bisection, the mesh constructor and the DOF map allocate close to what
they return, and the DOF map holds its numbering only.

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
    """The closure works on int32 arrays of one entry per given triangle
    or per bisection, and the new mesh's constructor holds little beside
    its arrays, so the peak stays within 140 bytes per new triangle (133.5
    here, 1.90 times the mesh's int32 arrays).  With the constructor's
    per-edge group starts, sizes and first slots int64 it was 143 (2.04
    times), with int64 mesh ids 174 (1.39 times that mesh's arrays), with
    the constructor's int64 slot keys, order and sums kept to its end 2.26
    times, with the closure as a loop over int64 slot arrays 3.51, with
    the pairs kept beside their keys 3.77, with Python-int lists and
    ``np.unique`` 6.05."""
    _, mesh, marked = last_round
    new, peak = traced_peak(nvb_refine, mesh, marked)
    assert new.num_triangles == 19437
    assert peak <= 140 * new.num_triangles, peak / new.num_triangles


def test_mesh_constructor_peak_bounded_by_its_arrays(last_round):
    """``Mesh(coords, tri_vertices, refinement_edge)`` alone, given
    arrays it need not copy: the signed areas are built before the
    topology, and the topology's slot keys, order, sums and per-edge
    group starts, sizes and first slots are int32 and freed once used, so
    the peak stays within 110 bytes per triangle (104.4 here, 1.49 times
    the mesh's int32 arrays).  With those per-edge arrays int64 it was
    114 (1.62 times), with int64 mesh ids 126 (1.00 times that mesh's
    arrays); with the areas built last and int64 slot arrays kept to the
    end 1.87 times."""
    _, mesh, marked = last_round
    new = nvb_refine(mesh, marked)
    built, peak = traced_peak(Mesh, new.coords, new.tri_vertices,
                              new.refinement_edge)
    assert peak <= 110 * built.num_triangles, peak / built.num_triangles


def test_mesh_holds_about_70_bytes_per_triangle(last_round):
    """Vertex, edge and triangle ids are int32, refinement edges and edge
    signs int8: a mesh holds at most 72 bytes per triangle (70.3 here;
    125.4 with int64 ids and refinement edges)."""
    _, mesh, marked = last_round
    new = nvb_refine(mesh, marked)
    for name in ("tri_vertices", "tri_edges", "edge_vertices",
                 "edge_triangles"):
        assert getattr(new, name).dtype == np.int32, name
    assert new.refinement_edge.dtype == new.edge_sign.dtype == np.int8
    size = sum(getattr(new, name).nbytes for name in MESH_ARRAYS)
    assert size <= 72 * new.num_triangles, size / new.num_triangles


def held_bytes(obj):
    """Bytes of the numpy arrays an object holds, through its attributes,
    tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(item) for item in obj)
    if hasattr(obj, "__dict__"):
        return sum(held_bytes(item) for item in vars(obj).values())
    return 0


@pytest.fixture(scope="module")
def last_dofmap(last_round):
    """The seventh round's mesh, DOF map and the traced peak of building
    the map."""
    problem, mesh, marked = last_round
    mesh = nvb_refine(mesh, marked)
    bc = problem.bc_builder(mesh)
    dm, peak = traced_peak(build_dofmap, mesh, bc)
    return mesh, dm, peak


def test_build_dofmap_peak_bounded_by_its_output(last_dofmap):
    """The numbering is built from int32 index arrays, the dependent
    corners from one ``np.maximum.at`` over the corners, so the peak
    stays within 2.5 times the DOF map's arrays (2.28 times here: 2.4 MB
    for a map of 1.1 MB; with int64 index arrays it was 2.59).  A map
    that held R in CSR and x_prescribed took 5.8 MB and peaked at 6.7 MB
    (1.15 times), and at 1.79 times through sorted block triplets and
    3.76 times through COO triplets."""
    _, dm, peak = last_dofmap
    size = held_bytes(dm)
    assert peak <= 2.5 * size, peak / size


def test_dofmap_holds_about_one_int32_per_free_dof(last_dofmap):
    """A DOF map holds the full row of each free column, the dependent
    corner row of each free gamma column and the fixed (row, value)
    pairs: at most 1.25 int32 per free DOF besides the pairs (1.23 here),
    so a full-length R or prescribed-value vector, 8 bytes or more per
    full DOF, cannot come back unnoticed."""
    mesh, dm, _ = last_dofmap
    n_fixed = len(dm.fixed.index)
    assert dm.own.dtype == dm.dep.dtype == dm.fixed.index.dtype == np.int32
    assert mesh.num_triangles == 19437 and n_fixed == 915
    assert held_bytes(dm) <= 1.25 * 4 * dm.free_dim + 12 * n_fixed


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
    assert len(dm.own) == dm.free_dim
