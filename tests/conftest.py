"""Shared manufactured fields, the reference triangle and vertex patches,
a mesh shape measure, the element-mean projection and triplet assembly
oracles and acceptance reporting hooks."""

import os
import sys
import warnings

# One BLAS thread, set before numpy loads OpenBLAS: with its default of one
# thread per core, the many small triangular solves of the element path run
# up to 200 times slower while another process keeps a core busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; the BLAS "
                  "thread count set there has no effect")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from platedpg.mesh import mesh_from_arrays  # noqa: E402
from platedpg.polyquad import ASSEMBLY_DEGREE, tri_rule  # noqa: E402

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bump(t):
    return t ** 2 * (1 - t) ** 2


def bump1(t):
    return 2 * t - 6 * t ** 2 + 4 * t ** 3


def bump2(t):
    return 2 - 12 * t + 12 * t ** 2


def bump3(t):
    return -12 + 24 * t


def manufactured_u(p):
    """Clamped-square test deflection (x(1-x)y(1-y))^2."""
    return bump(p[:, 0]) * bump(p[:, 1])


def manufactured_grad(p):
    return np.stack([bump1(p[:, 0]) * bump(p[:, 1]),
                     bump(p[:, 0]) * bump1(p[:, 1])], axis=1)


def manufactured_M(p):
    """Moment -Hessian(u) of the manufactured deflection (identity law)."""
    out = np.empty((len(p), 2, 2))
    out[:, 0, 0] = -bump2(p[:, 0]) * bump(p[:, 1])
    out[:, 0, 1] = out[:, 1, 0] = -bump1(p[:, 0]) * bump1(p[:, 1])
    out[:, 1, 1] = -bump(p[:, 0]) * bump2(p[:, 1])
    return out


def manufactured_fields(p):
    """(u, grad, M) of the manufactured deflection, the form of
    ``ExactSolution.fields``."""
    return manufactured_u(p), manufactured_grad(p), manufactured_M(p)


def zero_fields(p):
    """(u, grad, M) of the zero deflection: homogeneous clamped data."""
    return np.zeros(len(p)), np.zeros((len(p), 2)), np.zeros((len(p), 2, 2))


def manufactured_divM(p):
    return np.stack(
        [-bump3(p[:, 0]) * bump(p[:, 1]) - bump1(p[:, 0]) * bump2(p[:, 1]),
         -bump2(p[:, 0]) * bump1(p[:, 1]) - bump(p[:, 0]) * bump3(p[:, 1])],
        axis=1)


def manufactured_f(p):
    """divdiv(Hessian u) of the manufactured deflection."""
    return (24 * bump(p[:, 1]) + 2 * bump2(p[:, 0]) * bump2(p[:, 1])
            + 24 * bump(p[:, 0]))


def smooth_tensor(p):
    """A generic smooth symmetric tensor field for trace tests."""
    out = np.empty((len(p), 2, 2))
    out[:, 0, 0] = 1 + p[:, 0] ** 2 + 0.3 * p[:, 1]
    out[:, 0, 1] = out[:, 1, 0] = p[:, 0] * p[:, 1] - 0.2
    out[:, 1, 1] = 2 - p[:, 1] ** 2
    return out


def smooth_tensor_div(p):
    return np.stack([3 * p[:, 0], -p[:, 1]], axis=1)


def reference_triangle_mesh():
    return mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def vertex_patch(mesh, vertex):
    """Ids of all triangles whose closure contains the given vertex."""
    return set(np.nonzero((mesh.tri_vertices == vertex).any(axis=1))[0]
               .tolist())


def random_shape_regular_triangle(rng):
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tri = base + 0.15 * rng.uniform(-1, 1, size=(3, 2))
    return tri * 10.0 ** rng.uniform(-2, 2)


def shape_ratio(mesh):
    """max diam^2 / area over the triangles of a mesh"""
    from platedpg.spaces import ElementGeometry
    geom = ElementGeometry(mesh, np.arange(mesh.num_triangles))
    return float(np.max(geom.diam ** 2 / mesh.tri_area))


def sparse_from_triplets(rows, cols, values, n):
    """n x n CSR matrix from scatter triplets, duplicate entries summed:
    the COO path that ``dpg.assemble`` must match bit for bit."""
    A = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


def project_fields(mesh, u_fn, M_fn, degree=ASSEMBLY_DEGREE):
    """Element means (the lowest-order L2 projections) of a deflection and
    a moment field; the moment is returned as (nT, 3) components."""
    rule = tri_rule(degree)
    pts = np.einsum("qc,tcd->tqd", rule.bary, mesh.coords[mesh.tri_vertices])
    flat = pts.reshape(-1, 2)
    w = rule.weights / 0.5                     # mean weights on any triangle
    u = np.asarray(u_fn(flat), dtype=float).reshape(pts.shape[:2])
    u_mean = u @ w
    M = np.asarray(M_fn(flat), dtype=float).reshape(pts.shape[:2] + (2, 2))
    M_mean = np.stack([M[..., 0, 0] @ w, M[..., 0, 1] @ w,
                       M[..., 1, 1] @ w], axis=1)
    return u_mean, M_mean
