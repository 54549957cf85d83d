"""Degrees of freedom, edge traces and boundary conditions of the four
trial blocks.

Trial unknowns and their storage layout in the full coefficient vector:

* ``u``    piecewise constants, one per triangle,
* ``M``    piecewise-constant symmetric tensors, three per triangle
  (M11, M12, M22),
* ``uhat`` deflection traces, three per mesh vertex (value, d/dx, d/dy);
  on each edge they induce a Hermite-cubic value trace and a linear
  normal-derivative trace,
* ``qhat`` moment/shear traces: per edge one moment ``alpha`` of the
  effective shear ``n.div(Theta) + d_t(t.Theta n)`` and one moment
  ``beta`` of ``n.Theta n`` (both stored as seen from the plus side,
  the triangle whose outward normal equals the canonical edge normal),
  plus one corner jump ``gamma`` per triangle corner, constrained to sum
  to zero around every interior vertex.

The essential boundary conditions fix coordinates of uhat and qhat, and
the patch-sum constraint is handled by elimination (the patch triangle
with the largest id carries the dependent gamma), which keeps the global
condensed system symmetric positive definite.  A :class:`DofMap` numbers
the free coordinates that remain, ``x_full = R x_free + x_fixed``, and
forms R^T as one sparse matrix from its numbering arrays.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .mesh import Mesh, edge_frame
from .polyquad import ASSEMBLY_RULE, p3_table


# slots of the N_TRIAL local trial unknowns of a triangle, in the columns
# of its matrix B and in DofMap.element_scatter: u | M11 M12 M22 | uhat
# (value, d/dx, d/dy per counterclockwise vertex) | (alpha, beta) per local
# edge | gamma per counterclockwise vertex
N_TRIAL = 22
U = 0
M = slice(1, 4)
UHAT = slice(4, 13)
ALPHA = slice(13, 19, 2)
BETA = slice(14, 19, 2)
GAMMA = slice(19, 22)


# ---------------------------------------------------------------------------
# element-local frame
# ---------------------------------------------------------------------------

class ElementGeometry:
    """Frame of triangle ``t``, shared by the pairing and assembly
    routines, built from its vertices and edge orientations alone.  An
    index array ``t`` gives the frames of those triangles stacked: every
    attribute gains a leading element axis."""

    def __init__(self, mesh: Mesh, t):
        self.P = np.take(mesh.coords, mesh.tri_vertices[t], axis=0)
        self.centroid = self.P.mean(axis=-2)
        self.sign = mesh.edge_sign[t].astype(float)   # s_{T,E}
        # canonical ends of local edge k as local vertices: k+1 -> k+2 if s > 0
        self.lo_local = (np.arange(3) + np.where(self.sign > 0, 1, 2)) % 3
        self.hi_local = (np.arange(3) + np.where(self.sign > 0, 2, 1)) % 3
        # their points, and the canonical length, tangent and normal
        self.lo, self.hi = (np.take_along_axis(self.P, end[..., None], -2)
                            for end in (self.lo_local, self.hi_local))
        self.length, self.tau, self.nrm = edge_frame(self.lo, self.hi)
        self.diam = self.length.max(axis=-1)

    def edge_points(self, k, s):
        """Points (..., len(s), 2) on local edge k at canonical parameters
        s in [0, 1]."""
        a, b = self.lo[..., k, None, :], self.hi[..., k, None, :]
        return a + np.reshape(s, (-1, 1)) * (b - a)

    @cached_property
    def volume_table(self):
        """Points and weights of the assembly rule and the P3 table there,
        evaluated once for the element matrices and the load."""
        qpts, w = ASSEMBLY_RULE.map_to(self.P)
        return qpts, w, p3_table(self.centroid, self.diam, qpts)


# ---------------------------------------------------------------------------
# Hermite edge traces
# ---------------------------------------------------------------------------

def uhat_edge_traces(geom: ElementGeometry, k: int, s):
    """Edge traces of the 9 local uhat unit DOFs (value, d/dx, d/dy per
    counterclockwise vertex) on local edge k at canonical parameters s:
    values (..., len(s), 9) and gradients (..., len(s), 2, 9).  At each
    canonical end the value DOF gets the Hermite value function, the
    gradient DOFs the Hermite slope function times ``L tau``; the
    gradient is the arc derivative along tau plus the normal derivative,
    interpolated linearly between the ends."""
    s = np.asarray(s)[:, None]
    L = geom.length[..., k, None, None]
    tau, nrm = geom.tau[..., k, None, :], geom.nrm[..., k, None, :]
    z, dz, gn = np.zeros((3,) + L.shape[:-2] + (len(s), 3, 3))
    for end, value, slope, d_value, d_slope, weight in (
            (geom.lo_local, 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s,
             6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, 1.0 - s),
            (geom.hi_local, -2 * s**3 + 3 * s**2, s**3 - s**2,
             -6 * s**2 + 6 * s, 3 * s**2 - 2 * s, s)):
        at = (np.arange(3) == end[..., k, None, None])[..., None]
        z[..., 0] += at[..., 0] * value
        dz[..., 0] += at[..., 0] * d_value
        z[..., 1:] += at * (slope * (L * tau))[..., None, :]
        dz[..., 1:] += at * (d_slope * (L * tau))[..., None, :]
        gn[..., 1:] += at * (weight * nrm)[..., None, :]
    z, dz, gn = (a.reshape(a.shape[:-2] + (9,)) for a in (z, dz, gn))
    return z, (dz[..., None, :] / L[..., None] * tau[..., None]
               + gn[..., None, :] * nrm[..., None])


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

class Fixed(NamedTuple):
    """Coordinates ``index`` of one DOF numbering held at ``value``."""
    index: np.ndarray = np.zeros(0, dtype=np.int32)     # (k,) integer
    value: np.ndarray = np.zeros(0)                     # (k,)


@dataclass
class BCSpec:
    """Essential conditions as fixed coordinates of the trace unknowns:
    ``vertex`` fixes uhat DOFs ``3 v + c`` of vertices v (c = 0 the value,
    1 d/dx, 2 d/dy), ``edge`` fixes DOFs ``2 e + j`` of edges e (j = 0
    alpha, 1 beta)."""
    vertex: Fixed = Fixed()
    edge: Fixed = Fixed()


def interpolate_uhat_bc(fields, mesh):
    """Clamped-plate essential data: (u, grad u) at every boundary vertex
    from one call of ``fields(points) -> (u, grad, M)``, an exact
    solution's :attr:`~platedpg.problems.ExactSolution.fields`."""
    bverts = mesh.boundary_vertices()
    u, grad, _ = fields(mesh.coords[bverts])
    return BCSpec(vertex=Fixed((3 * bverts[:, None] + np.arange(3)).ravel(),
                               np.column_stack([u, grad]).ravel()))


def simply_supported_bc(mesh):
    """Essential data for ``u = 0`` and ``n.M n = 0`` on the whole
    boundary: vertex values and boundary-tangential slopes vanish, so
    d/dx on a horizontal side, d/dy on a vertical one and both at a
    corner, and beta vanishes on boundary edges.  A vertex inside a
    straight side that is neither horizontal nor vertical is refused."""
    bedges = mesh.boundary_edges()
    ends = mesh.edge_vertices[bedges].astype(np.int64)     # DOFs 3 v + c
    tau = edge_frame(*mesh.coords[ends.T])[1]
    order = np.argsort(ends.ravel(), kind="stable")   # two sides a vertex
    bverts = ends.ravel()[order[::2]]
    t0, t1 = tau[order[::2] // 2], tau[order[1::2] // 2]
    corner = np.abs(t0[:, 0] * t1[:, 1] - t0[:, 1] * t1[:, 0]) > 1e-12
    fixed = np.ones((len(bverts), 3), dtype=bool)   # value, d/dx, d/dy
    fixed[:, 1:] = corner[:, None] | (t0[:, ::-1] == 0.0)
    slanted = ~fixed[:, 1:].any(axis=1)
    if slanted.any():
        raise ConfigurationError(
            f"simply supported side at vertex {bverts[slanted][0]} is "
            f"neither horizontal nor vertical")
    dofs = (3 * bverts[:, None] + np.arange(3))[fixed]
    return BCSpec(vertex=Fixed(dofs, np.zeros(len(dofs))),
                  edge=Fixed(2 * bedges + 1, np.zeros(len(bedges))))


# ---------------------------------------------------------------------------
# global DOF map
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Numbering of one mesh, which it does not hold: the block offsets
    of the full trial vector and its free coordinates.  Free column j is
    R's +1 at full row ``own[j]``; a free gamma column, the last
    ``len(dep)``, also has -1 at the dependent corner row ``dep`` of its
    vertex (none for -1, a boundary vertex); :meth:`rt` forms R^T."""
    off_m: int
    off_uhat: int
    off_alpha: int
    off_beta: int
    off_gamma: int
    full_dim: int
    free_dim: int
    own: np.ndarray            # (free_dim,) full row of each free column
    dep: np.ndarray            # (free gamma,) dependent corner row or -1
    fixed: Fixed               # full rows and their values
    n_uhat_free: int
    n_qhat_free: int

    def element_scatter(self, mesh, t):
        """Full-vector indices, in ``own``'s dtype, of the trial DOFs of
        triangle t of the mesh this map numbers, in the slots :data:`U`,
        :data:`M`, :data:`UHAT`, :data:`ALPHA`, :data:`BETA`, :data:`GAMMA`;
        one row per id of an index array t.  Other mesh counts raise
        :class:`ConfigurationError`."""
        counts = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
        if counts != (self.off_m, (self.off_alpha - self.off_uhat) // 3,
                      self.off_beta - self.off_alpha):
            raise ConfigurationError(
                f"(#T, #N, #E) = {counts} is not the DOF map's mesh")
        t = np.asarray(t, dtype=np.int64)
        out = np.empty(t.shape + (N_TRIAL,), dtype=self.own.dtype)
        c, v, e = (np.arange(3), mesh.tri_vertices[t].astype(out.dtype),
                   mesh.tri_edges[t].astype(out.dtype))     # 3 v + c exact
        out[..., U] = t
        out[..., M] = self.off_m + 3 * t[..., None] + c
        uhat = self.off_uhat + 3 * v[..., None] + c
        out[..., UHAT] = uhat.reshape(t.shape + (9,))
        out[..., ALPHA] = self.off_alpha + e
        out[..., BETA] = self.off_beta + e
        out[..., GAMMA] = self.off_gamma + 3 * t[..., None] + c
        return out

    def fixed_full(self):
        """The full vector that is zero but at the fixed DOFs."""
        x = np.zeros(self.full_dim)
        x[self.fixed.index] = self.fixed.value
        return x

    def rt(self):
        """R^T as canonical CSR, free_dim x full_dim; ``dep`` is a later
        corner of its vertex than ``own``, so each row is sorted as built."""
        head, at = self.free_dim - len(self.dep), self.dep >= 0
        n = np.ones(self.free_dim, dtype=self.own.dtype)
        n[head:] += at
        indptr = np.r_[0, np.cumsum(n)]
        cols, data = np.repeat(self.own, n), np.ones(indptr[-1])
        last = indptr[head + 1:][at] - 1
        cols[last], data[last] = self.dep[at], -1.0
        return sp.csr_matrix((data, cols, indptr),
                             (self.free_dim, self.full_dim))

    def recover_full(self, x_free):
        """``R x_free + x_fixed``."""
        return self.rt().T @ x_free + self.fixed_full()


def _fixed_dofs(fixed, n, width, kind):
    """The DOFs and values of one numbering (``width`` per vertex or edge,
    n in all), checked; a DOF may be fixed twice, but to one value."""
    index, value = np.asarray(fixed.index), np.asarray(fixed.value, float)
    if index.dtype.kind not in "iu":     # not float or bool
        if index.size:
            raise ConfigurationError(f"{kind} DOF index is not integer")
        index = index.astype(np.int64)   # empty: [] is float64
    if not index.ndim == value.ndim == 1 or len(index) != len(value):
        raise ConfigurationError(f"{kind} DOF index and value differ in "
                                 f"length")
    if not np.isfinite(value).all():
        raise ConfigurationError(f"{kind} DOF values are not finite")
    bad = index[(index < 0) | (index >= n)]
    if bad.size:
        raise ConfigurationError(f"{kind} DOF of a nonexistent {kind}: "
                                 f"{(bad // width).tolist()}")
    held = np.zeros(n)
    held[index] = value           # one of the values of a DOF fixed twice
    clash = index[held[index] != value]
    if clash.size:
        raise ConfigurationError(f"{kind} {clash.min() // width} DOF "
                                 f"{clash.min() % width} fixed to two values")
    return index.astype(np.int64), value   # the offsets added cannot wrap


def build_dofmap(mesh, bc: BCSpec) -> DofMap:
    """Number the free coordinates of the full trial vector under the
    fixed DOFs of ``bc`` and the gamma patch sums: u and M, the free uhat
    DOFs vertex by vertex, the free (alpha, beta) DOFs edge by edge, then
    the gamma corners that are not eliminated."""
    nT, nN, nE = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    off_m = nT
    off_uhat = 4 * nT
    off_alpha = off_uhat + 3 * nN
    off_beta = off_alpha + nE
    off_gamma = off_beta + nE
    full_dim = off_gamma + 3 * nT
    itype = np.int32 if full_dim < 2**31 else np.int64

    vertex, v_value = _fixed_dofs(bc.vertex, 3 * nN, 3, "vertex")
    edge, e_value = _fixed_dofs(bc.edge, 2 * nE, 2, "edge")
    # an interior vertex's dependent corner is its last, 3 t + c with the
    # largest t
    corners = mesh.tri_vertices.ravel()
    last = np.full(nN, -1, dtype=itype)
    np.maximum.at(last, corners, np.arange(corners.size, dtype=itype))
    interior = ~mesh.vertex_on_boundary
    free = []
    for n, out in ((3 * nN, vertex), (2 * nE, edge),
                   (corners.size, last[interior])):
        keep = np.ones(n, dtype=bool)
        keep[out] = False
        free.append(np.flatnonzero(keep).astype(itype))
    v, e, g = free

    def edge_rows(k):           # edge DOFs 2 e + j as full rows
        return off_alpha + k % 2 * nE + k // 2
    own = np.concatenate([np.arange(off_uhat, dtype=itype), off_uhat + v,
                          edge_rows(e), off_gamma + g])
    dep = np.where(interior, off_gamma + last, -1)[corners[g]]
    fixed = Fixed(np.concatenate([off_uhat + vertex, edge_rows(edge)]
                                 ).astype(itype),
                  np.concatenate([v_value, e_value]))
    return DofMap(off_m, off_uhat, off_alpha, off_beta, off_gamma, full_dim,
                  len(own), own, dep, fixed, len(v), len(e) + len(g))
