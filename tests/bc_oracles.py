"""Object-based boundary-condition builders: one Python constraint object
per row, turned into the array :class:`BCSpec` at the end.  They are the
reference the vectorised builders of ``platedpg.spaces`` are compared
against, byte for byte."""

from dataclasses import dataclass

import numpy as np

from platedpg.mesh import edge_frame
from platedpg.spaces import BCSpec, Constraints


@dataclass(frozen=True)
class BCConstraint:
    """One affine constraint on a vertex uhat block (3 coefficients over
    (value, d/dx, d/dy)) or an edge (alpha, beta) block (2 coefficients)."""
    kind: str                  # "vertex" or "edge"
    index: int
    coeffs: tuple
    value: float


def to_bcspec(constraints):
    """The array form of a list of :class:`BCConstraint`, rows in list
    order within each kind."""
    def arrays(kind, width):
        cons = [c for c in constraints if c.kind == kind]
        return Constraints(
            np.array([c.index for c in cons], dtype=np.int64),
            np.array([c.coeffs for c in cons], dtype=float).reshape(-1, width),
            np.array([c.value for c in cons], dtype=float))
    return BCSpec(vertex=arrays("vertex", 3), edge=arrays("edge", 2))


def fix_vertex(cons, v, coeffs, value):
    cons.append(BCConstraint("vertex", int(v),
                             tuple(float(c) for c in coeffs), float(value)))


def fix_edge(cons, e, coeffs, value):
    cons.append(BCConstraint("edge", int(e),
                             tuple(float(c) for c in coeffs), float(value)))


def interpolate_uhat_bc(exact_u, exact_grad_u, mesh):
    """Clamp (u, grad u) at every boundary vertex, one vertex at a time."""
    cons = []
    bverts = mesh.boundary_vertices()
    vals = np.asarray(exact_u(mesh.coords[bverts]), dtype=float)
    grads = np.asarray(exact_grad_u(mesh.coords[bverts]), dtype=float)
    for i, v in enumerate(bverts):
        fix_vertex(cons, v, (1.0, 0.0, 0.0), vals[i])
        fix_vertex(cons, v, (0.0, 1.0, 0.0), grads[i][0])
        fix_vertex(cons, v, (0.0, 0.0, 1.0), grads[i][1])
    return to_bcspec(cons)


def simply_supported_bc(mesh):
    """u = 0 and n.M n = 0, walking the boundary edges in id order."""
    cons = []
    btangents = {}
    tangent = edge_frame(*mesh.coords[mesh.edge_vertices.T])[1]
    for e in mesh.boundary_edges():
        fix_edge(cons, e, (0.0, 1.0), 0.0)
        for v in mesh.edge_vertices[e]:
            btangents.setdefault(int(v), []).append(tangent[e])
    for v, tans in btangents.items():
        fix_vertex(cons, v, (1.0, 0.0, 0.0), 0.0)
        cross = abs(tans[0][0] * tans[1][1] - tans[0][1] * tans[1][0])
        if cross > 1e-12:
            fix_vertex(cons, v, (0.0, 1.0, 0.0), 0.0)
            fix_vertex(cons, v, (0.0, 0.0, 1.0), 0.0)
        else:
            t = tans[0]
            fix_vertex(cons, v, (0.0, t[0], t[1]), 0.0)
    return to_bcspec(cons)


def constraint_residuals(bc, dofmap, x):
    """``coeffs . block - value`` of every vertex and edge constraint of
    ``bc`` on the full vector ``x``."""
    index, coeffs, value = bc.vertex
    vertex = x[dofmap.off_uhat + 3 * index[:, None] + np.arange(3)]
    out = [np.sum(coeffs * vertex, axis=1) - value]
    index, coeffs, value = bc.edge
    edge = x[np.stack([dofmap.off_alpha + index, dofmap.off_beta + index],
                      axis=1)]
    out.append(np.sum(coeffs * edge, axis=1) - value)
    return np.concatenate(out)
