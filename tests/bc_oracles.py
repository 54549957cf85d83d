"""Object-based boundary-condition builders: one Python object per fixed
DOF, turned into the array :class:`BCSpec` at the end.  They are the
reference the vectorised builders of ``platedpg.spaces`` are compared
against, byte for byte."""

from dataclasses import dataclass

import numpy as np

from platedpg.errors import ConfigurationError
from platedpg.mesh import edge_frame
from platedpg.spaces import BCSpec, Fixed


@dataclass(frozen=True)
class FixedDof:
    """DOF ``component`` of a vertex uhat triple (0 value, 1 d/dx, 2 d/dy)
    or of an edge (alpha, beta) pair (0 alpha, 1 beta), held at value."""
    kind: str                  # "vertex" or "edge"
    index: int
    component: int
    value: float


WIDTH = {"vertex": 3, "edge": 2}


def to_bcspec(dofs):
    """The array form of a list of :class:`FixedDof`, in list order within
    each kind."""
    def arrays(kind):
        mine = [d for d in dofs if d.kind == kind]
        return Fixed(np.array([WIDTH[kind] * d.index + d.component
                               for d in mine], dtype=np.int64),
                     np.array([d.value for d in mine], dtype=float))
    return BCSpec(vertex=arrays("vertex"), edge=arrays("edge"))


def interpolate_uhat_bc(fields, mesh):
    """Clamp (u, grad u) at every boundary vertex, one vertex at a time;
    ``fields`` maps points to (u, grad, M)."""
    dofs = []
    bverts = mesh.boundary_vertices()
    vals, grads, _ = fields(mesh.coords[bverts])
    for i, v in enumerate(bverts):
        for c, value in enumerate((vals[i], grads[i][0], grads[i][1])):
            dofs.append(FixedDof("vertex", int(v), c, float(value)))
    return to_bcspec(dofs)


def simply_supported_bc(mesh):
    """u = 0 and n.M n = 0, walking the boundary edges in id order: beta
    on each, then per vertex its value and its slope along its first two
    sides, d/dx along a horizontal one, d/dy along a vertical one."""
    dofs = []
    btangents = {}
    tangent = edge_frame(*mesh.coords[mesh.edge_vertices.T])[1]
    for e in mesh.boundary_edges():
        dofs.append(FixedDof("edge", int(e), 1, 0.0))
        for v in mesh.edge_vertices[e]:
            btangents.setdefault(int(v), []).append(tangent[e])
    for v, tans in sorted(btangents.items()):
        dofs.append(FixedDof("vertex", v, 0, 0.0))
        cross = abs(tans[0][0] * tans[1][1] - tans[0][1] * tans[1][0])
        slopes = [c for c, along in ((1, tans[0][1] == 0.0),
                                     (2, tans[0][0] == 0.0))
                  if along or cross > 1e-12]
        if not slopes:
            raise ConfigurationError(
                f"simply supported side at vertex {v} is neither "
                f"horizontal nor vertical")
        dofs.extend(FixedDof("vertex", v, c, 0.0) for c in slopes)
    return to_bcspec(dofs)


def constraint_residuals(bc, dofmap, x):
    """``x - value`` at every fixed vertex and edge DOF of ``bc`` on the
    full vector ``x``."""
    index, value = bc.vertex
    out = [x[dofmap.off_uhat + index] - value]
    index, value = bc.edge
    out.append(x[dofmap.off_alpha + index % 2 * (dofmap.off_beta
                                                 - dofmap.off_alpha)
                 + index // 2] - value)
    return np.concatenate(out)
