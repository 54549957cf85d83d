"""Triangular meshes and newest-vertex bisection.

Builds the two benchmark domains, walks through marked refinement with
conforming closure, and shows that shape regularity survives aggressive
local refinement.  Finishes by writing a plain-text mesh dump.
"""

import numpy as np

from platedpg import (mesh_to_text, nvb_refine, uniform_refine,
                      unit_square_mesh)
from platedpg.problems import zshape_mesh
from platedpg.spaces import ElementGeometry


def frames(mesh):
    """Area, centroid and diameter of every triangle, among others."""
    return ElementGeometry(mesh, np.arange(mesh.num_triangles))


def shape_ratio(mesh):
    geom = frames(mesh)
    return np.max(geom.diam ** 2 / geom.area)


# The unit square: two triangles whose refinement edges meet on the
# diagonal, so the first bisection pass stays conforming by itself.
square = unit_square_mesh()
print("initial square:", square)

# Mark a single triangle.  Bisecting it alone would leave a hanging node
# on the diagonal, so the closure bisects the neighbour too.
once = nvb_refine(square, {0})
print("one marked triangle  ->", once.num_triangles, "triangles")

# Uniform refinement = two all-marked bisection passes: every triangle
# becomes four sons of equal area.
uni = uniform_refine(square)
print("uniform refinement   ->", uni.num_triangles,
      "triangles, areas", sorted({float(a) for a in np.round(uni.tri_area, 12)}))

# Aggressive refinement towards one corner: mark whatever triangle is
# closest to the origin, twenty times in a row.
mesh = zshape_mesh()
print("\ninitial Z-shape:", mesh, "\nrefining towards the corner:")
for step in range(20):
    closest = int(np.argmin(np.linalg.norm(frames(mesh).centroid, axis=1)))
    mesh = nvb_refine(mesh, {closest})
print(f"  after 20 corner refinements: {mesh.num_triangles} triangles, "
      f"min diameter {frames(mesh).diam.min():.2e}")
print(f"  shape bound (max diam^2/area): {shape_ratio(mesh):.3f} "
      f"(initial {shape_ratio(zshape_mesh()):.3f})")
euler = mesh.num_vertices - mesh.num_edges + mesh.num_triangles
print(f"  Euler characteristic: {euler} (conforming polygon: 1)")

dump = mesh_to_text(uni)
print("\nplain-text dump of the refined square (first 4 lines):")
print("\n".join(dump.splitlines()[:4]))
