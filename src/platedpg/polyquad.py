"""Scalar polynomial basis on triangles and quadrature rules.

The scalar basis is the ten scaled monomials ``((x-x_T)/h_T)^i
((y-y_T)/h_T)^j`` of degree <= 3 in graded lexicographic order, evaluated
with closed-form gradients and Hessians; the first six span P2.
The two triangle rules, :data:`ASSEMBLY_RULE` and :data:`ERROR_RULE`, are
built by the collapsed (Duffy) map with Gauss-Legendre x Gauss-Jacobi
points, which gives a guaranteed exactness degree.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# 5-point Gauss-Legendre rule on [0, 1], exact to degree 9: the bits of
# 0.5 * (x + 1) and 0.5 * w for (x, w) = roots_legendre(5)
EDGE_NODES = np.array([0.04691007703066802, 0.23076534494715845, 0.5,
                       0.7692346550528415, 0.9530899229693319])
EDGE_WEIGHTS = np.array([0.11846344252809449, 0.23931433524968326,
                         0.2844444444444445, 0.23931433524968326,
                         0.11846344252809449])

# exponents (i, j) of the P3 monomials xi^i eta^j, graded lexicographic
EXP_I = np.array([0, 1, 0, 2, 1, 0, 3, 2, 1, 0])
EXP_J = np.array([0, 0, 1, 0, 1, 2, 0, 1, 2, 3])


@dataclass(frozen=True)
class QuadRuleTri:
    """Quadrature on the reference triangle (0,0),(1,0),(0,1).

    ``bary`` holds barycentric coordinates, weights sum to the reference
    area 1/2.
    """
    bary: np.ndarray
    weights: np.ndarray

    def map_to(self, tri_coords):
        """Physical points and weights for a triangle given by its three
        vertex coordinates (rows), or for a stack of them (..., 3, 2)."""
        tri_coords = np.asarray(tri_coords, dtype=float)
        pts = self.bary @ tri_coords
        d1 = tri_coords[..., 1, :] - tri_coords[..., 0, :]
        d2 = tri_coords[..., 2, :] - tri_coords[..., 0, :]
        area = 0.5 * abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
        return pts, self.weights * (2.0 * area)[..., None]


def _collapsed_rule(u, wu, v, wv):
    """The collapsed rule of the 1-D rules (u, wu), (v, wv) on [0, 1]."""
    U, V = np.meshgrid(u, v, indexing="ij")
    x = (U * (1.0 - V)).ravel()
    y = V.ravel()
    w = np.outer(wu, wv).ravel()
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    return QuadRuleTri(bary, w)


# the 1-D factors (u, wu, v, wv) on [0, 1] of the n x n-point collapsed
# rules: the bits of 0.5 * (x + 1), 0.5 * w for (x, w) = roots_legendre(n)
# and of 0.5 * (x + 1), 0.25 * w for roots_jacobi(n, 1, 0) (scipy.special)
COLLAPSED_FACTORS = {5: (EDGE_NODES, EDGE_WEIGHTS, *np.reshape([
    0.03980985705146872, 0.1980134178736082, 0.43797481024738616,
    0.6954642733536361, 0.9014649142011736, 0.09678159022665148,
    0.1671746380943697, 0.14638698708466985, 0.07390887007261668,
    0.0157479145216923], (2, 5))), 7: tuple(np.reshape([
    0.025446043828620812, 0.12923440720030277, 0.2970774243113014, 0.5,
    0.7029225756886985, 0.8707655927996972, 0.9745539561713792,
    0.06474248308443496, 0.1398526957446383, 0.19091502525255938,
    0.20897959183673456, 0.19091502525255938, 0.1398526957446383,
    0.06474248308443496, 0.0224793864387125, 0.11467905316090415,
    0.2657898227845895, 0.45284637366944464, 0.6473752828868303,
    0.8197593082631076, 0.9437374394630779, 0.055967363423490867,
    0.1105092581908744, 0.12739089729958852, 0.10712506569587381,
    0.06638469646549157, 0.027408356721873486, 0.005214362202807391],
    (4, 7)))}
# the two triangle rules: 5 x 5 points, exact to degree 9, for B, G and
# the loads; 7 x 7 points, exact to degree 13, for the L2 errors
ASSEMBLY_RULE = _collapsed_rule(*COLLAPSED_FACTORS[5])
ERROR_RULE = _collapsed_rule(*COLLAPSED_FACTORS[7])


class ScalarTable(NamedTuple):
    values: np.ndarray       # (..., npts, ndim)
    gradients: np.ndarray    # (..., npts, ndim, 2)
    hessians: np.ndarray     # (..., npts, ndim, 2, 2)


def p3_table(centroid, scale, points):
    """The P3 scaled monomials of the triangle with ``centroid`` and
    ``scale`` at ``points`` (npts, 2); for a stack of triangles,
    ``centroid`` (..., 2) and ``scale`` (...), at points (..., npts, 2)
    with the same leading axes."""
    centroid = np.asarray(centroid, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h = np.asarray(scale, dtype=float)[..., None]
    xi = (points[..., 0] - centroid[..., 0, None]) / h
    ps = (points[..., 1] - centroid[..., 1, None]) / h
    h = h[..., None, None]
    # powers 0..3; a negative exponent reads power 0, the factor in
    # front of it is zero then
    X = xi[..., None] ** np.arange(4)
    Y = ps[..., None] ** np.arange(4)
    i, j = EXP_I, EXP_J
    im1, jm1 = np.maximum(i - 1, 0), np.maximum(j - 1, 0)
    im2, jm2 = np.maximum(i - 2, 0), np.maximum(j - 2, 0)
    vals = X[..., i] * Y[..., j]
    grads = np.empty(vals.shape + (2,))
    grads[..., 0] = i * X[..., im1] * Y[..., j]
    grads[..., 1] = j * X[..., i] * Y[..., jm1]
    grads /= h
    hess = np.empty(vals.shape + (2, 2))
    hess[..., 0, 0] = i * (i - 1) * X[..., im2] * Y[..., j]
    hess[..., 0, 1] = i * j * X[..., im1] * Y[..., jm1]
    hess[..., 1, 0] = hess[..., 0, 1]
    hess[..., 1, 1] = j * (j - 1) * X[..., i] * Y[..., jm2]
    hess /= (h ** 2)[..., None]
    return ScalarTable(vals, grads, hess)

