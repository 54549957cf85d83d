"""Scalar polynomial basis on triangles and quadrature rules.

The scalar basis is the ten scaled monomials ``((x-x_T)/h_T)^i
((y-y_T)/h_T)^j`` of degree <= 3 in graded lexicographic order, evaluated
with closed-form gradients and Hessians; the first six span P2.
Triangle rules are built by the collapsed (Duffy) map with Gauss-Legendre
x Gauss-Jacobi points, which gives a guaranteed exactness degree.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigurationError

# quadrature degrees used by the rest of the package
ASSEMBLY_DEGREE = 8      # volume terms of B, G and loads
ERROR_DEGREE = 12        # L2 error integration

# 5-point Gauss-Legendre rule on [0, 1], exact to degree 9
_x, _w = roots_legendre(5)
EDGE_NODES, EDGE_WEIGHTS = 0.5 * (_x + 1.0), 0.5 * _w

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


@lru_cache(maxsize=None)
def tri_rule(min_degree):
    """Triangle rule with exactness at least ``min_degree`` (1..12)."""
    if not 1 <= int(min_degree) <= 12:
        raise ConfigurationError(
            f"triangle quadrature degree {min_degree} outside 1..12")
    n = (int(min_degree) + 2) // 2
    xu, wu = roots_legendre(n)
    u = 0.5 * (xu + 1.0)
    wu = 0.5 * wu
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    v = 0.5 * (xv + 1.0)
    wv = 0.25 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    x = (U * (1.0 - V)).ravel()
    y = V.ravel()
    w = np.outer(wu, wv).ravel()
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    return QuadRuleTri(bary, w)


class ScalarTable(NamedTuple):
    values: np.ndarray       # (..., npts, ndim)
    gradients: np.ndarray    # (..., npts, ndim, 2)
    hessians: np.ndarray     # (..., npts, ndim, 2, 2)


class ScalarBasis:
    """The P3 scaled monomials on one triangle, or on a stack of
    triangles when ``centroid`` is (..., 2) and ``scale`` (...)."""

    def __init__(self, centroid, scale):
        self.centroid = np.asarray(centroid, dtype=float)
        self.scale = np.asarray(scale, dtype=float)

    def eval(self, points):
        """Tables at ``points`` (npts, 2); a stacked basis takes points
        (..., npts, 2) with its own leading axes."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.scale[..., None]
        xi = (points[..., 0] - self.centroid[..., 0, None]) / h
        ps = (points[..., 1] - self.centroid[..., 1, None]) / h
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

