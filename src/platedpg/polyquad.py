"""Polynomial bases on triangles and quadrature rules.

Scalar bases are scaled monomials ``((x-x_T)/h_T)^i ((y-y_T)/h_T)^j`` in
graded lexicographic order, evaluated with closed-form gradients and
Hessians.  Symmetric-tensor bases place each scalar function in the three
symmetric slots E11, E12, E22.  Triangle rules are built by the collapsed
(Duffy) map with Gauss-Legendre x Gauss-Jacobi points, which gives a
guaranteed exactness degree.
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
EDGE_POINTS = 5          # Gauss points per edge (exact to degree 9)

# symmetric slot tensors, ordered like the moment unknowns (M11, M12, M22)
SLOTS = np.array([[[1.0, 0.0], [0.0, 0.0]],
                  [[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, 0.0], [0.0, 1.0]]])


def _grlex_exponents(p):
    return [(d - j, j) for d in range(p + 1) for j in range(d + 1)]


def scalar_dim(p):
    return (p + 1) * (p + 2) // 2


@dataclass(frozen=True)
class QuadRuleTri:
    """Quadrature on the reference triangle (0,0),(1,0),(0,1).

    ``bary`` holds barycentric coordinates, weights sum to the reference
    area 1/2.
    """
    bary: np.ndarray
    weights: np.ndarray
    degree: int

    def map_to(self, tri_coords):
        """Physical points and weights for a triangle given by its three
        vertex coordinates (rows), or for a stack of them (..., 3, 2)."""
        tri_coords = np.asarray(tri_coords, dtype=float)
        pts = self.bary @ tri_coords
        d1 = tri_coords[..., 1, :] - tri_coords[..., 0, :]
        d2 = tri_coords[..., 2, :] - tri_coords[..., 0, :]
        area = 0.5 * abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
        return pts, self.weights * (2.0 * area)[..., None]


@dataclass(frozen=True)
class QuadRuleEdge:
    """Gauss-Legendre rule on [0, 1]; exact to degree 2n-1."""
    points: np.ndarray
    weights: np.ndarray
    degree: int


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
    return QuadRuleTri(bary, w, int(min_degree))


@lru_cache(maxsize=None)
def edge_rule(n_points=EDGE_POINTS):
    if not 1 <= int(n_points) <= 10:
        raise ConfigurationError(f"edge rule size {n_points} outside 1..10")
    x, w = roots_legendre(int(n_points))
    return QuadRuleEdge(0.5 * (x + 1.0), 0.5 * w, 2 * int(n_points) - 1)


class ScalarTable(NamedTuple):
    values: np.ndarray       # (..., npts, ndim)
    gradients: np.ndarray    # (..., npts, ndim, 2)
    hessians: np.ndarray     # (..., npts, ndim, 2, 2)


class TensorTable(NamedTuple):
    values: np.ndarray       # (..., npts, ndim, 2, 2)
    div: np.ndarray          # (..., npts, ndim, 2)
    divdiv: np.ndarray       # (..., npts, ndim)


class ScalarBasis:
    """Scaled monomials of total degree <= p on one triangle, or on a
    stack of triangles when ``centroid`` is (..., 2) and ``scale`` (...)."""

    def __init__(self, p, centroid, scale):
        self.p = int(p)
        self.centroid = np.asarray(centroid, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        expo = _grlex_exponents(self.p)
        self.exp_i = np.array([e[0] for e in expo])
        self.exp_j = np.array([e[1] for e in expo])
        self.dim = len(expo)

    def eval(self, points):
        """Tables at ``points`` (npts, 2); a stacked basis takes points
        (..., npts, 2) with its own leading axes."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.scale[..., None]
        xi = (points[..., 0] - self.centroid[..., 0, None]) / h
        ps = (points[..., 1] - self.centroid[..., 1, None]) / h
        h = h[..., None, None]
        # powers 0..p; a negative exponent reads power 0, the factor in
        # front of it is zero then
        X = xi[..., None] ** np.arange(self.p + 1)
        Y = ps[..., None] ** np.arange(self.p + 1)
        i, j = self.exp_i, self.exp_j
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


class TensorBasis:
    """Symmetric 2x2 tensor fields with polynomial entries: each scalar
    basis function placed in the slots E11, E12, E22 (scalar-major)."""

    def __init__(self, p, centroid, scale):
        self.scalar = ScalarBasis(p, centroid, scale)
        self.p = int(p)
        self.dim = 3 * self.scalar.dim

    def eval(self, points):
        vals, grads, hess = self.scalar.eval(points)
        lead = vals.shape[:-1]
        values = np.einsum("...a,kij->...akij", vals, SLOTS)
        values = values.reshape(lead + (self.dim, 2, 2))

        div = np.zeros(vals.shape + (3, 2))
        div[..., 0, 0] = grads[..., 0]                      # E11
        div[..., 1, 0] = grads[..., 1]                      # E12
        div[..., 1, 1] = grads[..., 0]
        div[..., 2, 1] = grads[..., 1]                      # E22
        div = div.reshape(lead + (self.dim, 2))

        divdiv = np.stack([hess[..., 0, 0],
                           2.0 * hess[..., 0, 1],
                           hess[..., 1, 1]], axis=-1)
        divdiv = divdiv.reshape(lead + (self.dim,))
        return TensorTable(values, div, divdiv)
