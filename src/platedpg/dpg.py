"""Element-local DPG computations and global assembly, batched over all
triangles of a mesh.

Per element the enriched test space is P3 scalars (10 functions) times
symmetric P2 tensors (18 functions).  The local trial-to-test matrix B is
28 x 22 with trial columns in the fixed order

    u | M11 M12 M22 | uhat (3 per CCW vertex) | per edge (alpha, beta) |
    gamma (per CCW vertex)

The Gram matrix G of the broken test norm is block diagonal.
:func:`element_matrices` stacks B (nT, 28, 22), G (nT, 28, 28) and the
load (nT, 28) of all triangles at once; :func:`condense` factors every
``G_T = L L^T`` and keeps only ``W = L^{-1} B`` and ``v = L^{-1} load``.
These serve both the condensed blocks
``A_T = B^T G^{-1} B = W^T W`` and the residual estimator
``eta_T = ||v - W x_T||``.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import SPDError
from .linalg import dense_cholesky, sparse_from_triplets
from .mesh import Mesh
from .polyquad import (ASSEMBLY_DEGREE, EDGE_POINTS, SLOTS, edge_rule,
                       tri_rule)
from .problems import MaterialLaw, cinv_apply
from .spaces import DofMap, ElementGeometry, uhat_pair_matrix

N_SCALAR = 10
N_TENSOR = 18
N_TEST = N_SCALAR + N_TENSOR
N_TRIAL = 22

def _sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def element_matrices(geom: ElementGeometry, material, f):
    """B (n, 28, 22), G (n, 28, 28) and load (n, 28) of the n triangles of
    a stacked :class:`ElementGeometry`."""
    n = geom.area.shape[0]
    B = np.zeros((n, N_TEST, N_TRIAL))
    G = np.zeros((n, N_TEST, N_TEST))
    load = np.zeros((n, N_TEST))
    _volume_terms(geom, material, f, B, G, load)
    _skeleton_terms(geom, B)
    return B, G, load


def _volume_terms(geom, material, f, B, G, load):
    """G, the load and the columns of B that are volume integrals."""
    n = B.shape[0]
    qpts, w = tri_rule(ASSEMBLY_DEGREE).map_to(geom.P)
    table = geom.scalar_basis(3).eval(qpts)
    vals, hess = table.values, table.hessians
    # the tensor test functions are the scalar P2 functions phi_a (the
    # first six scaled P3 monomials) times the slots S_k, index 3 a + k;
    # divdiv(phi S) = Hess(phi) : S
    phi = vals[..., :6]
    divdiv = np.einsum("tqaij,kij->tqak", hess[..., :6, :, :],
                       SLOTS).reshape(n, -1, N_TENSOR)
    slot_products = np.einsum("kij,lij->kl", SLOTS, SLOTS)

    G[:, :N_SCALAR, :N_SCALAR] = _sym(
        np.einsum("tq,tqi,tqj->tij", w, vals, vals)
        + np.einsum("tq,tqiab,tqjab->tij", w, hess, hess))
    mass2 = np.einsum("tq,tqa,tqb->tab", w, phi, phi)
    G[:, N_SCALAR:, N_SCALAR:] = _sym(
        np.einsum("tab,kl->takbl", mass2, slot_products).reshape(
            n, N_TENSOR, N_TENSOR)
        + np.einsum("tq,tqi,tqj->tij", w, divdiv, divdiv))

    # scalar test rows: moment columns (M_j, Hess z_i)_T
    hints = np.einsum("tq,tqiab->tiab", w, hess)
    B[:, :N_SCALAR, 1:4] = np.einsum("tiab,kab->tik", hints, SLOTS)

    # tensor test rows: u column (1, divdiv Theta_i)_T
    B[:, N_SCALAR:, 0] = np.einsum("tq,tqi->ti", w, divdiv)

    # tensor test rows: moment columns (M_j, C^{-1} Theta_i)_T; C^{-1} is
    # linear, so it acts on the slots of the integrated phi_a
    cinv_slots = np.einsum("kab,lab->kl", cinv_apply(material, SLOTS), SLOTS)
    B[:, N_SCALAR:, 1:4] = np.einsum("tqa,tq,kl->takl", phi, w,
                                     cinv_slots).reshape(n, N_TENSOR, 3)

    if f is not None:
        fq = np.asarray(f(qpts.reshape(-1, 2)), dtype=float).reshape(w.shape)
        load[:, :N_SCALAR] = -np.einsum("tq,tq,tqi->ti", w, fq, vals)


def _skeleton_terms(geom, B):
    """The columns of B that pair test functions with the trace unknowns."""
    n = B.shape[0]
    # scalar test rows: qhat columns through the skeleton duality, from
    # the edge quadrature points of the three edges and the corners
    rule = edge_rule(EDGE_POINTS)
    ne = len(rule.points)
    pts = np.concatenate([geom.edge_points(k, rule.points) for k in range(3)]
                         + [geom.P], axis=1)
    table = geom.scalar_basis(3).eval(pts)
    evals = table.values[:, :3 * ne].reshape(n, 3, ne, N_SCALAR)
    egrads = table.gradients[:, :3 * ne].reshape(n, 3, ne, N_SCALAR, 2)
    s = geom.sign[:, None, :]
    B[:, :N_SCALAR, 13:19:2] = s * np.einsum("e,tkei->tik", rule.weights,
                                             evals)
    B[:, :N_SCALAR, 14:19:2] = -s * np.einsum("e,tkeid,tkd->tik",
                                              rule.weights, egrads, geom.nrm)
    B[:, :N_SCALAR, 19:22] = -np.swapaxes(table.values[:, 3 * ne:], 1, 2)

    # tensor test rows: uhat columns, -<uhat, Theta>
    B[:, N_SCALAR:, 4:13] = -uhat_pair_matrix(geom, geom.tensor_basis(2))


def _one_element(mesh, t, material, f):
    B, G, load = element_matrices(ElementGeometry(mesh, np.array([t])),
                                  material, f)
    return B[0], G[0], load[0]


def local_b(mesh, t, material):
    return _one_element(mesh, t, material, None)[0]


def local_gram(mesh, t):
    # G does not depend on the material law
    return _one_element(mesh, t, MaterialLaw(1.0, 0.0), None)[1]


def local_load(mesh, t, f):
    return _one_element(mesh, t, MaterialLaw(1.0, 0.0), f)[2]


def condense(B, G, load):
    """Stacked ``W = L^{-1} B`` and ``v = L^{-1} load`` with ``G = L L^T``,
    so that ``B^T G^{-1} B = W^T W`` and ``B^T G^{-1} load = W^T v``.

    The factors come from :func:`dense_cholesky`.  LAPACK's Cholesky is as
    accurate, but on the smallest adaptive elements (cond(G) up to 1e15)
    its other rounding moves ``A_T`` by about 1e-10 relative, which is
    enough to flip a near tie in the bulk marking and so change the
    adaptive mesh sequence.

    Raises :class:`SPDError` naming the element and the pivot.
    """
    try:
        L = dense_cholesky(G)
    except SPDError as exc:
        raise SPDError(f"element Gram {exc}", pivot=exc.pivot) from None
    W = scipy.linalg.solve_triangular(L, B, lower=True)
    v = scipy.linalg.solve_triangular(L, load[..., None], lower=True)
    return W, v[..., 0]


@dataclass
class ElementSystems:
    """Condensed element data of a whole mesh (``G_T = L L^T``)."""
    W: np.ndarray          # (nT, 28, 22) L^{-1} B
    v: np.ndarray          # (nT, 28)     L^{-1} load
    scatter: np.ndarray    # (nT, 22)     full-vector indices of the DOFs
    G: np.ndarray          # (nT, 28, 28) read only

    @property
    def locals(self):
        """Per-element views exposing ``G``: the hook through which
        perfbench/tracing.py reports the worst Gram conditioning."""
        return [SimpleNamespace(G=g) for g in self.G]


def build_element_systems(mesh, dofmap, material, f):
    elements = np.arange(mesh.num_triangles)
    B, G, load = element_matrices(ElementGeometry(mesh, elements),
                                  material, f)
    W, v = condense(B, G, load)
    G.flags.writeable = False
    return ElementSystems(W, v, dofmap.element_scatter(elements), G)


@dataclass
class GlobalSystem:
    """Condensed normal equations on the free DOFs plus the affine shift
    data needed to recover full coefficient vectors.

    The free unknowns are diagonally equilibrated: the exposed system is
    ``(D A D) y = D rhs`` with ``D = diag(A)^{-1/2}``, which balances the
    vastly different natural scales of field, trace and moment unknowns
    (the raw diagonal spans many orders of magnitude already on moderate
    meshes).  ``recover_free`` undoes the scaling.
    """
    A: "scipy.sparse.csr_matrix"
    rhs: np.ndarray
    dofmap: DofMap
    systems: ElementSystems
    scale: np.ndarray

    def recover_free(self, y):
        return self.scale * y


def assemble(mesh, dofmap, problem, systems: Optional[ElementSystems] = None):
    """Assemble the condensed SPD system on the free DOFs; the right-hand
    side carries the essential-BC shift ``-A x_prescribed``."""
    if systems is None:
        systems = build_element_systems(mesh, dofmap, problem.material,
                                        problem.f)
    W, idx = systems.W, systems.scatter
    A_T = _sym(np.swapaxes(W, 1, 2) @ W)
    b_T = np.einsum("tij,ti->tj", W, systems.v)
    rows = np.repeat(idx, N_TRIAL, axis=1).ravel()
    cols = np.tile(idx, N_TRIAL).ravel()
    A_full = sparse_from_triplets(rows, cols, A_T.ravel(), dofmap.full_dim)
    b_full = np.bincount(idx.ravel(), weights=b_T.ravel(),
                         minlength=dofmap.full_dim)
    R = dofmap.R
    A = (R.T @ A_full @ R).tocsr()
    rhs = np.asarray(R.T @ (b_full - A_full @ dofmap.x_prescribed)).ravel()
    diag = A.diagonal()
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.maximum(diag, 1e-300)), 1.0)
    D = sp.diags(scale)
    A = (D @ A @ D).tocsr()
    A = 0.5 * (A + A.T)
    return GlobalSystem(A=A, rhs=scale * rhs, dofmap=dofmap,
                        systems=systems, scale=scale)


@dataclass
class Solution:
    """Full trial coefficient vector with block views."""
    mesh: Mesh
    dofmap: DofMap
    x_full: np.ndarray

    @property
    def u(self):
        d = self.dofmap
        return self.x_full[d.off_u:d.off_m]

    @property
    def M(self):
        d = self.dofmap
        return self.x_full[d.off_m:d.off_uhat].reshape(-1, 3)

    @property
    def uhat(self):
        d = self.dofmap
        return self.x_full[d.off_uhat:d.off_alpha].reshape(-1, 3)

    @property
    def qhat_alpha(self):
        d = self.dofmap
        return self.x_full[d.off_alpha:d.off_beta]

    @property
    def qhat_beta(self):
        d = self.dofmap
        return self.x_full[d.off_beta:d.off_gamma]

    @property
    def qhat_gamma(self):
        d = self.dofmap
        return self.x_full[d.off_gamma:].reshape(-1, 3)


@dataclass
class EstimatorField:
    """Per-element residual estimator contributions."""
    per_element: np.ndarray

    @property
    def total(self):
        return float(np.sqrt(np.sum(self.per_element ** 2)))


def estimate(mesh, dofmap, problem, solution,
             systems: Optional[ElementSystems] = None):
    """DPG error estimator: per element the dual norm of the residual in
    the discrete test space, ``eta_T^2 = r_T^T G_T^{-1} r_T`` with
    ``r_T = load_T - B_T x_T``, i.e. ``eta_T = ||v_T - W_T x_T||``."""
    if systems is None:
        systems = build_element_systems(mesh, dofmap, problem.material,
                                        problem.f)
    x = solution.x_full[systems.scatter]
    r = systems.v - (systems.W @ x[..., None])[..., 0]
    return EstimatorField(per_element=np.linalg.norm(r, axis=1))
