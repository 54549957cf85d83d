"""Element-local DPG computations and global assembly, batched over all
triangles of a mesh.

The enriched test space is defined here only: per element the 10 scaled
P3 monomials z_i and 18 symmetric P2 tensors, ``phi_a S_k`` at index
``3 a + k`` (phi_a the first six monomials, S_k in :data:`SLOTS`) except
13 and 17, rebased to ``xi eta S12 - xi^2 S11`` and ``eta^2 S22 - xi^2
S11`` (:data:`REBASE`).  ``xi^2 S11``, ``xi eta S12`` and ``eta^2 S22``
share the divdiv 2/h^2, so in the ``phi_a S_k`` basis Cholesky pivots 13
and 17 of the tensor Gram cancel an h^-2 divdiv part down to an h^2 mass
part, to nothing once h^4 nears the rounding unit.  The rebased two have
divdiv exactly 0.0, as REBASE acts on the divdiv table before it is
integrated (and on the mass part and B), never on the finished G.  Both
skeleton pairings read one P3 table at the edge points and corners.
The local trial-to-test matrix B is 28 x 22; its trial columns are
written through the slots of :mod:`~platedpg.spaces`

    U | M (M11 M12 M22) | UHAT (3 per CCW vertex) |
    ALPHA, BETA (per edge) | GAMMA (per CCW vertex)

The Gram matrix G of the broken test norm is block diagonal.
:func:`element_matrices` stacks B (n, 28, 22) and G (n, 28, 28) of n
triangles at once; :func:`condense` factors every ``G = L L^T`` and keeps
only ``W = L^{-1} B`` and ``v = L^{-1} load``.  These serve both the
condensed blocks
``A_T = B^T G^{-1} B = W^T W`` and the residual estimator
``eta_T = ||v - W x_T||``.

B and G depend only on the congruence class of a triangle, and newest-
vertex bisection makes few classes.  :func:`build_element_systems` keys a
triangle by its vertex offsets ``P - P_0 = 2**e Q`` in ``tri_vertices``
order, exact (:func:`~platedpg.mesh.dyadic_shape`), and by its edge signs,
and builds B and G for the first triangle of each class only.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ConfigurationError, SPDError
from .mesh import dyadic_shape
from .polyquad import ASSEMBLY_RULE, EDGE_NODES, EDGE_WEIGHTS, p3_table
from .spaces import (ALPHA, BETA, GAMMA, M, N_TRIAL, U, UHAT, DofMap,
                     ElementGeometry, uhat_edge_traces)

N_SCALAR = 10
N_TENSOR = 18
N_TEST = N_SCALAR + N_TENSOR
# triangles per gather of class data: W[cls] for all triangles at once is
# a per-triangle copy of W, which would raise the peak memory
CHUNK = 256

# symmetric slot tensors, ordered like the moment unknowns (M11, M12, M22)
SLOTS = np.array([[[1.0, 0.0], [0.0, 0.0]],
                  [[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, 0.0], [0.0, 1.0]]])

# tensor test function j in terms of the phi_a S_k: column j
REBASE = np.eye(N_TENSOR)
REBASE[9, [13, 17]] = -1.0


def _sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def element_matrices(geom: ElementGeometry):
    """B (n, 28, 22) and G (n, 28, 28) of the n triangles of a stacked
    :class:`ElementGeometry`."""
    n = geom.P.shape[0]
    B = np.zeros((n, N_TEST, N_TRIAL))
    G = np.zeros((n, N_TEST, N_TEST))
    _volume_terms(geom, B, G)
    _skeleton_terms(geom, B)
    return B, G


def _volume_terms(geom, B, G):
    """G and the volume-integral columns of B."""
    n = B.shape[0]
    _, w, table = geom.volume_table
    vals, hess = table.values, table.hessians
    # divdiv(phi_a S_k) = Hess(phi_a) : S_k, then of the rebased functions
    phi = vals[..., :6]
    divdiv = np.einsum("tqaij,kij->tqak", hess[..., :6, :, :],
                       SLOTS).reshape(n, -1, N_TENSOR) @ REBASE
    slot_products = np.einsum("kij,lij->kl", SLOTS, SLOTS)

    G[:, :N_SCALAR, :N_SCALAR] = _sym(
        np.einsum("tq,tqi,tqj->tij", w, vals, vals)
        + np.einsum("tq,tqiab,tqjab->tij", w, hess, hess))
    mass2 = np.einsum("tq,tqa,tqb->tab", w, phi, phi)
    mass = np.einsum("tab,kl->takbl", mass2, slot_products).reshape(
        n, N_TENSOR, N_TENSOR)
    G[:, N_SCALAR:, N_SCALAR:] = _sym(
        REBASE.T @ mass @ REBASE
        + np.einsum("tq,tqi,tqj->tij", w, divdiv, divdiv))

    # scalar test rows: moment columns (M_j, Hess z_i)_T
    hints = np.einsum("tq,tqiab->tiab", w, hess)
    B[:, :N_SCALAR, M] = np.einsum("tiab,kab->tik", hints, SLOTS)

    # tensor test rows: u column (1, divdiv Theta_i)_T
    B[:, N_SCALAR:, U] = np.einsum("tq,tqi->ti", w, divdiv)

    # tensor test rows: moment columns (M_j, Theta_i)_T, the integrated
    # phi_a times the slot products
    B[:, N_SCALAR:, M] = REBASE.T @ np.einsum(
        "tqa,tq,kl->takl", phi, w, slot_products).reshape(n, N_TENSOR, 3)


def _load(f, qpts, w, vals):
    """Load rows ``-(f, z_i)_T`` (n, 28) from the P3 value table (n, nq,
    10) at the quadrature points; zero in the tensor rows."""
    load = np.zeros(w.shape[:1] + (N_TEST,))
    fq = np.asarray(f(qpts.reshape(-1, 2)), dtype=float)
    if fq.size != w.size or not np.isfinite(fq).all():
        raise ConfigurationError("load f is not one finite value per point")
    load[:, :N_SCALAR] = -np.einsum("tq,tq,tqi->ti", w, fq.reshape(w.shape),
                                    vals)
    return load


def _skeleton_terms(geom, B):
    """The columns of B that pair test functions with the trace unknowns."""
    n = B.shape[0]
    ne = len(EDGE_NODES)
    pts = np.concatenate([geom.edge_points(k, EDGE_NODES) for k in range(3)]
                         + [geom.P], axis=1)
    table = p3_table(geom.centroid, geom.diam, pts)
    evals = table.values[:, :3 * ne].reshape(n, 3, ne, N_SCALAR)
    egrads = table.gradients[:, :3 * ne].reshape(n, 3, ne, N_SCALAR, 2)
    # scalar test rows: qhat columns through the skeleton duality
    s = geom.sign[:, None, :]
    B[:, :N_SCALAR, ALPHA] = s * np.einsum("e,tkei->tik", EDGE_WEIGHTS,
                                           evals)
    B[:, :N_SCALAR, BETA] = -s * np.einsum("e,tkeid,tkd->tik",
                                           EDGE_WEIGHTS, egrads, geom.nrm)
    B[:, :N_SCALAR, GAMMA] = -np.swapaxes(table.values[:, 3 * ne:], 1, 2)

    # tensor test rows: uhat columns, -<uhat, Theta>, from the P2 part
    B[:, N_SCALAR:, UHAT] = -REBASE.T @ uhat_pair_matrix(
        geom, evals[..., :6], egrads[..., :6, :])


def uhat_pair_matrix(geom, phi, gphi):
    """Skeleton pairing of every tensor test function against every local
    uhat unit DOF; shape (..., 18, 9).  ``phi`` (..., 3, q, 6) and
    ``gphi`` (..., 3, q, 6, 2) are the P2 values and gradients at the
    edge quadrature points of the three local edges.

    Entry (i, j) is the boundary duality of tensor test function i with
    the edge traces induced by uhat unit DOF j: the integral over each
    edge of ``(n.div Theta) z - (Theta n) . grad z`` with the element's
    outward normal n.  For ``Theta = phi S`` (scalar phi, symmetric slot
    S) the integrand is ``(S n) . (z grad phi - phi grad z)``.
    """
    w = EDGE_WEIGHTS
    out = 0.0
    for k in range(3):
        zq, gradq = uhat_edge_traces(geom, k, EDGE_NODES)
        X = (np.einsum("q,...qai,...qj->...aij", w, gphi[..., k, :, :, :], zq)
             - np.einsum("q,...qa,...qij->...aij", w, phi[..., k, :, :],
                         gradq))
        n_out = geom.sign[..., k, None] * geom.nrm[..., k, :]
        Sn = np.einsum("kij,...j->...ki", SLOTS, n_out)
        pair = np.einsum("...ki,...aij->...akj", Sn, X)
        out = out + (geom.length[..., k, None, None, None] * pair).reshape(
            pair.shape[:-3] + (N_TENSOR, 9))
    return out


def condense(B, G, load, cls):
    """Factor each Gram ``G_c = L_c L_c^T`` of a stack; return
    ``W_c = L_c^{-1} B_c`` and ``v_t = L_c^{-1} load_t`` for each load row
    t, ``c = cls[t]``, from one triangular solve per Gram.
    Then ``B^T G^{-1} B = W^T W`` and ``B^T G^{-1} load = W^T v``.

    One LAPACK Cholesky factors the whole stack.  If it fails, the first
    Gram c that LAPACK cannot factor alone raises :class:`SPDError`
    naming the first triangle of its class, the smallest t with
    ``cls[t] == c``, and the failed pivot with its value; if none, a
    plain :class:`SPDError` says so.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        for c, g in enumerate(G):
            f, info = scipy.linalg.lapack.dpotrf(g, lower=True)
            if info > 0:      # f[k, k] holds the failed pivot
                k, t = info - 1, int(np.argmax(cls == c))
                raise SPDError(f"element Gram matrix {t} is not SPD: pivot "
                               f"{k} = {f[k, k]:.3e}", pivot=k,
                               index=(t,)) from None
        raise SPDError("the stacked Cholesky failed, but every element "
                       "Gram matrix factors alone") from None
    bounds = np.cumsum(np.bincount(cls, minlength=len(G)))[:-1]
    # C-contiguous W and v: W^T W and W x pick matmul kernels by layout;
    # the loads share B's solve, since v solved alone differs in its bits
    W, v, nb = np.empty_like(B), np.empty_like(load), B.shape[-1]
    for c, rows in enumerate(np.split(np.argsort(cls, kind="stable"),
                                      bounds)):
        X = scipy.linalg.solve_triangular(
            L[c], np.column_stack([B[c], load[rows].T]), lower=True)
        W[c], v[rows] = X[:, :nb], X[:, nb:].T
    return W, v


@dataclass
class ElementSystems:
    """Condensed element data of a mesh; W and G per congruence class."""
    W: np.ndarray          # (nC, 28, 22) L^{-1} B
    v: np.ndarray          # (nT, 28)     L^{-1} load
    scatter: np.ndarray    # (nT, 22)     full-vector indices of the DOFs
    G: np.ndarray          # (nC, 28, 28) read only
    cls: np.ndarray        # (nT,)        class of each triangle

    @property
    def locals(self):
        """One view exposing ``G`` per class: the hook through which
        perfbench/tracing.py reports the worst Gram conditioning."""
        return [SimpleNamespace(G=g) for g in self.G]


def build_element_systems(mesh, dofmap, f):
    """B and G per congruence class, the load of every triangle (none for
    ``f = None``), condensed into :class:`ElementSystems`."""
    P = np.take(mesh.coords, mesh.tri_vertices, axis=0)
    Q, e = dyadic_shape(P - P[:, :1])
    key = np.column_stack([Q.reshape(-1, 6), e, mesh.edge_sign])
    # rows compared as bytes: exact values, and no -0.0 since x - x = +0.0
    _, first, cls = np.unique(key.view(f"V{key[0].nbytes}")[:, 0],
                              return_index=True, return_inverse=True)
    reps = ElementGeometry(mesh, first)
    B, G = element_matrices(reps)
    load = np.zeros((len(cls), N_TEST))
    if f is not None:  # P3 values at (x_q - c) / h depend only on the class
        vals = reps.volume_table[2].values
        load = _load(f, *ASSEMBLY_RULE.map_to(P), vals[cls])
    W, v = condense(B, G, load, cls)
    G.flags.writeable = False
    scatter = dofmap.element_scatter(mesh, np.arange(len(cls)))
    return ElementSystems(W, v, scatter, G, cls)


@dataclass
class GlobalSystem:
    """Condensed normal equations on the free DOFs, diagonally
    equilibrated: ``(D A D) y = D rhs`` with ``D = diag(A)^{-1/2}``
    balances the very different scales of field, trace and moment
    unknowns (the raw diagonal spans many orders of magnitude already on
    moderate meshes); ``scale * y`` undoes it.  ``systems`` are the
    element systems it was assembled from."""
    A: "scipy.sparse.csr_matrix"
    rhs: np.ndarray
    systems: ElementSystems
    scale: np.ndarray


def _class_block_csr(blocks, cls, scatter, n):
    """n x n CSR sum of ``blocks[cls[t]]`` at rows and columns ``scatter[t]``,
    with no per-triangle copy.  Row r lists the block rows (t, a) with
    ``scatter[t, a] == r`` by t, then a, as ``coo_matrix.tocsr`` orders the
    triplets (t, a, b), so the duplicate sums give the same bits."""
    k = scatter.shape[1]
    t, a = np.divmod(np.argsort(scatter.ravel(), kind="stable"), k)
    indptr = np.cumsum(np.r_[0, k * np.bincount(scatter.ravel(), minlength=n)])
    data, cols = blocks[cls[t], a].ravel(), scatter[t].ravel()
    A = sp.csr_matrix((data, cols, indptr), shape=(n, n))
    A.sum_duplicates()
    return A


def _symmetrize(A):
    """Replace canonical CSR ``A`` by ``0.5 * (A + A.T)`` in place, to the
    bit and to the stored entry.  A is first laid on the union of its
    pattern P and its transpose's, the pattern of the int8 ``2 P + P.T``
    (entries 2 and 3 are A's); then each sum, ``a + b``, ``a + 0.0`` or
    ``0.0 + b``, is formed, exact zeros dropped and the rest halved (a
    half that underflows stays stored).  The union is built before A.T
    and A's arrays are rebound to it, so no second copy of A is alive."""
    P = sp.csr_matrix((np.ones(A.nnz, np.int8), A.indices, A.indptr),
                      shape=A.shape)
    U = 2 * P + P.T.tocsr()
    del P
    data = np.zeros(U.nnz)
    data[U.data >= 2] = A.data
    A.data, A.indices, A.indptr = data, U.indices, U.indptr
    del U, data
    A.data += A.T.tocsr().data
    A.eliminate_zeros()
    A.data *= 0.5


def assemble(mesh, dofmap, problem):
    """Build the element systems of the mesh and assemble the condensed SPD
    system on the free DOFs; the right-hand side carries the essential-BC
    shift ``-A x_fixed``.  No per-triangle copy of class data is held:
    ``W^T W`` is scattered per class, ``W^T v`` formed by chunks.  R^T
    A_full R is formed as two sparse products, the second once A_full is
    freed; it is then scaled and symmetrized in place."""
    systems = build_element_systems(mesh, dofmap, problem.f)
    W, v, idx, cls = systems.W, systems.v, systems.scatter, systems.cls
    A_full = _class_block_csr(_sym(np.swapaxes(W, 1, 2) @ W), cls, idx,
                             dofmap.full_dim)
    b_T = np.concatenate([np.einsum("tij,ti->tj", W[cls[i:i + CHUNK]],
                                    v[i:i + CHUNK])
                          for i in range(0, len(cls), CHUNK)])
    b_full = np.bincount(idx.ravel(), weights=b_T.ravel(),
                         minlength=dofmap.full_dim)
    RT = dofmap.rt()
    rhs = RT @ (b_full - A_full @ dofmap.fixed_full())
    A_full.eliminate_zeros()   # the u and uhat rows miss the qhat columns
    A = RT @ A_full
    del A_full
    A = A @ RT.T
    A.sort_indices()
    diag = A.diagonal()
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.maximum(diag, 1e-300)), 1.0)
    # D A D in place, entry by entry (a_ij d_i) d_j
    A.data *= np.repeat(scale, np.diff(A.indptr))
    A.data *= scale[A.indices]
    _symmetrize(A)
    return GlobalSystem(A=A, rhs=scale * rhs, systems=systems, scale=scale)


@dataclass
class Solution:
    """Full trial coefficient vector with block views."""
    dofmap: DofMap
    x_full: np.ndarray

    @property
    def u(self):
        return self.x_full[:self.dofmap.off_m]

    @property
    def M(self):
        d = self.dofmap
        return self.x_full[d.off_m:d.off_uhat].reshape(-1, 3)


@dataclass
class EstimatorField:
    """Per-element residual estimator contributions."""
    per_element: np.ndarray

    @property
    def total(self):
        return float(np.sqrt(np.sum(self.per_element ** 2)))


def estimate(systems: ElementSystems, x_full):
    """DPG error estimator: per element the dual norm of the residual in
    the discrete test space, ``eta_T^2 = r_T^T G_T^{-1} r_T`` with
    ``r_T = load_T - B_T x_T``, i.e. ``eta_T = ||v_T - W_T x_T||``, for the
    full coefficient vector ``x_full``; ``W x_T`` is formed by chunks."""
    W, v, cls, x = systems.W, systems.v, systems.cls, x_full[systems.scatter]
    r = np.concatenate([v[i:i + CHUNK] - (W[cls[i:i + CHUNK]]
                                          @ x[i:i + CHUNK, :, None])[..., 0]
                        for i in range(0, len(x), CHUNK)])
    return EstimatorField(per_element=np.linalg.norm(r, axis=1))
