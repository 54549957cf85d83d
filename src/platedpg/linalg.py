"""Dense symmetric factorizations and the sparse SPD solve.

The solver contract is a residual bound, not an algorithm: the assembled
systems are small enough for a sparse direct factorization, which is
polished with iterative refinement; a Jacobi-preconditioned conjugate
gradient loop serves as fallback.
"""

from dataclasses import dataclass
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverConvergenceError, SPDError


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    wall_time: float


def dense_cholesky(A):
    """Lower Cholesky factor of a symmetric positive definite matrix, or
    of every matrix of a stack (..., n, n).

    Raises :class:`SPDError` naming the first nonpositive pivot and, for a
    stack, the matrix it belongs to.  A stack runs the same BLAS dot and
    matrix-vector products per matrix as a single matrix does, so each
    factor is the same to the last bit either way.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != n:
        raise ValueError("dense_cholesky expects square matrices")
    L = np.zeros_like(A)
    for k in range(n):
        col = L[..., k, :k, None]
        d = A[..., k, k] - (L[..., k, None, :k] @ col)[..., 0, 0]
        ok = np.isfinite(d) & (d > 0.0)
        if not np.all(ok):
            at = tuple(np.argwhere(~ok)[0])      # () for a single matrix
            name = "matrix" + "".join(f" {i}" for i in at)
            raise SPDError(f"{name} is not SPD: pivot {k} = {d[at]:.3e}",
                           pivot=k)
        L[..., k, k] = np.sqrt(d)
        if k + 1 < n:
            L[..., k + 1:, k] = ((A[..., k + 1:, k]
                                  - (L[..., k + 1:, :k] @ col)[..., 0])
                                 / L[..., k, k, None])
    return L


def sparse_from_triplets(rows, cols, values, n):
    """Symmetric sparse matrix from scatter triplets; duplicate entries
    are summed."""
    A = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


def spd_solve(A, b, tol=1e-12):
    """Solve A x = b for sparse SPD A with ``||Ax-b|| <= tol ||b||``.

    Sparse LU plus iterative refinement; falls back to diagonally
    preconditioned conjugate gradients.  Raises
    :class:`SolverConvergenceError` with the attached report if the
    iteration cap (10 n) is exceeded.
    """
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, time.perf_counter() - t0)

    def rel_res(x):
        return np.linalg.norm(A @ x - b) / norm_b

    try:
        lu = spla.splu(A.tocsc())
        x = lu.solve(b)
        best = rel_res(x)
        for _ in range(30):
            if best <= tol:
                break
            x_new = x + lu.solve(b - A @ x)
            r_new = rel_res(x_new)
            if r_new < best:
                x, best = x_new, r_new
            if r_new >= 0.5 * best:
                break
        if best <= tol:
            return x, SolveReport(0, best, time.perf_counter() - t0)
    except RuntimeError:
        x = np.zeros(n)

    # conjugate gradients with Jacobi scaling
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SPDError("assembled matrix has a nonpositive diagonal entry",
                       pivot=int(np.argmin(diag)))
    inv_diag = 1.0 / diag
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    max_iter = 10 * n
    it = 0
    while it < max_iter:
        it += 1
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        if np.linalg.norm(r) <= tol * norm_b:
            if rel_res(x) <= tol:
                return x, SolveReport(it, rel_res(x),
                                      time.perf_counter() - t0)
            # the recurrence drifted; restart from the true residual
            r = b - A @ x
            z = inv_diag * r
            p = z.copy()
            rz = r @ z
            continue
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    report = SolveReport(max_iter, rel_res(x), time.perf_counter() - t0)
    raise SolverConvergenceError(
        f"CG did not reach tol={tol:g} within {max_iter} iterations "
        f"(relative residual {report.relative_residual:.3e})", report=report)
