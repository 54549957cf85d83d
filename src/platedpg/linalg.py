"""The sparse SPD solve.

``spd_solve`` factors A once with SuperLU in symmetric mode (minimum-degree
ordering on the pattern of A^T + A, diagonal pivots: Cholesky in all but
name) and refines the solution while its normwise backward error improves.
"""

from dataclasses import dataclass
import logging

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverConvergenceError, SPDError

logger = logging.getLogger(__name__)


@dataclass
class SolveReport:
    iterations: int                  # iterative refinement steps
    relative_residual: float         # ||Ax-b||_2 / ||b||_2
    backward_error: float = 0.0      # ||Ax-b||_inf / (||A|| ||x|| + ||b||)
    fill: int = 0                    # entries SuperLU stores for L and U


def spd_solve(A, b, tol=1e-12):
    """Solve A x = b for sparse SPD A to a normwise backward error
    ``||Ax-b||_inf / (||A||_inf ||x||_inf + ||b||_inf) <= tol``.

    A must be exactly symmetric: SuperLU factors ``A.T`` in CSC form, which
    for a CSR matrix is A's own arrays, not a copy.  One factorization,
    refined while the backward error improves (at most 30 steps).  Raises
    :class:`SPDError` if A is exactly singular and
    :class:`SolverConvergenceError`, with the report attached, if the
    bound is missed.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, 0.0)
    norm_A, scale_b = spla.norm(A, np.inf), np.abs(b).max()

    def berr(x, r):
        return np.abs(r).max() / (norm_A * np.abs(x).max() + scale_b)

    try:
        lu = spla.splu(A.T.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SPDError(f"sparse factorization failed: {exc}") from None
    x = lu.solve(b)
    r = b - A @ x
    best, steps = berr(x, r), 0
    while best > tol and steps < 30:
        x_new = x + lu.solve(r)
        r_new = b - A @ x_new
        err = berr(x_new, r_new)
        if not err < best:
            break
        x, r, best, steps = x_new, r_new, err, steps + 1

    fill = lu.nnz            # lu.L and lu.U would each build a CSC copy
    report = SolveReport(steps, np.linalg.norm(r) / norm_b, best, fill)
    logger.debug("spd_solve LU: n=%d nnz=%d fill=%d refinement_steps=%d "
                 "backward_error=%.2e relative_residual=%.2e", n, A.nnz,
                 fill, steps, best, report.relative_residual)
    if not best <= tol:
        raise SolverConvergenceError(
            f"LU with {steps} refinement steps did not reach backward error "
            f"tol={tol:g} (backward error {best:.3e})", report=report)
    return x, report
