"""Exception types shared across the package."""


class MeshStructureError(Exception):
    """Invalid mesh topology or geometry (non-conforming input, inverted
    triangle, edge shared by more than two triangles)."""


class ConfigurationError(Exception):
    """Invalid user-facing configuration (unsupported quadrature degree,
    over-constrained boundary conditions, bad experiment parameters)."""


class SPDError(Exception):
    """A matrix expected to be symmetric positive definite is not.

    Carries the index of the offending pivot and, for a stack of
    matrices, the stack index (a tuple) of the offending matrix, when known.
    """

    def __init__(self, message, pivot=None, index=None):
        super().__init__(message)
        self.pivot = pivot
        self.index = index


class SolverConvergenceError(Exception):
    """The linear solver failed to reach the requested residual.

    Carries the :class:`~platedpg.linalg.SolveReport` of the failed attempt.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
