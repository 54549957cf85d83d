"""Ultraweak DPG solver for the Kirchhoff-Love plate bending model.

Field unknowns (deflection, bending moments) live element-wise in L2;
skeleton unknowns carry deflection/slope traces and moment/shear traces.
Optimal test functions are approximated in an enriched broken polynomial
space, giving a symmetric positive definite condensed system and a
built-in residual error estimator that drives adaptive refinement.
"""

from .driver import (ConvergenceRecord, ExperimentConfig, Level, dorfler_mark,
                     eoc, experiment_levels, run_experiment, solve_problem)
from .dpg import (ElementSystems, EstimatorField, GlobalSystem, Solution,
                  assemble, condense, element_matrices, estimate)
from .errors import (ConfigurationError, MeshStructureError, SPDError,
                     SolverConvergenceError)
from .linalg import SolveReport, spd_solve
from .mesh import (Mesh, mesh_from_arrays, mesh_to_text, nvb_refine,
                   uniform_refine, unit_square_mesh)
from .polyquad import QuadRuleTri, p3_table, tri_rule
from .problems import (ExactSolution, ProblemSpec, Singularity,
                       builtin_square_problem, builtin_zshape_problem,
                       fourier_eval, l2_errors, singular_eval, zshape_mesh)
from .spaces import (BCSpec, Constraints, DofMap, build_dofmap,
                     interpolate_uhat_bc, simply_supported_bc)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
