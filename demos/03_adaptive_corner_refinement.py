"""Singular benchmark: clamped plate with a reentrant corner.

The exact deflection behaves like r^(1+0.674) at the corner, so its
moment field is too rough for uniform refinement: the estimator and
moment error converge only at the suboptimal order alpha/2 = 0.337.
The adaptive loop (estimate, bulk-mark with theta = 1/2, bisect)
restores the optimal order 1/2 by concentrating elements at the corner.
"""

import numpy as np

from platedpg import dorfler_mark, l2_errors, solve_problem
from platedpg.mesh import nvb_refine, uniform_refine
from platedpg.problems import builtin_zshape_problem


def study(mode, stop_dofs=12_000):
    problem = builtin_zshape_problem()
    mesh = problem.initial_mesh
    rows = []
    while True:
        solution, estimator, _, ndofs = solve_problem(problem, mesh)
        _, err_M = l2_errors(mesh, solution, problem.exact)
        rows.append((ndofs, estimator.total, err_M))
        if ndofs >= stop_dofs:
            break
        if mode == "uniform":
            mesh = uniform_refine(mesh)
        else:
            marked = dorfler_mark(estimator.per_element, 0.5)
            mesh = nvb_refine(mesh, marked)
    return rows, mesh


for mode in ("uniform", "adaptive"):
    rows, mesh = study(mode)
    logN = np.log([r[0] for r in rows[len(rows) // 2:]])
    slope_eta = -np.polyfit(logN, np.log([r[1] for r in rows[len(rows) // 2:]]), 1)[0]
    slope_M = -np.polyfit(logN, np.log([r[2] for r in rows[len(rows) // 2:]]), 1)[0]
    print(f"\n{mode} refinement ({len(rows)} levels, final N = {rows[-1][0]}):")
    print(f"{'N':>7} {'eta':>10} {'err_M':>10}")
    for n, eta, em in rows[:: max(1, len(rows) // 6)]:
        print(f"{n:>7} {eta:10.3e} {em:10.3e}")
    print(f"  slopes over the final half: eta {slope_eta:.3f}, "
          f"err_M {slope_M:.3f}")
    if mode == "adaptive":
        gmax = mesh.generation.max()
        finest = np.nonzero(mesh.generation == gmax)[0]
        frac = np.mean(np.linalg.norm(mesh.tri_centroid[finest], axis=1) < 0.25)
        print(f"  finest-generation triangles within 0.25 of the corner: "
              f"{100 * frac:.0f}%  (min diameter {mesh.tri_diam.min():.1e})")

print("\nexpected: uniform slope ~ 0.337 (= alpha/2), adaptive ~ 0.5")
