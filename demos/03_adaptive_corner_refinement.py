"""Singular benchmark: clamped plate with a reentrant corner.

The exact deflection behaves like r^(1+0.674) at the corner, so its
moment field is too rough for uniform refinement: the estimator and
moment error converge only at the suboptimal order alpha/2 = 0.337.
The adaptive loop (estimate, bulk-mark with theta = 1/2, bisect)
restores the optimal order 1/2 by concentrating elements at the corner.
"""

import numpy as np

from platedpg import ExperimentConfig, experiment_levels
from platedpg.spaces import ElementGeometry

for mode in ("uniform", "adaptive"):
    levels = list(experiment_levels(ExperimentConfig("zshape", mode,
                                                     max_dofs=12_000)))
    records, mesh = [lv.record for lv in levels], levels[-1].mesh
    half = records[len(records) // 2:]
    logN = np.log([r.ndofs for r in half])
    slope_eta = -np.polyfit(logN, np.log([r.eta for r in half]), 1)[0]
    slope_M = -np.polyfit(logN, np.log([r.err_M for r in half]), 1)[0]
    print(f"\n{mode} refinement ({len(records)} levels, "
          f"final N = {records[-1].ndofs}):")
    print(f"{'N':>7} {'eta':>10} {'err_M':>10}")
    for r in records[:: max(1, len(records) // 6)]:
        print(f"{r.ndofs:>7} {r.eta:10.3e} {r.err_M:10.3e}")
    print(f"  slopes over the final half: eta {slope_eta:.3f}, "
          f"err_M {slope_M:.3f}")
    if mode == "adaptive":
        finest = np.nonzero(mesh.tri_area == mesh.tri_area.min())[0]
        geom = ElementGeometry(mesh, np.arange(mesh.num_triangles))
        frac = np.mean(np.linalg.norm(geom.centroid[finest], axis=1) < 0.25)
        print(f"  smallest triangles within 0.25 of the corner: "
              f"{100 * frac:.0f}%  (min diameter {geom.diam.min():.1e})")

print("\nexpected: uniform slope ~ 0.337 (= alpha/2), adaptive ~ 0.5")
