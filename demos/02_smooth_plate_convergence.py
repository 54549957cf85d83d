"""Smooth benchmark: simply supported square plate under constant load.

Solves the plate with the ultraweak DPG method on a sequence of
uniformly refined meshes and prints the L2 field errors, the built-in
residual estimator, and their empirical convergence orders against the
number of degrees of freedom.  All three quantities converge at the
optimal order 1/2 (order h in the mesh size).
"""

from platedpg import ExperimentConfig, experiment_levels

levels = list(experiment_levels(ExperimentConfig("square", "uniform",
                                                 max_levels=6)))

print(f"{'level':>5} {'#T':>6} {'N':>7} {'eta':>10} {'err_u':>10} "
      f"{'err_M':>10} {'EOC(eta)':>9} {'EOC(u)':>7} {'EOC(M)':>7}")
for r in (level.record for level in levels):
    fmt = lambda v: f"{v:7.3f}" if v is not None else "      -"
    print(f"{r.level:>5} {r.ntriangles:>6} {r.ndofs:>7} {r.eta:10.3e} "
          f"{r.err_u:10.3e} {r.err_M:10.3e} {fmt(r.eoc_eta):>9} "
          f"{fmt(r.eoc_u)} {fmt(r.eoc_M)}")

# The plate's centre deflection approaches the classical thin-plate
# coefficient 0.00406 (for unit load, unit side and unit rigidity).
print(f"\nmax element-mean deflection at the finest level: "
      f"{max(0.0, float(max(levels[-1].solution.u))):.5f} "
      f"(classical value 0.00406)")
